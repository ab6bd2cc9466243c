"""The exact linear-algebra core against independent oracles."""

from fractions import Fraction
from itertools import permutations
from math import gcd

from hypothesis import given, strategies as st

from omfree.lattice import _scaled_inverse, gram_matrix
from omfree.linalg import MODULUS, bareiss_rank, clear_denominators, det, left_kernel, solve
from oracles import LATTICES, rational_inverse

small_ints = st.integers(-4, 4)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# multiples of the modular-rank prime, and entries past int64 of either sign:
# matrices that are regular over Q can be singular mod the prime
wide_ints = st.one_of(
    small_ints,
    st.sampled_from([MODULUS, -MODULUS, 2 * MODULUS, MODULUS + 1]),
    st.integers(-(2**70), 2**70),
)


@st.composite
def matrices(draw, entries=small_ints, square=False):
    """Small matrices, often with zero, duplicate or combined rows."""
    ncols = draw(st.integers(0 if square else 1, 5 if square else 4))
    nrows = ncols if square else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]), max_size=3 if rows else 0)):
        if kind == "zero":
            new = [0] * ncols
        elif kind == "duplicate":
            new = list(draw(st.sampled_from(rows)))
        else:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(entries)
            new = [x + c * y for x, y in zip(a, b)]
        rows[draw(st.integers(0, len(rows) - 1))] = new
    return rows


def leibniz(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def dot(row, x):
    return sum(a * b for a, b in zip(row, x))


def rank(rows):
    return bareiss_rank([clear_denominators(r)[0] for r in rows])


@given(matrices(square=True))
def test_det_matches_leibniz(m):
    assert det(m) == leibniz(m)


@given(st.one_of(matrices(), matrices(rationals), matrices(wide_ints)))
def test_left_kernel_vectors(rows):
    kernel = left_kernel(rows)
    assert rank(rows) == len(rows) - len(kernel)
    assert bareiss_rank(kernel) == len(kernel)
    for vec in kernel:
        assert all(isinstance(c, int) for c in vec)
        assert gcd(*vec) == 1
        assert next(c for c in vec if c) > 0
        assert all(sum(c * row[j] for c, row in zip(vec, rows)) == 0 for j in range(len(rows[0])))


@given(st.one_of(matrices(), matrices(rationals), matrices(wide_ints)), st.data())
def test_solve_status_and_witness(matrix, data):
    ncols = len(matrix[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(rationals, min_size=ncols, max_size=ncols))
        rhs = [dot(row, x) for row in matrix]
    else:
        x = None
        rhs = data.draw(st.lists(rationals, min_size=len(matrix), max_size=len(matrix)))
    sol = solve(matrix, rhs)
    full = rank(matrix)
    if full < ncols:
        assert sol.status == "underdetermined"
        return
    fails = [i for i, (row, b) in enumerate(zip(matrix, rhs)) if dot(row, sol.values) != b]
    if rank([row + [b] for row, b in zip(matrix, rhs)]) == full:
        assert sol.status == "unique" and fails == []
        assert x is None or sol.values == x
    else:
        assert sol.status == "inconsistent"
        assert sol.row == fails[0]


def test_solve_reports_first_failing_row():
    sol = solve([[1, 0], [0, 1], [1, 1], [1, -1], [2, 2]], [1, 2, 3, 5, 7])
    assert sol.status == "inconsistent" and sol.values == [1, 2] and sol.row == 3


def test_clear_denominators_returns_the_lcm():
    assert clear_denominators([Fraction(1, 2), 3, Fraction(-2, 3), 0]) == ([3, 18, -4, 0], 6)
    assert clear_denominators([4, -1]) == ([4, -1], 1)
    assert clear_denominators([]) == ([], 1)


def test_inverse_of_every_gram_matrix():
    # A (S A^-1) = S I for the frame's integer form, which is S times the solved inverse
    for name in LATTICES:
        gram = gram_matrix(name)
        scale, inv = _scaled_inverse(gram)
        n = len(gram)
        assert [[dot(gram[i], [inv[k][j] for k in range(n)]) for j in range(n)] for i in range(n)] == [
            [scale * int(i == j) for j in range(n)] for i in range(n)
        ], name
        assert inv == [[scale * x for x in row] for row in rational_inverse(gram)], name
