"""The exact linear-algebra core against independent oracles."""

from fractions import Fraction
from itertools import permutations
from math import gcd

from hypothesis import given, strategies as st

from omfree.classical import _level2_basis_monomials
from omfree.lattice import _inverse, gram_matrix, registered_lattices
from omfree.linalg import bareiss_rank, clear_denominators, det, left_kernel, solve

small_ints = st.integers(-4, 4)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


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
    return bareiss_rank([clear_denominators(r) for r in rows])


@given(matrices(square=True))
def test_det_matches_leibniz(m):
    assert det(m) == leibniz(m)


@given(st.one_of(matrices(), matrices(rationals)))
def test_left_kernel_vectors(rows):
    kernel = left_kernel(rows)
    assert rank(rows) == len(rows) - len(kernel)
    assert bareiss_rank(kernel) == len(kernel)
    for vec in kernel:
        assert all(isinstance(c, int) for c in vec)
        assert gcd(*vec) == 1
        assert next(c for c in vec if c) > 0
        assert all(sum(c * row[j] for c, row in zip(vec, rows)) == 0 for j in range(len(rows[0])))


@given(st.one_of(matrices(), matrices(rationals)), st.data())
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


def test_inverse_of_every_gram_matrix():
    for name in registered_lattices():
        gram = gram_matrix(name)
        inv = _inverse(gram)
        n = len(gram)
        assert [[dot(inv[i], [gram[k][j] for k in range(n)]) for j in range(n)] for i in range(n)] == [
            [int(i == j) for j in range(n)] for i in range(n)
        ], name


# Chosen monomials (w2, E4, E4(2 tau) exponents) per weight, as selected by
# the earlier per-row reduction.
LEVEL2_BASIS = {
    0: ((0, 0, 0),),
    2: ((1, 0, 0),),
    4: ((0, 0, 1), (0, 1, 0)),
    6: ((1, 0, 1), (1, 1, 0)),
    8: ((0, 0, 2), (0, 1, 1), (0, 2, 0)),
    10: ((1, 0, 2), (1, 1, 1), (1, 2, 0)),
    12: ((0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0)),
    14: ((1, 0, 3), (1, 1, 2), (1, 2, 1), (1, 3, 0)),
    16: ((0, 0, 4), (0, 1, 3), (0, 2, 2), (0, 3, 1), (0, 4, 0)),
    18: ((1, 0, 4), (1, 1, 3), (1, 2, 2), (1, 3, 1), (1, 4, 0)),
    20: ((0, 0, 5), (0, 1, 4), (0, 2, 3), (0, 3, 2), (0, 4, 1), (0, 5, 0)),
    22: ((1, 0, 5), (1, 1, 4), (1, 2, 3), (1, 3, 2), (1, 4, 1), (1, 5, 0)),
    24: ((0, 0, 6), (0, 1, 5), (0, 2, 4), (0, 3, 3), (0, 4, 2), (0, 5, 1), (0, 6, 0)),
}


def test_level2_basis_monomials_table():
    assert {k: _level2_basis_monomials(k) for k in LEVEL2_BASIS} == LEVEL2_BASIS
