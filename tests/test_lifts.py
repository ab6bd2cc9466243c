"""Index raising, additive lifts, paramodular products and slices."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omfree.certify import CASES, SAMPLE_POINTS
from omfree.classical import sigma
from omfree.lifts import (
    ParamodularForm,
    evaluation_width,
    gritsenko_lift,
    hecke_V,
    lift_values,
    multiply,
    multiply_values,
)
from omfree.linalg import MODULUS
from omfree.weil import JacobiForm, jacobi_eisenstein, pullback
from oracles import bernoulli_recursive, enumerate_coset, evaluate, multiply_values_oracle

D8_VEC = (4, 2, 3, 4, 1, 3, 2, 4)


def case_lifts(case, count, nq, nxi):
    """Lifts of the case's first ``count`` generator rows along the case vector."""
    c = CASES[case]
    return [row.lift(c.vector, nq, nxi) for row in c.generators[:count]]


def fj_slice(f, m):
    """The coefficient of xi^M: a Jacobi form of index level * M."""
    if m < 0 or m > f.nxi:
        raise ValueError(f"slice M={m} outside truncation nxi={f.nxi}")
    coeffs = {(n, r): c for (n, r, mm), c in f.coeffs.items() if mm == m}
    return JacobiForm(f.weight, f.level * m, coeffs, f.nq)


def random_holomorphic_jacobi(rng, weight, index, nq):
    """A random coefficient table inside the holomorphic support cone."""
    coeffs = {}
    for n in range(nq + 1):
        rmax = isqrt(4 * n * index)
        for r in range(-rmax, rmax + 1):
            if rng.random() < 0.4:
                coeffs[(n, r)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return JacobiForm(weight, index, coeffs, nq)


@pytest.fixture(scope="module")
def phi8(generator_pullback_forms=None):
    form = jacobi_eisenstein("D8", 8, 0, prec=9)
    return pullback(form, D8_VEC, nq=8)


# ---------------------------------------------------------------------------
# hecke_V


def test_v1_is_identity(phi8):
    assert hecke_V(phi8, 1).coeffs == phi8.coeffs


def test_v_constant_term_is_divisor_sum(phi8):
    k = phi8.weight
    c00 = phi8.coefficient(0, 0)
    for m in (1, 2, 3, 4):
        assert hecke_V(phi8, m).coefficient(0, 0) == sigma(m, k - 1) * c00


def test_v2_at_coprime_r(phi8):
    v2 = hecke_V(phi8, 2)
    for r in (1, 3, 5, 7):
        assert v2.coefficient(1, r) == phi8.coefficient(2, r)


def test_v_raises_index(phi8):
    assert hecke_V(phi8, 3).index == 3 * phi8.index


# ---------------------------------------------------------------------------
# gritsenko_lift


def test_lift_slice_one_is_input(phi8):
    lift = gritsenko_lift(phi8, 2)
    sl = fj_slice(lift, 1)
    for (n, r), c in sl.coeffs.items():
        assert phi8.coefficient(n, r) == c
    for (n, r), c in phi8.coeffs.items():
        if n <= lift.nq:
            assert sl.coefficient(n, r) == c


def test_lift_symmetry_randomized():
    rng = random.Random(2024)
    cases = 0
    for _ in range(40):
        k = rng.choice([4, 6, 8, 10])
        index = rng.randint(1, 4)
        nq = 6
        phi = random_holomorphic_jacobi(rng, k, index, nq)
        lift = gritsenko_lift(phi, 2)
        box = min(lift.nq, lift.nxi)
        for (n, r, m), c in lift.coeffs.items():
            if n <= box and m <= box:
                assert lift.coeffs.get((m, r, n), Fraction(0)) == c
                cases += 1
    assert cases >= 200


def test_lift_of_zero_is_zero():
    zero = JacobiForm(8, 2, {}, 8)
    assert gritsenko_lift(zero, 2).is_zero()


def test_lift_odd_weight_needs_cusp_input():
    bad = JacobiForm(7, 1, {(0, 0): Fraction(1)}, 6)
    with pytest.raises(ValueError):
        gritsenko_lift(bad, 2)
    ok = JacobiForm(7, 1, {(1, 1): Fraction(1), (1, -1): Fraction(-1)}, 6)
    assert not gritsenko_lift(ok, 2).is_zero()


def test_lift_eisenstein_boundary(phi8):
    lift = gritsenko_lift(phi8, 2)
    k = phi8.weight
    from omfree.classical import bernoulli

    assert lift.coefficient(0, 0, 0) == -bernoulli(k) / (2 * k)
    for n in (1, 2, 3):
        assert lift.coefficient(n, 0, 0) == sigma(n, k - 1)


def test_lift_linearity(phi8):
    a, b = Fraction(3, 2), Fraction(-5)
    phi2 = hecke_V(phi8, 1)  # a copy
    lhs = gritsenko_lift(a * phi8 + b * phi2, 2)
    rhs = a * gritsenko_lift(phi8, 2) + b * gritsenko_lift(phi2, 2)
    assert lhs.coeffs == rhs.coeffs


# ---------------------------------------------------------------------------
# the shared numerator store, and V_M and the lift against their formulas

#: Mixed denominators, one of them past int64.
DENOMINATORS = [1, 2, 3, 4, 6, 9, 35, 2**70 + 1]
#: B_k for the even lift weights, from the tables.
BERNOULLI = {
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def random_rational(rng):
    return Fraction(rng.randint(-40, 40), rng.choice(DENOMINATORS))


def random_cone_table(rng, index, nq):
    """Random rational c(n, r) with 4 n index - r^2 >= 0, about half of them set."""
    return {
        (n, r): random_rational(rng)
        for n in range(nq + 1)
        for r in range(-isqrt(4 * n * index), isqrt(4 * n * index) + 1)
        if rng.random() < 0.5
    }


def test_store_is_lowest_terms_for_both_forms():
    rng = random.Random(31)
    for _ in range(40):
        nq, nxi, t = rng.randint(0, 3), rng.randint(0, 3), rng.choice([-7, -1, 2, 35, 2**65])
        # keys past the box are dropped, and zero values are not stored
        jacobi = {(n, r): random_rational(rng) for n in range(nq + 2) for r in range(-3, 4)}
        paramodular = {(n, r, m): random_rational(rng) for (n, r) in jacobi for m in range(nxi + 2)}
        phi = JacobiForm(5, 2, jacobi, nq)
        f = ParamodularForm(5, 2, paramodular, nq, nxi)
        assert phi.coeffs == {k: v for k, v in jacobi.items() if v and k[0] <= nq}
        assert f.coeffs == {k: v for k, v in paramodular.items() if v and k[0] <= nq and k[2] <= nxi}
        for form in (phi, f):
            assert form.den > 0 and gcd(form.den, *form.nums.values()) == 1
            assert all(form.nums.values())
        scaled = {k: t * v for k, v in phi.nums.items()}
        assert JacobiForm.from_numerators(5, 2, scaled, t * phi.den, nq) == phi
        scaled = {k: t * v for k, v in f.nums.items()}
        assert ParamodularForm.from_numerators(5, 2, scaled, t * f.den, nq, nxi) == f


def hecke_oracle(table, k, index, nq, m):
    """(phi | V_M)(n, r) from its defining sum, on Fraction values."""
    out = {}
    for n in range(nq // m + 1):
        rmax = isqrt(4 * n * index * m)
        for r in range(-rmax, rmax + 1):
            g = gcd(n, r, m)
            divisors = [d for d in range(1, g + 1) if g % d == 0]
            total = sum(d ** (k - 1) * table.get((n * m // (d * d), r // d), 0) for d in divisors)
            if total:
                out[(n, r)] = total
    return out


def lift_oracle(table, k, index, nq, nxi):
    """A(n, r, M) = sum_{d | (n, r, M)} d^(k-1) c(nM/d^2, r/d), and c(0,0)(-B_k/2k)E_k at M = 0."""
    nq_out = nq // nxi
    c00 = table.get((0, 0), Fraction(0))
    out = {}
    if c00:
        out[(0, 0, 0)] = c00 * -BERNOULLI[k] / (2 * k)
        for n in range(1, nq_out + 1):
            out[(n, 0, 0)] = c00 * sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
    for m in range(1, nxi + 1):
        for (n, r), c in hecke_oracle(table, k, index, nq, m).items():
            if n <= nq_out:
                out[(n, r, m)] = c
    return out


def test_hecke_and_lift_match_their_formulas():
    rng = random.Random(47)
    for _ in range(25):
        k, index = rng.choice([4, 5, 6, 7, 8, 10, 12]), rng.randint(1, 3)
        nq, nxi = rng.randint(2, 6), rng.randint(1, 3)
        table = random_cone_table(rng, index, nq)
        if k % 2:
            table.pop((0, 0), None)
        phi = JacobiForm(k, index, table, nq)
        for m in (1, 2, 3):
            raised = hecke_V(phi, m)
            assert (raised.weight, raised.index, raised.nq) == (k, m * index, nq // m)
            assert raised.coeffs == hecke_oracle(table, k, index, nq, m)
        lift = gritsenko_lift(phi, nxi)
        assert (lift.weight, lift.level, lift.nq, lift.nxi) == (k, index, nq // nxi, nxi)
        assert lift.coeffs == lift_oracle(table, k, index, nq, nxi)


@pytest.mark.parametrize("k", [4, 5, 10, 11])
def test_lift_slices_are_the_low_rows_of_hecke_V(k):
    # slice M of the lift is phi | V_M cut to the lift's rows n <= floor(nq / nxi);
    # an off-cone c(0, +-1) meets the bound r^2 <= 0 in every slice and changes nothing
    rng = random.Random(k)
    index, nq = 2, 10
    table = random_cone_table(rng, index, nq)
    if k % 2:
        table.pop((0, 0), None)
    phi = JacobiForm(k, index, table, nq)
    off_cone = JacobiForm(k, index, {**table, (0, 1): Fraction(3, 7), (0, -1): (-1) ** k * Fraction(3, 7)}, nq)
    for nxi in range(1, 6):
        lift = gritsenko_lift(phi, nxi)
        assert lift.nq == nq // nxi
        for m in range(1, nxi + 1):
            low = {(n, r): c for (n, r), c in hecke_V(phi, m).coeffs.items() if n <= lift.nq}
            assert fj_slice(lift, m).coeffs == low
        assert gritsenko_lift(off_cone, nxi) == lift
    for m in range(1, 6):
        assert hecke_V(off_cone, m) == hecke_V(phi, m)


# ---------------------------------------------------------------------------
# products


def test_multiply_commutes():
    rng = random.Random(5)
    for _ in range(10):
        f = gritsenko_lift(random_holomorphic_jacobi(rng, 4, 2, 6), 3)
        g = gritsenko_lift(random_holomorphic_jacobi(rng, 6, 2, 6), 3)
        assert multiply(f, g).coeffs == multiply(g, f).coeffs


def test_multiply_level_mismatch():
    f = gritsenko_lift(JacobiForm(4, 1, {(0, 0): Fraction(1)}, 6), 2)
    g = gritsenko_lift(JacobiForm(4, 2, {(0, 0): Fraction(1)}, 6), 2)
    with pytest.raises(ValueError):
        multiply(f, g)


def test_multiply_preserves_support():
    rng = random.Random(6)
    checked = 0
    for _ in range(30):
        f = gritsenko_lift(random_holomorphic_jacobi(rng, 4, 2, 6), 3)
        g = gritsenko_lift(random_holomorphic_jacobi(rng, 6, 2, 6), 3)
        p = multiply(f, g)
        p.check_support()
        checked += len(p.coeffs)
    assert checked >= 200


def test_multiply_weight_adds(phi8):
    lift = gritsenko_lift(phi8, 2)
    assert multiply(lift, lift).weight == 2 * lift.weight


def pair_loop_product(f, g):
    """The naive convolution over every coefficient pair, the oracle for ``multiply``."""
    nq, nxi = min(f.nq, g.nq), min(f.nxi, g.nxi)
    acc = {}
    for (n1, r1, m1), c1 in f.coeffs.items():
        for (n2, r2, m2), c2 in g.coeffs.items():
            n, m = n1 + n2, m1 + m2
            if n <= nq and m <= nxi:
                key = (n, r1 + r2, m)
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
    return ParamodularForm(f.weight + g.weight, f.level, acc, nq, nxi)


def assert_products_equal(f, g):
    got, want = multiply(f, g), pair_loop_product(f, g)
    assert (got.weight, got.level, got.nq, got.nxi) == (want.weight, want.level, want.nq, want.nxi)
    assert got.coeffs == want.coeffs
    # integer storage in lowest terms, the same as from the rational constructor
    assert got.den > 0 and gcd(got.den, *got.nums.values()) == 1
    assert got == want


BIG = 2**256
COEFFICIENTS = st.builds(Fraction, st.integers(-BIG, BIG), st.sampled_from([1, 2, 3, 7, 12, 2**64 + 13]))


@st.composite
def sparse_forms(draw, level):
    nq, nxi = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    keys = [
        (n, r, m)
        for n in range(nq + 1)
        for m in range(nxi + 1)
        for r in range(-isqrt(4 * n * m * level), isqrt(4 * n * m * level) + 1)
    ]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=12, unique=True))
    values = draw(st.lists(COEFFICIENTS, min_size=len(chosen), max_size=len(chosen)))
    return ParamodularForm(draw(st.integers(1, 12)), level, dict(zip(chosen, values)), nq, nxi)


@st.composite
def form_pairs(draw):
    level = draw(st.sampled_from([1, 2, 12, 24]))
    return draw(sparse_forms(level)), draw(sparse_forms(level))


@settings(max_examples=200, deadline=None)
@given(form_pairs())
def test_multiply_matches_pair_loop(pair):
    assert_products_equal(*pair)


def test_multiply_empty_and_single_term_factors():
    empty = ParamodularForm(4, 2, {}, 3, 2)
    single = ParamodularForm(6, 2, {(1, -2, 1): Fraction(-5, 3)}, 2, 3)
    assert multiply(empty, single).is_zero()
    assert multiply(single, empty).is_zero()
    assert multiply(single, single).coeffs == {(2, -4, 2): Fraction(25, 9)}
    assert_products_equal(single, single)


def test_multiply_signed_decode_borrows():
    # one dense slice at the magnitude bound: every output digit is nonzero and
    # the centre coefficient meets sum |f| * max |g| exactly
    level = 24
    rmax = isqrt(4 * level)
    top = 2**200 - 1
    f = ParamodularForm(4, level, {(1, r, 1): Fraction(-top) for r in range(-rmax, rmax + 1)}, 2, 2)
    g = -1 * f
    assert multiply(f, f).coefficient(2, 0, 2) == (2 * rmax + 1) * top**2
    assert multiply(f, g).coefficient(2, 0, 2) == -(2 * rmax + 1) * top**2
    assert_products_equal(f, f)
    assert_products_equal(f, g)


def test_multiply_e7_lifts_match_pair_loop():
    f, g = case_lifts("E7", 2, 3, 3)
    assert len(f.coeffs) > 50 and len(g.coeffs) > 50
    assert_products_equal(f, g)
    assert_products_equal(g, g)


# ---------------------------------------------------------------------------
# slices


def test_slice_zero_grading():
    rng = random.Random(7)
    f = gritsenko_lift(random_holomorphic_jacobi(rng, 4, 2, 8), 2)
    g = gritsenko_lift(random_holomorphic_jacobi(rng, 6, 2, 8), 2)
    p = multiply(f, g)
    lhs = fj_slice(p, 0)
    rhs = fj_slice(f, 0) * fj_slice(g, 0)
    for (n, r), c in lhs.coeffs.items():
        assert rhs.coefficient(n, r) == c
    for (n, r), c in rhs.coeffs.items():
        if n <= lhs.nq:
            assert lhs.coefficient(n, r) == c


def test_slices_are_valid_jacobi_forms(phi8):
    lift = gritsenko_lift(phi8, 2)
    for m in range(lift.nxi + 1):
        sl = fj_slice(lift, m)
        assert sl.index == lift.level * m
        sl.check_support()
        sl.check_r_symmetry()
        sl.check_elliptic_law()


def test_slice_out_of_range(phi8):
    lift = gritsenko_lift(phi8, 2)
    with pytest.raises(ValueError):
        fj_slice(lift, 5)


# ---------------------------------------------------------------------------
# the lift/restriction diagram


def lattice_v_then_restrict(component_form, v, m, nq):
    """e_v(F | V_M) computed with membership tests instead of gcd sums.

    The index-M coefficient at (n, l) is
      sum_{d | gcd(n, M), l/d dual} d^(k-1) c_F(n M / d^2, l / d),
    and restriction sums over <l, v> = r.  Each coset vector is held in
    integer coordinates y = den l, den the common denominator of the coset
    representatives.  Membership of l/d in the dual is decided by
    integrality of gram . (l/d), that is gram . y = 0 mod den d; then y/d is
    integral and y/d mod den names the coset of l/d.  Vectors with the same
    pairing and the same (d, norm, coset) scalings are tallied once.
    """
    lat = component_form.lattice
    k = int(component_form.weight)
    gram = np.array(lat.gram, dtype=np.int64)
    den = lcm(*(x.denominator for c in lat.cosets for x in c.rep))
    by_coset = {tuple(x.numerator * (den // x.denominator) % den for x in c.rep): c.index for c in lat.cosets}

    def c_f(n, q, idx):
        e = n - q
        if e < 0:
            return Fraction(0)
        return component_form.component(idx).coefficient(e)

    # one pass of per-vector data: pairing, and norm and coset of each dual scaling l/d
    tally = Counter()
    for c in lat.cosets:
        vectors = enumerate_coset(lat, c, nq * m)
        y = np.array([[x.numerator * (den // x.denominator) for x in vec] for vec, _ in vectors], dtype=np.int64)
        gy = y @ gram
        pairings, rest = np.divmod(gy @ np.array(v, dtype=np.int64), den)
        assert not rest.any(), "a coset vector pairs to a non-integer with v"
        scaled_norms = (y * gy).sum(axis=1)  # y^T gram y = 2 den^2 Q(l)
        dual = {d: (gy % (den * d) == 0).all(axis=1) for d in range(1, m + 1)}
        assert dual[1].all(), "a coset vector is not in the dual lattice"
        for i, (_, q) in enumerate(vectors):
            s = int(scaled_norms[i])
            assert q.numerator * (2 * den * den // q.denominator) == s
            scalings = []
            for d in range(1, m + 1):
                if dual[d][i]:
                    scaled = y[i] // d
                    assert (scaled * d == y[i]).all()
                    scalings.append((d, s, by_coset[tuple((scaled % den).tolist())]))
            tally[(int(pairings[i]), tuple(scalings))] += 1

    out = {}
    for n in range(nq + 1):
        g = gcd(n, m)
        for (r, scalings), count in tally.items():
            total = Fraction(0)
            for d, s, idx in scalings:
                if g % d:
                    continue
                # Q(l/d) = s / (2 den^2 d^2)
                total += Fraction(d ** (k - 1)) * c_f(n * m // (d * d), Fraction(s, 2 * den * den * d * d), idx)
            if total:
                key = (n, r)
                out[key] = out.get(key, Fraction(0)) + count * total
    return out


def test_lift_restrict_diagram_commutes():
    # restrict-then-raise equals raise-then-restrict for the weight-4 data
    nq, m = 2, 2
    form = jacobi_eisenstein("D8", 4, 0, prec=nq * m + 1)
    phi = pullback(form, D8_VEC, nq=nq * m)
    side_scalar = hecke_V(phi, m)
    side_lattice = lattice_v_then_restrict(form, D8_VEC, m, nq)
    for n in range(nq + 1):
        rmax = isqrt(4 * n * side_scalar.index)
        for r in range(-rmax, rmax + 1):
            assert side_scalar.coefficient(n, r) == side_lattice.get((n, r), Fraction(0)), (n, r)
    for key, val in side_lattice.items():
        if key[0] <= nq:
            assert side_scalar.coefficient(*key) == val


def test_lift_symmetry_method(phi8):
    gritsenko_lift(phi8, 3).check_symmetry()


# ---------------------------------------------------------------------------
# residues in r-evaluation space


@pytest.mark.parametrize("case", ["D8", "E7"])
@pytest.mark.parametrize("nq,nxi", [(2, 2), (3, 3)])
def test_evaluation_of_product_is_pointwise_product(case, nq, nxi):
    # the residue path's product agrees with the exact product, up to the
    # integer factor by which from_numerators reduced the numerators, at
    # full width and on the certificate's sample
    e4, e6 = case_lifts(case, 2, nq, nxi)
    width = evaluation_width(e4.level, nq, nxi)
    for points in (None, SAMPLE_POINTS):
        for f, g in ((e4, e6), (multiply(e4, e6), e4)):
            h = multiply(f, g)
            scale = f.den * g.den // h.den % MODULUS
            fast = multiply_values(evaluate(f, points), evaluate(g, points))
            assert (fast == evaluate(h, points) * scale % MODULUS).all()
            assert fast.shape == (nq + 1, nxi + 1, points or width)


@pytest.mark.parametrize("case,nq,nxi", [("D8", 4, 4), ("E7", 5, 5), ("E7", 3, 1)])
def test_sampled_evaluation_is_the_first_columns(case, nq, nxi):
    forms = case_lifts(case, 3, nq, nxi)
    width = evaluation_width(forms[0].level, nq, nxi)
    for f in forms:
        full = evaluate(f)
        assert full.shape[2] == width
        for points in (1, SAMPLE_POINTS, width - 1, width, width + 5):
            assert (evaluate(f, points) == full[:, :, :points]).all()


def scaled_lift_evaluation(phi, nxi, points):
    """(D / lift.den) evaluate(gritsenko_lift(phi, nxi), points) mod p, D = lcm(phi.den, den of A(0, 0, 0)).

    The reference for ``lift_values``: the exact lift, evaluated.
    """
    lift = gritsenko_lift(phi, nxi)
    k = phi.weight
    constant = phi.coefficient(0, 0) * -bernoulli_recursive(k) / (2 * k)
    scale = lcm(phi.den, constant.denominator) // lift.den % MODULUS
    return scale * evaluate(lift, points) % MODULUS


@pytest.mark.parametrize("case,nq,nxi", [("D8", 2, 2), ("E6", 2, 2), ("E7", 2, 2), ("E7", 5, 5)])
def test_lift_values_match_the_evaluated_lift_on_case_rows(case, nq, nxi):
    c = CASES[case]
    for row in c.generators:
        phi = row.jacobi(c.vector, nq * nxi)
        width = evaluation_width(phi.index, nq, nxi)
        for points in (SAMPLE_POINTS, width):
            got = lift_values(phi, nxi, points)
            assert got.dtype == np.int64 and got.shape == (nq + 1, nxi + 1, points)
            assert np.array_equal(got, scaled_lift_evaluation(phi, nxi, points)), (row.name, points)


#: Numerators of both sizes, and multiples of the prime.
NUMERATORS = st.one_of(st.integers(-BIG, BIG), st.integers(-5, 5).map(lambda x: x * MODULUS))


@st.composite
def lift_inputs(draw):
    """A Jacobi input with some terms off the cone r^2 <= 4 n index, its nxi and a point count."""
    index = draw(st.sampled_from([1, 2, 12, 24]))
    weight = draw(st.sampled_from([4, 5, 6, 7, 10, 11, 12]))
    nq, nxi = draw(st.integers(0, 9)), draw(st.integers(1, 4))
    keys = [(n, r) for n in range(nq + 1) for r in range(-isqrt(4 * n * index) - 2, isqrt(4 * n * index) + 3)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=24, unique=True))
    if weight % 2:  # odd weights lift only with c(0, 0) = 0
        chosen = [key for key in chosen if key != (0, 0)]
    values = draw(st.lists(NUMERATORS, min_size=len(chosen), max_size=len(chosen)))
    den = draw(st.sampled_from([1, 2, 3, 7, 12, MODULUS, 2**64 + 13]))
    phi = JacobiForm.from_numerators(weight, index, dict(zip(chosen, values)), den, nq)
    width = evaluation_width(index, nq // nxi, nxi)
    return phi, nxi, draw(st.sampled_from([1, SAMPLE_POINTS, width, width + 3]))


@settings(max_examples=150, deadline=None)
@given(lift_inputs())
def test_lift_values_match_the_evaluated_lift(drawn):
    phi, nxi, points = drawn
    got = lift_values(phi, nxi, points)
    want = scaled_lift_evaluation(phi, nxi, points)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize(
    "phi,nxi,message",
    [
        (JacobiForm(4, 1, {(0, 0): Fraction(1)}, 4), 0, "nxi must be >= 1"),
        (JacobiForm(4, 0, {(0, 0): Fraction(1)}, 4), 2, "lift input must have positive index"),
        (JacobiForm(7, 1, {(0, 0): Fraction(1)}, 4), 2, "odd-weight lifts need vanishing constant term"),
        (JacobiForm(2, 1, {(0, 0): Fraction(1)}, 4), 2, "even lift weights start at 4, got 2"),
    ],
)
def test_lift_values_raise_the_lift_errors(phi, nxi, message):
    for build in (gritsenko_lift, lambda phi, nxi: lift_values(phi, nxi, SAMPLE_POINTS)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(phi, nxi)


# boxes (f, g): equal, a != b, f's box smaller than g's on both axes or one
BOXES = [((6, 6), (6, 6)), ((3, 5), (3, 5)), ((2, 3), (5, 6)), ((5, 2), (3, 4)), ((1, 1), (4, 4)), ((4, 1), (4, 3))]


@pytest.mark.parametrize("width", [1, SAMPLE_POINTS, 69])
@pytest.mark.parametrize("fbox,gbox", BOXES)
def test_multiply_values_matches_slice_loop(fbox, gbox, width):
    rng = np.random.default_rng(hash((fbox, gbox, width)) % 2**32)
    for trial in range(4):
        f = rng.integers(0, MODULUS, size=fbox + (width,), dtype=np.int64)
        g = rng.integers(0, MODULUS, size=gbox + (width,), dtype=np.int64)
        if trial:  # zero out slices of either factor, up to all of them at the last trial
            f[rng.random(fbox) < trial / 3] = 0
            g[rng.random(gbox) < trial / 3] = 0
        want = multiply_values_oracle(f, g)
        got = multiply_values(f, g)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert (got == want).all()
        assert (multiply_values(g, f) == want).all()


def test_multiply_values_rejects_unequal_widths():
    with pytest.raises(ValueError, match="widths differ"):
        multiply_values(np.zeros((2, 2, 3), dtype=np.int64), np.zeros((2, 2, 4), dtype=np.int64))


def test_evaluation_rejects_coefficients_outside_the_support():
    form = ParamodularForm(4, 1, {(0, 0, 0): 1, (1, 3, 1): 2}, 1, 1)
    with pytest.raises(ValueError, match="violates"):
        evaluate(form)
