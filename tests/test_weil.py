"""Component correspondences, Eisenstein assembly, and pullbacks."""

import random
from dataclasses import replace
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

import omfree.weil as weil_module
from omfree.certify import CASES
from omfree.classical import (
    ScalarForm,
    eisenstein_sl2,
    gamma0_2_eisenstein_basis,
    plus_eisenstein_gamma0_3,
    slash_level2,
    theta_series,
)
from omfree.lattice import lattice, pairing_counts
from omfree.qseries import QSeries
from omfree.weil import (
    ComponentForm,
    JacobiForm,
    d8_invariant_from_gamma02,
    d8_pair_to_component,
    e6_from_plus,
    e6_from_sl2,
    e7_from_plus,
    jacobi_eisenstein,
    pullback,
)
from oracles import pullback_oracle

D8_VEC = (4, 2, 3, 4, 1, 3, 2, 4)
E6_VEC = (3, 2, 0, 1, 1, 1)
E7_VEC = (3, 2, 0, 1, 1, 1, 1)


def e6_to_plus(form):
    """Inverse of e6_from_plus: rescale every component by 3 and add."""
    total = None
    for comp in form.components:
        piece = comp.rescale(3)
        total = piece if total is None else total + piece
    return total


def const_form(weight, level, value, prec):
    return ScalarForm(Fraction(weight), level, QSeries({0: value}, prec))


# ---------------------------------------------------------------------------
# D8 component map


def test_pair_map_weight0_computed_values():
    # the formulas give (1, 0, 1, 0) for the pair (1, 1) at weight 0
    f1 = const_form(0, "SL2", 1, 8)
    f2 = const_form(0, "Gamma0_2", 1, 8)
    form = d8_pair_to_component(f1, f2, slash_level2(f2))
    assert form.component(0) == QSeries.one(8)
    assert form.component(1).is_zero()
    assert form.component(2) == QSeries.one(8)
    assert form.component(3).is_zero()


def test_pair_map_weight_mismatch():
    with pytest.raises(ValueError):
        # a zero pair, so that the weight check and not decompose_level2 rejects the input
        d8_pair_to_component(const_form(4, "SL2", 1, 8), const_form(6, "Gamma0_2", 1, 8), (QSeries.zero(8),) * 2)


def test_pair_map_additivity():
    prec = 8
    e4 = eisenstein_sl2(4, prec)
    zero1 = ScalarForm(Fraction(4), "SL2", QSeries.zero(prec))
    b0, b1 = gamma0_2_eisenstein_basis(4, prec)
    b01 = ScalarForm(Fraction(4), "Gamma0_2", b0.series + b1.series)
    lhs = d8_pair_to_component(e4, b01, slash_level2(b01))
    rhs = d8_pair_to_component(e4, b0, slash_level2(b0)) + d8_pair_to_component(zero1, b1, slash_level2(b1))
    for i in range(4):
        assert lhs.component(i) == rhs.component(i)


def test_invariant_construction_middle_components_equal():
    for k in (0, 2, 4, 8):
        for f2 in gamma0_2_eisenstein_basis(k, 9):
            form = d8_invariant_from_gamma02(f2)
            assert form.component(1) == form.component(2)


def test_weight2_input_traces_to_zero():
    d = gamma0_2_eisenstein_basis(2, 9)[0]
    form = d8_invariant_from_gamma02(d)
    # f1 = 0, so components are (f2/2, -f2/2, -f2/2, *)
    assert form.component(0) == d.series / 2
    assert form.component(1) == -(d.series / 2)


def test_component_exponents_match_coset_norms():
    for k, orbit in [(4, 0), (8, 0), (8, 1)]:
        jacobi_eisenstein("D8", k, orbit, prec=7).check_exponent_fractions()
    # every E6 and E7 Eisenstein generator weight of the certified cases
    for case in ("E6", "E7"):
        weights = [k for _, k, recipe, _ in CASES[case].generators if "Eisenstein" in recipe]
        assert len(weights) == {"E6": 7, "E7": 10}[case]
        for k in weights:
            jacobi_eisenstein(case, k, 0, prec=7).check_exponent_fractions()


# ---------------------------------------------------------------------------
# E6 maps


def test_e6_round_trip():
    g = plus_eisenstein_gamma0_3(7, 30)
    form = e6_from_plus(g)
    assert e6_to_plus(form) == g.series
    # the printed composition with the extra 1/3 recovers a third of the form
    assert (e6_to_plus(form) / 3) == g.series / 3


def test_e6_odd_map_components():
    one = ScalarForm(Fraction(0), "SL2", QSeries.one(10))
    form = e6_from_sl2(one)
    assert form.weight == 7
    comps = form.components
    # (0, f eta^8, -f eta^8) in coset order: the zero coset is first
    assert [i for i, c in enumerate(comps) if c.is_zero()] == [0]
    assert comps[1] == -comps[2]
    assert comps[1].coefficient(Fraction(1, 3)) == 1
    form.check_exponent_fractions()


def test_e6_conjugate_cosets_are_negatives():
    lat = lattice("E6")
    nonzero = [c for c in lat.cosets if not c.is_zero()]
    a, b = nonzero
    assert tuple((-x) % 1 for x in a.rep) == b.rep


# ---------------------------------------------------------------------------
# E7 map


def test_e7_from_theta():
    th = theta_series(30)
    form = e7_from_plus(th)
    c0, c1 = form.components
    assert c0.coefficient(0) == 1
    assert c0.coefficient(1) == 2  # from c(4) = 2
    assert c1.coefficient(Fraction(1, 4)) == 2  # from c(1) = 2
    form.check_exponent_fractions()


def test_e7_zero_form():
    zero = ScalarForm(Fraction(1, 2), "KohnenPlus4", QSeries.zero(8))
    form = e7_from_plus(zero)
    assert all(c.is_zero() for c in form.components)


# ---------------------------------------------------------------------------
# Plus-space split (E6 and E7)


@pytest.mark.parametrize(
    "split, level, modulus, n",
    [
        (e6_from_plus, "Gamma0_3_chi", 3, 2),
        (e6_from_plus, "Gamma0_3_chi", 3, 5),
        (e7_from_plus, "KohnenPlus4", 4, 2),
        (e7_from_plus, "KohnenPlus4", 4, 3),
        (e7_from_plus, "KohnenPlus4", 4, 7),
    ],
)
def test_plus_split_rejects_a_term_off_every_coset_norm(split, level, modulus, n):
    # n/modulus mod 1 is -Q(gamma) for no coset gamma
    good = {0: 1, 1: 2, modulus: 3}
    split(ScalarForm(Fraction(5), level, QSeries(good, 12)))
    with pytest.raises(ValueError, match=f"support at {n} = {n % modulus} mod {modulus}$"):
        split(ScalarForm(Fraction(5), level, QSeries({**good, n: 7}, 12)))


def test_plus_split_rejects_a_wrong_level_tag():
    series = QSeries({0: 1, 1: 2}, 12)
    for split, level in [(e6_from_plus, "KohnenPlus4"), (e6_from_plus, "SL2"), (e7_from_plus, "Gamma0_3_chi")]:
        with pytest.raises(ValueError, match="expected a plus-space form"):
            split(ScalarForm(Fraction(5), level, series))


# ---------------------------------------------------------------------------
# Eisenstein normalization


def test_d8_eisenstein_orbit_constants():
    for k in range(8, 32, 2):
        f0 = jacobi_eisenstein("D8", k, 0, prec=4)
        assert f0.constant_term(0) == 1
        assert f0.constant_term(1) == 0 and f0.constant_term(2) == 0
        f1 = jacobi_eisenstein("D8", k, 1, prec=4)
        assert f1.constant_term(0) == 0
        assert f1.constant_term(1) == Fraction(1, 2) and f1.constant_term(2) == Fraction(1, 2)


def test_d8_special_weights_on_orbit_normalization():
    for k in (4, 6):
        form = jacobi_eisenstein("D8", k, 0, prec=4)
        assert form.constant_term(0) == 1


def test_eisenstein_inadmissible_requests():
    with pytest.raises(ValueError):
        jacobi_eisenstein("D8", 4, 1, prec=4)
    with pytest.raises(ValueError):
        jacobi_eisenstein("D8", 7, 0, prec=4)
    with pytest.raises(ValueError):
        jacobi_eisenstein("E6", 5, 0, prec=4)
    with pytest.raises(ValueError):
        jacobi_eisenstein("E7", 4, 1, prec=4)
    with pytest.raises(ValueError):
        jacobi_eisenstein("A1", 4, 0, prec=4)


def test_e6_e7_constants():
    assert jacobi_eisenstein("E6", 4, 0, prec=4).constant_term(0) == 1
    assert jacobi_eisenstein("E7", 6, 0, prec=4).constant_term(0) == 1


# ---------------------------------------------------------------------------
# pullback


def test_pullback_weight4_constant_term():
    form = jacobi_eisenstein("D8", 4, 0, prec=5)
    phi = pullback(form, D8_VEC, nq=4)
    assert phi.weight == 4
    assert phi.index == 24
    assert phi.coefficient(0, 0) == 1


def test_pullback_rejects_zero_vector():
    form = jacobi_eisenstein("D8", 4, 0, prec=3)
    with pytest.raises(ValueError):
        pullback(form, (0,) * 8, nq=2)


def test_pullback_invariants(generator_pullback_forms):
    for (case, name), phi in generator_pullback_forms.items():
        phi.check_support()
        phi.check_r_symmetry()
        phi.check_elliptic_law()


def test_pullback_odd_weight_antisymmetry(generator_pullback_forms):
    m7 = generator_pullback_forms[("E6", "M7")]
    assert m7.weight == 7
    assert not m7.is_zero()
    for (n, r), c in m7.coeffs.items():
        assert m7.coefficient(n, -r) == -c
    # in particular every r = 0 coefficient vanishes
    assert all(r != 0 for (n, r) in m7.coeffs)


def test_pullback_linearity():
    rng = random.Random(11)
    prec = 6
    f = jacobi_eisenstein("D8", 8, 0, prec=prec)
    g = jacobi_eisenstein("D8", 8, 1, prec=prec)
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    combo = a * f + b * g
    lhs = pullback(combo, D8_VEC, nq=5)
    rhs_f = pullback(f, D8_VEC, nq=5)
    rhs_g = pullback(g, D8_VEC, nq=5)
    for n in range(6):
        rmax = 40
        for r in range(-rmax, rmax + 1):
            assert lhs.coefficient(n, r) == a * rhs_f.coefficient(n, r) + b * rhs_g.coefficient(n, r)


@pytest.fixture
def pairing_calls(monkeypatch):
    """A cold counts memo, and the qmax of every ``pairing_counts`` call that ``weil`` makes."""
    calls = []
    real = weil_module.pairing_counts

    def counted(lat, coset, v, qmax):
        calls.append(qmax)
        return real(lat, coset, v, qmax)

    monkeypatch.setattr(weil_module, "pairing_counts", counted)
    weil_module._coset_counts.cache_clear()
    yield calls
    weil_module._coset_counts.cache_clear()


def test_counts_cache_evicts_oldest_direction(pairing_calls):
    memo = weil_module._coset_counts
    form = jacobi_eisenstein("E6", 4, 0, prec=4)
    cosets = len(form.lattice.cosets)
    dirs = [(a, b, 1, 0, 0, 0) for a in range(-3, 3) for b in range(-3, 3)][:33]
    first = pullback(form, dirs[0], nq=2)
    first_tables = memo("E6", dirs[0], 2)
    for v in dirs[1:]:
        pullback(form, v, nq=2)
    info = memo.cache_info()
    assert info.maxsize == info.currsize == weil_module._COUNTS_CACHE_LIMIT == 32
    assert (info.misses, len(pairing_calls)) == (33, 33 * cosets)
    # a direction still held counts nothing
    pullback(form, dirs[-1], nq=2)
    assert len(pairing_calls) == 33 * cosets
    # direction 33 evicted direction 1: asking for it again counts it again, to equal tables
    assert pullback(form, dirs[0], nq=2) == first
    assert (memo.cache_info().misses, len(pairing_calls)) == (34, 34 * cosets)
    again = memo("E6", dirs[0], 2)
    assert again is not first_tables
    assert np.array_equal(again.pairings, first_tables.pairings)
    assert all(map(np.array_equal, again.tables, first_tables.tables))


def test_half_integral_weight_is_rejected_before_counting(pairing_calls):
    form = replace(jacobi_eisenstein("E7", 4, 0, prec=4), weight=Fraction(9, 2))
    with pytest.raises(ValueError, match="half-integral"):
        pullback(form, E7_VEC, nq=2)
    assert pairing_calls == []
    assert weil_module._coset_counts.cache_info().currsize == 0


@pytest.mark.parametrize("case", ["D8", "E6", "E7"])
def test_counts_cache_hit_matches_a_cold_count(case, pairing_calls):
    # nq=3 after nq=5 on one vector is a key of its own, counted to qmax 3
    vec = {"D8": D8_VEC, "E6": E6_VEC, "E7": E7_VEC}[case]
    form = jacobi_eisenstein(case, 4, 0, prec=6)
    cosets = len(form.lattice.cosets)
    pullback(form, vec, nq=5)
    warm = pullback(form, vec, nq=3)
    assert pairing_calls == [5] * cosets + [3] * cosets
    hit = pullback(form, vec, nq=3)
    assert len(pairing_calls) == 2 * cosets
    assert weil_module._coset_counts.cache_info()[:2] == (1, 2)
    weil_module._coset_counts.cache_clear()
    cold = pullback(form, vec, nq=3)
    assert warm == hit == cold and not cold.is_zero()


def mixed_sign_form(case):
    """E6 minus E10, component by component: a component form with coefficients of both signs."""
    e6, e10 = (jacobi_eisenstein(case, k, 0, prec=5) for k in (6, 10))
    comps = tuple(a - b for a, b in zip(e6.components, e10.components))
    return ComponentForm(e6.lattice, e6.weight, comps)


def coset_vector_total(case, vec, nq):
    lat = lattice(case)
    return sum(sum(pairing_counts(lat, coset, vec, nq).values()) for coset in lat.cosets)


@pytest.mark.parametrize("case", ["D8", "E6", "E7"])
def test_pullback_matches_the_pair_loop_oracle(case, monkeypatch):
    vec = {"D8": D8_VEC, "E6": E6_VEC, "E7": E7_VEC}[case]
    form = mixed_sign_form(case)
    assert {c > 0 for comp in form.components for _, c in comp.terms()} == {False, True}
    want = pullback_oracle(form, vec, 4)
    assert pullback(form, vec, nq=4) == want and not want.is_zero()
    # a term off its coset's norm class mod 1 meets no coset vector
    off = next(c.index for c in form.lattice.cosets if c.norm_mod1)
    comps = list(form.components)
    comps[off] = comps[off] + QSeries.monomial(1, 7, comps[off].truncation)
    assert pullback(ComponentForm(form.lattice, form.weight, tuple(comps)), vec, nq=4) == want
    # 2^200 takes the numerators to several limbs
    assert pullback(2**200 * form, vec, nq=4) == 2**200 * want
    # at a limit of total + 1 the limbs are one bit wide; at total none is left
    total = coset_vector_total(case, vec, 4)
    monkeypatch.setattr(weil_module, "_LIMB_LIMIT", total + 1)
    assert pullback(form, vec, nq=4) == want
    monkeypatch.setattr(weil_module, "_LIMB_LIMIT", total)
    with pytest.raises(ValueError, match="2\\^62"):
        pullback(form, vec, nq=4)


def test_pullback_along_a_long_vector_matches_the_pair_loop_oracle():
    # the dense count table has one column per distinct pairing, not 2 max |r| + 1
    # (about 4 * 10^9 here), so a long vector costs no more memory than a short one
    form = jacobi_eisenstein("D8", 8, 0, prec=3)
    vec = (10**9, 2, 3, 4, 1, 3, 2, 4)
    want = pullback_oracle(form, vec, 2)
    assert pullback(form, vec, nq=2) == want and len(want.nums) == 119


def test_pullback_support_bound(generator_pullback_forms):
    for (case, name), phi in generator_pullback_forms.items():
        for (n, r) in phi.coeffs:
            assert 4 * n * phi.index - r * r >= 0


# ---------------------------------------------------------------------------
# JacobiForm arithmetic


def test_jacobi_scalar_and_add():
    a = JacobiForm(4, 1, {(0, 0): Fraction(1), (1, 1): Fraction(2)}, 3)
    b = JacobiForm(4, 1, {(1, 1): Fraction(-2)}, 3)
    assert (a + b).coeffs == {(0, 0): Fraction(1)}
    assert (3 * a).coefficient(1, 1) == 6


def test_jacobi_multiplication_grades():
    a = JacobiForm(4, 1, {(0, 0): Fraction(1), (1, 1): Fraction(2)}, 4)
    b = JacobiForm(6, 2, {(0, 0): Fraction(1), (1, -1): Fraction(5)}, 4)
    p = a * b
    assert p.weight == 10 and p.index == 3
    assert p.coefficient(1, 1) == 2
    assert p.coefficient(2, 0) == 10


def random_jacobi_table(rng, index, nq):
    """Random rational coefficients inside the support cone, mixed denominators."""
    coeffs = {}
    for n in range(nq + 1):
        rmax = isqrt(4 * n * index)
        for r in range(-rmax, rmax + 1):
            if rng.random() < 0.5:
                coeffs[(n, r)] = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 4, 6, 9, 2**70 + 1]))
    return coeffs


def pair_loop(a, b, nq):
    """The Fraction convolution of two coefficient tables, truncated at nq."""
    out = {}
    for (n1, r1), c1 in a.items():
        for (n2, r2), c2 in b.items():
            if n1 + n2 <= nq:
                key = (n1 + n2, r1 + r2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def test_jacobi_arithmetic_matches_a_fraction_pair_loop():
    rng = random.Random(10)
    for _ in range(20):
        nq_a, nq_b = rng.randint(1, 5), rng.randint(1, 5)
        ta, tb = random_jacobi_table(rng, 2, nq_a), random_jacobi_table(rng, 2, nq_b)
        tc = random_jacobi_table(rng, 3, nq_b)
        a, b, c = JacobiForm(6, 2, ta, nq_a), JacobiForm(6, 2, tb, nq_b), JacobiForm(4, 3, tc, nq_b)
        nq = min(nq_a, nq_b)
        total = {k: ta.get(k, 0) + tb.get(k, 0) for k in set(ta) | set(tb) if k[0] <= nq}
        assert (a + b).coeffs == {k: v for k, v in total.items() if v}
        assert (a + b).nq == nq
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        assert (t * a).coeffs == {k: t * v for k, v in ta.items() if t * v}
        assert (a * t) == (t * a)
        product = a * c
        assert (product.weight, product.index, product.nq) == (10, 5, nq)
        assert product.coeffs == pair_loop(ta, tc, nq)
        # an index-0 factor is a scalar form on r = 0; the zero form has no terms
        ts = random_jacobi_table(rng, 0, nq_a)
        scaled = JacobiForm(4, 0, ts, nq_a) * c
        assert (scaled.weight, scaled.index, scaled.nq) == (8, 3, nq)
        assert scaled.coeffs == pair_loop(ts, tc, nq)
        zero = JacobiForm(4, 3, {}, nq_b)
        assert (a * zero).coeffs == pair_loop(ta, {}, nq) == {}
        assert (zero * a).nq == nq
