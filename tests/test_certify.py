"""Monomial enumeration, exact rank machinery, and certification drivers."""

import json
from fractions import Fraction

import pytest

from omfree.certify import (
    CASE_VECTORS,
    GeneratorSpec,
    bareiss_rank,
    canonical_index_set,
    case_generators,
    case_level,
    certify_freeness,
    express_in_basis,
    independence,
    left_kernel,
    monomials,
    verify_weight14,
)
from omfree.lifts import ParamodularForm, gritsenko_lift, multiply
from omfree.weil import jacobi_eisenstein, pullback

D8_WEIGHTS = [4, 6, 8, 8, 10, 10, 12, 12, 14, 16, 18]


# ---------------------------------------------------------------------------
# monomials


def test_monomials_weight_14_count():
    assert len([m for m in monomials(D8_WEIGHTS, 14) if sum(m)]) == 6


def test_monomials_weight_4():
    monos = [m for m in monomials(D8_WEIGHTS, 4) if sum(m)]
    assert monos == [(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]


def test_monomials_weight_1_empty():
    assert [m for m in monomials(D8_WEIGHTS, 1) if sum(m)] == []


def test_monomials_deterministic_order():
    assert monomials([4, 6], 12) == monomials([4, 6], 12)
    assert monomials([4, 6], 12) == [(0, 2), (3, 0)]


# ---------------------------------------------------------------------------
# exact linear algebra


def test_bareiss_rank_known_matrices():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 2], [3, 4]]) == 2
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[2, 0, 1], [0, 3, 1], [2, 3, 2]]) == 2


def test_bareiss_rank_big_entries():
    rows = [[10**30, 1, 0], [0, 10**30, 1], [10**30, 10**30 + 1, 1]]
    assert bareiss_rank(rows) == 2


def test_left_kernel_duplicate_rows():
    rows = [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]]
    assert left_kernel(rows) == [[Fraction(1), Fraction(-1)]]


def test_left_kernel_full_rank():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert left_kernel(rows) == []


# ---------------------------------------------------------------------------
# express_in_basis


@pytest.fixture(scope="module")
def small_lifts():
    nq = nxi = 2
    prec = nq * nxi + 1
    v = CASE_VECTORS["D8"]

    def lift(k, orbit):
        form = jacobi_eisenstein("D8", k, orbit, prec=prec)
        return gritsenko_lift(pullback(form, v, nq=nq * nxi), nxi)

    return {
        (4, 0): lift(4, 0),
        (6, 0): lift(6, 0),
        (8, 0): lift(8, 0),
        (8, 1): lift(8, 1),
    }


def test_express_unit_vector(small_lifts):
    e8_0, e8_1 = small_lifts[(8, 0)], small_lifts[(8, 1)]
    res = express_in_basis(e8_0, [e8_0, e8_1])
    assert res.status == "unique"
    assert res.coefficients == [1, 0]


def test_express_zero_target(small_lifts):
    e8_0 = small_lifts[(8, 0)]
    zero = ParamodularForm(8, e8_0.level, {}, e8_0.nq, e8_0.nxi)
    res = express_in_basis(zero, [e8_0])
    assert res.status == "unique"
    assert res.coefficients == [0]
    assert express_in_basis(zero, [zero]).status == "underdetermined"


def test_express_detects_inconsistency(small_lifts):
    e8_0, e8_1 = small_lifts[(8, 0)], small_lifts[(8, 1)]
    corrupted = dict(e8_0.coeffs)
    corrupted[(2, 1, 2)] = corrupted.get((2, 1, 2), Fraction(0)) + 1
    target = ParamodularForm(8, e8_0.level, corrupted, e8_0.nq, e8_0.nxi)
    res = express_in_basis(target, [e8_0, e8_1])
    assert res.status == "inconsistent"
    assert res.witness is not None


def test_express_weight_mismatch(small_lifts):
    with pytest.raises(ValueError):
        express_in_basis(small_lifts[(4, 0)], [small_lifts[(6, 0)]])


def test_canonical_index_set_is_lexicographic():
    idx = canonical_index_set(24, 2, 2)
    assert idx == sorted(idx)
    assert all(4 * n * m * 24 - r * r >= 0 for (n, r, m) in idx)


# ---------------------------------------------------------------------------
# independence


def test_independence_single_form(small_lifts):
    e4 = small_lifts[(4, 0)]
    gen = GeneratorSpec("E4", 4, "fixed", lambda nq, nxi: e4)
    cert = independence([gen], 4, schedule=((2, 2),))
    rec = next(r for r in cert.weights if r.weight == 4)
    assert rec.rank == 1 and rec.verdict == "independent"


def test_independence_duplicate_generator_kernel(small_lifts):
    e4 = small_lifts[(4, 0)]
    gens = [
        GeneratorSpec("E4", 4, "fixed", lambda nq, nxi: e4),
        GeneratorSpec("E4-copy", 4, "fixed", lambda nq, nxi: e4),
    ]
    cert = independence(gens, 4, schedule=((2, 2),))
    rec = next(r for r in cert.weights if r.weight == 4)
    assert rec.verdict == "inconclusive"
    assert rec.rank == 1
    assert {"w": 4, "coefficients": ["1", "-1"]} in cert.relations


def test_case_generators_counts():
    assert len(case_generators("D8")) == 11
    assert len(case_generators("E6")) == 9
    assert len(case_generators("E7")) == 10
    assert [g.weight for g in case_generators("E6")] == [4, 6, 7, 10, 12, 15, 16, 18, 24]


def test_case_levels():
    assert case_level("D8") == 24
    assert case_level("E6") == 12
    assert case_level("E7") == 12


def test_certificate_json_schema(small_lifts):
    e4 = small_lifts[(4, 0)]
    gen = GeneratorSpec("E4", 4, "fixed", lambda nq, nxi: e4)
    cert = independence([gen], 4, schedule=((2, 2),))
    payload = cert.to_json()
    text = json.dumps(payload)
    assert set(payload) == {
        "case", "generators", "precision", "weights", "relations", "inference", "tool_version",
    }
    assert payload["precision"] == {"nq": 2, "nxi": 2}
    assert json.loads(text) == payload


# ---------------------------------------------------------------------------
# freeness consistency at desk scale


def test_certify_freeness_d8_low_weights():
    rep = certify_freeness("D8", 10, schedule=((2, 2),))
    assert rep.consistent()
    by_w = {r["w"]: r for r in rep.weights}
    assert by_w[0]["monomial_rank"] == 1
    assert by_w[8]["monomial_rank"] == 3 and by_w[8]["upper_bound"] == 3
    assert by_w[10]["monomial_rank"] == 3


def test_certify_freeness_e6_low_weights():
    rep = certify_freeness("E6", 12, schedule=((2, 2),))
    assert rep.consistent()
    by_w = {r["w"]: r for r in rep.weights}
    assert by_w[7]["monomial_rank"] == 1
    assert by_w[12]["monomial_rank"] == 3


# ---------------------------------------------------------------------------
# the weight-14 relation at reduced precision


def test_weight14_small_precision_matches():
    res = verify_weight14(nq=2, nxi=2)
    assert res.ok()
    assert res.coefficients == [1330560, 2640, -11088]


def test_weight14_corruption_breaks_relation():
    res = verify_weight14(nq=2, nxi=2, corrupt=((1, 1, 1), Fraction(1)))
    assert not res.ok()
    assert res.status in ("inconsistent", "mismatch")


def test_weight14_json():
    res = verify_weight14(nq=2, nxi=2)
    payload = res.to_json()
    assert payload["status"] == "match"
    assert payload["coefficients"] == ["1330560", "2640", "-11088"]


# ---------------------------------------------------------------------------
# precision behavior


def test_rank_monotone_in_precision():
    # computed rank never decreases when the precision schedule escalates
    gens = [g for g in case_generators("D8") if g.weight <= 12]
    ranks = {}
    for nq in (1, 2, 3):
        cert = independence(gens, 12, schedule=((nq, nq),))
        rec = next(r for r in cert.weights if r.weight == 12)
        ranks[nq] = rec.rank
    assert ranks[1] <= ranks[2] <= ranks[3]
    assert ranks[3] == 6


def test_certificates_replay_bit_for_bit():
    gens = [g for g in case_generators("D8") if g.weight <= 8]
    first = independence(gens, 8, schedule=((2, 2),)).to_json()
    second = independence(gens, 8, schedule=((2, 2),)).to_json()
    assert first == second


def test_express_solution_stable_under_precision_increase():
    low = verify_weight14(nq=2, nxi=2)
    high = verify_weight14(nq=3, nxi=3)
    assert low.coefficients == high.coefficients


def test_express_underdetermined(small_lifts):
    e8_0 = small_lifts[(8, 0)]
    res = express_in_basis(e8_0, [e8_0, e8_0])
    assert res.status == "underdetermined"


# ---------------------------------------------------------------------------
# stretch: the full desk-scale independence range for D8, weights < 20


def test_d8_independence_stretch_below_20():
    rep = certify_freeness("D8", 19, schedule=((4, 4),))
    assert rep.certificate.all_independent()
    assert rep.consistent()
    by_w = {r["w"]: r for r in rep.weights}
    # including the boundary slice at weight 16 where an index-4 monomial
    # of the weak Jacobi ring enters the count
    assert by_w[16]["monomial_rank"] == 12 and by_w[16]["upper_bound"] == 12
    assert by_w[18]["monomial_rank"] == 14 and by_w[18]["upper_bound"] == 14


# ---------------------------------------------------------------------------
# non-generator Eisenstein series expressed through the generators


def _case_lift(case, k, nq, nxi):
    form = jacobi_eisenstein(case, k, 0, prec=nq * nxi + 1)
    return gritsenko_lift(pullback(form, CASE_VECTORS[case], nq=nq * nxi), nxi)


def test_e7_weight8_eisenstein_in_generators():
    nq = nxi = 3
    e4 = _case_lift("E7", 4, nq, nxi)
    e8 = _case_lift("E7", 8, nq, nxi)
    res = express_in_basis(e8, [multiply(e4, e4)])
    assert res.status == "unique"
    assert res.coefficients == [120]


def test_e6_weight8_eisenstein_in_generators():
    nq = nxi = 3
    e4 = _case_lift("E6", 4, nq, nxi)
    e8 = _case_lift("E6", 8, nq, nxi)
    res = express_in_basis(e8, [multiply(e4, e4)])
    assert res.status == "unique"
    # the boundary slices force the same scalar as in the E7 tower:
    # (-B8/16) / (-B4/8)^2 = 120
    assert res.coefficients == [120]


def test_e6_weight14_eisenstein_in_generators():
    nq = nxi = 3
    e4 = _case_lift("E6", 4, nq, nxi)
    e6 = _case_lift("E6", 6, nq, nxi)
    e10 = _case_lift("E6", 10, nq, nxi)
    e14 = _case_lift("E6", 14, nq, nxi)
    m7 = [g for g in case_generators("E6") if g.name == "M7"][0].build(nq, nxi)
    basis = [multiply(e4, e10), multiply(m7, m7), multiply(multiply(e4, e4), e6)]
    res = express_in_basis(e14, basis)
    assert res.status == "unique"
    # frozen exact solution under this package's normalizations (the odd
    # weight-7 form is only canonical up to scalar, hence the denominators)
    assert res.coefficients == [
        Fraction(5665968, 1847),
        Fraction(-39916800, 1847),
        Fraction(-361912320, 1847),
    ]


def test_e7_weight20_eisenstein_in_generators():
    def solve(nq, nxi):
        l = {k: _case_lift("E7", k, nq, nxi) for k in (4, 6, 10, 12, 14, 16, 20)}
        basis = [
            multiply(l[4], l[16]),
            multiply(l[6], l[14]),
            multiply(l[10], l[10]),
            multiply(multiply(l[4], l[4]), l[12]),
            multiply(multiply(l[4], l[6]), l[10]),
            multiply(multiply(l[4], l[4]), multiply(l[6], l[6])),
            multiply(multiply(l[4], l[4]), multiply(l[4], multiply(l[4], l[4]))),
        ]
        return express_in_basis(l[20], basis)

    low = solve(2, 2)
    high = solve(3, 3)
    assert low.status == "unique" and high.status == "unique"
    assert low.coefficients == high.coefficients
    assert any(c != 0 for c in high.coefficients)
