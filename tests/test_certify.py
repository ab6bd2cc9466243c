"""Monomial enumeration, exact rank machinery, and certification drivers."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from omfree import certify, lifts, weil
from omfree.certify import (
    CASES,
    SAMPLE_POINTS,
    GeneratorRow,
    IndependenceCertificate,
    bareiss_rank,
    certify_freeness,
    eisenstein_row,
    express_in_basis,
    independence,
    left_kernel,
    monomial_table,
    monomials,
    verify_weight14,
    _MonomialCache,
)
from omfree.cli import build_parser
from omfree.freealg import dim_upper_bound, orthogonal_weights
from omfree.lattice import lattice, norm
from omfree.lifts import ParamodularForm, evaluation_width, gritsenko_lift, multiply, multiply_values
from omfree.linalg import MODULUS, _rank_mod_p
from omfree.weil import JacobiForm
from oracles import canonical_index_set, evaluate, monomials_recursive

D8_WEIGHTS = [4, 6, 8, 8, 10, 10, 12, 12, 14, 16, 18]
D8_VEC = CASES["D8"].vector


def case_rows(case, w_max):
    """The case's generator rows of weight <= w_max."""
    return [row for row in CASES[case].generators if row.weight <= w_max]


def fixed_row(name, phi):
    """A row whose Jacobi input is ``phi`` along every vector and at every truncation."""
    return GeneratorRow(name, phi.weight, "fixed", lambda v, nq: phi)


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


@pytest.mark.parametrize("case", ["D8", "E6", "E7"])
def test_monomial_table_matches_the_recursion(case):
    # the suffix table lists every weight <= 60 in the order of the depth-first recursion
    weights = [row.weight for row in CASES[case].generators]
    table = monomial_table(weights, 60)
    assert len(table) == 61
    for w, monos in enumerate(table):
        assert monos == monomials_recursive(weights, w), (case, w)
        assert monomials(weights, w) == monos


def test_monomials_edge_weights():
    assert monomials([4, 6], -1) == [] and monomial_table([4, 6], -1) == []
    assert monomials([], 0) == [()] and monomials([], 3) == []
    assert monomials([4, 6], 0) == [(0, 0)]
    with pytest.raises(ValueError):
        monomials([4, 0], 8)


# ---------------------------------------------------------------------------
# exact linear algebra


def test_bareiss_rank_known_matrices():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 2], [3, 4]]) == 2
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[2, 0, 1], [0, 3, 1], [2, 3, 2]]) == 2
    # regular over Q but singular mod the certificate's prime: the exact rank
    p = MODULUS
    for rows in ([[p, 0], [0, 1]], [[1, 1], [1, 1 + p]], [[p, 2 * p], [-3 * p, 5 * p]]):
        assert _rank_mod_p(rows) < 2 and bareiss_rank(rows) == 2
    # negative entries beyond 2^64, with zero, duplicate and combined rows
    a, b = [3, -(2**64) - 5, 2**70], [-7, 2**65, -1]
    assert bareiss_rank([a, b]) == 2
    assert bareiss_rank([a, [0, 0, 0], a, [x + 5 * y for x, y in zip(a, b)], b]) == 2
    assert bareiss_rank([[2**65, -(2**64)], [-(2**66), 2**65]]) == 1


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
    keys = ((4, 0), (6, 0), (8, 0), (8, 1))
    return {(k, orbit): eisenstein_row("D8", k, orbit).lift(D8_VEC, 2, 2) for k, orbit in keys}


@pytest.fixture(scope="module")
def e4_input():
    """The Jacobi input of the D8 E4 lift at (2, 2): its pullback to O(q^5)."""
    return eisenstein_row("D8", 4, 0).jacobi(D8_VEC, 4)


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


def test_express_reads_out_of_cone_coefficients(small_lifts):
    # 4 n M level - r^2 = 96 - 400 < 0 at (1, 20, 1): no lift has such a
    # coefficient, and a solve that only looked inside the cone missed it
    e8_0, e8_1 = small_lifts[(8, 0)], small_lifts[(8, 1)]
    assert e8_0.level == 24 and (1, 20, 1) not in e8_0.nums
    target = e8_0 + ParamodularForm(8, 24, {(1, 20, 1): 1}, e8_0.nq, e8_0.nxi)
    res = express_in_basis(target, [e8_0, e8_1])
    assert res.status == "inconsistent"
    assert res.witness == (1, 20, 1)


def test_express_weight_mismatch(small_lifts):
    with pytest.raises(ValueError, match="basis forms must match the target's weight and level"):
        express_in_basis(small_lifts[(4, 0)], [small_lifts[(6, 0)]])


def test_canonical_index_set_is_lexicographic():
    idx = canonical_index_set(24, 2, 2)
    assert idx == sorted(idx)
    assert all(4 * n * m * 24 - r * r >= 0 for (n, r, m) in idx)


# ---------------------------------------------------------------------------
# independence


def test_independence_single_form(e4_input):
    cert = independence([fixed_row("E4", e4_input)], D8_VEC, 4, schedule=((2, 2),))
    rec = next(r for r in cert.weights if r.weight == 4)
    assert rec.rank == 1 and rec.verdict == "independent"


def test_independence_duplicate_generator_kernel(e4_input):
    rows = [fixed_row("E4", e4_input), fixed_row("E4-copy", e4_input)]
    cert = independence(rows, D8_VEC, 4, schedule=((2, 2),))
    rec = next(r for r in cert.weights if r.weight == 4)
    assert rec.verdict == "inconclusive"
    assert rec.rank == 1
    assert {"w": 4, "coefficients": ["1", "-1"]} in cert.relations


def test_independence_relation_on_rational_rows(small_lifts, e4_input):
    # A and B = A/7 share their numerators, so a kernel taken on numerator
    # rows would report B - A = 0 instead of 7 B - A = 0 (monomial (0, 1),
    # that is B, comes first)
    e4 = small_lifts[(4, 0)]
    seventh = Fraction(1, 7) * e4
    assert seventh.nums == e4.nums and seventh.den == 7 * e4.den
    rows = [fixed_row("E4", e4_input), fixed_row("E4/7", Fraction(1, 7) * e4_input)]
    assert rows[1].lift(D8_VEC, 2, 2) == seventh
    cert = independence(rows, D8_VEC, 4, schedule=((2, 2),))
    rec = next(r for r in cert.weights if r.weight == 4)
    assert rec.verdict == "inconclusive" and rec.rank == 1
    assert cert.relations == [{"w": 4, "coefficients": ["7", "-1"]}]


def test_independence_falls_back_on_a_residue_deficit(small_lifts, e4_input):
    # every numerator of p E4 is 0 mod p and its denominator is prime to p:
    # the residue rows vanish, so only the exact rank can certify it
    scaled = MODULUS * small_lifts[(4, 0)]
    assert scaled.den % MODULUS and all(c % MODULUS == 0 for c in scaled.nums.values())
    assert not evaluate(scaled).any()
    row = fixed_row("pE4", MODULUS * e4_input)
    assert row.lift(D8_VEC, 2, 2) == scaled
    cert = independence([row], D8_VEC, 8, schedule=((2, 2),))
    ranks = {rec.weight: (rec.rank, rec.verdict) for rec in cert.weights}
    assert ranks[4] == ranks[8] == (1, "independent")
    assert cert.relations == []


def test_full_rank_certificate_builds_no_exact_lift(monkeypatch):
    # E7 to weight 30 at (5, 5) is full rank on the sample at every weight:
    # each generator is pulled back once, one count table serves all ten
    # pullbacks, and nothing exact is lifted, multiplied or ranked
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in [
        (certify, "gritsenko_lift"),
        (certify, "multiply"),
        (lifts, "multiply"),
        (certify, "bareiss_rank"),
        (certify, "pullback"),
        (weil, "pairing_counts"),
    ]:
        count(module, name)
    weil._coset_counts.cache_clear()
    try:
        report = certify_freeness("E7", 30, ((5, 5),))
    finally:
        weil._coset_counts.cache_clear()
    assert report.consistent()
    assert dict(calls) == {"pullback": 10, "pairing_counts": 2}


@pytest.mark.parametrize(
    "schedule,want",
    [
        (
            ((2, 2), (4, 4)),
            dict(pullback=22, lift_values=33, multiply_values=105),
        ),
        (
            ((2, 2),),
            dict(pullback=11, lift_values=22, multiply_values=70, gritsenko_lift=11, multiply=35, left_kernel=2),
        ),
    ],
    ids=["escalated", "final"],
)
def test_exact_fallback_builds_each_lift_and_product_once(monkeypatch, schedule, want):
    # D8 to weight 18 is deficient on the sample at (2, 2), and weights 16 and
    # 18 stay deficient on all W points: each schedule step pulls every row
    # back once and evaluates it at K and at W points.  A step that is not
    # the last escalates those weights with nothing exact; the last one lifts
    # each generator and multiplies each monomial once, however many weights
    # read them, and eliminates once per deficient weight
    calls = Counter()

    def count(name):
        real = getattr(certify, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(certify, name, counted)

    for name in ("pullback", "lift_values", "multiply_values", "gritsenko_lift", "multiply", "bareiss_rank", "left_kernel"):
        count(name)
    cert = independence(case_rows("D8", 18), D8_VEC, 18, schedule)
    assert dict(calls) == want
    assert cert.precision == schedule[-1]
    assert len(cert.relations) == (5 if len(schedule) == 1 else 0)


def test_escalation_runs_no_exact_elimination(monkeypatch):
    # E7 at weights 36 and 38 is short at full width at (4, 4) and full at
    # (6, 6): the escalation is decided by residues alone
    for name in ("gritsenko_lift", "multiply", "bareiss_rank", "left_kernel"):
        monkeypatch.setattr(certify, name, lambda *args, name=name, **kwargs: pytest.fail(f"{name} called"))
    report = certify_freeness("E7", 36)
    assert report.precision == (6, 6) and report.consistent()


@pytest.mark.parametrize(
    "run",
    [lambda: independence(case_rows("D8", 8), D8_VEC, 8, schedule=()), lambda: certify_freeness("D8", 8, ())],
    ids=["independence", "certify_freeness"],
)
def test_empty_schedule_is_a_value_error(monkeypatch, run):
    pulled = []
    monkeypatch.setattr(certify, "pullback", lambda *args, **kwargs: pulled.append(args))
    with pytest.raises(ValueError, match="schedule is empty"):
        run()
    assert pulled == []


def test_independence_rejects_rows_of_different_index():
    rows = [
        fixed_row("E4", JacobiForm(4, 1, {(0, 0): Fraction(1)}, 8)),
        fixed_row("E6", JacobiForm(6, 2, {(0, 0): Fraction(1)}, 8)),
    ]
    with pytest.raises(ValueError, match="^level mismatch: 1 vs 2$"):
        independence(rows, D8_VEC, 6, schedule=((2, 2),))


@pytest.mark.parametrize("case", ["D8", "E6", "E7"])
def test_residue_ranks_equal_exact_ranks(case):
    # independence decides most weights from residue rows; the exact rank of
    # the numerator rows, built here from plain products, must agree
    nq = nxi = 2
    rows, v = case_rows(case, 16), CASES[case].vector
    lifts = [row.lift(v, nq, nxi) for row in rows]
    index_set = canonical_index_set(lifts[0].level, nq, nxi)
    cert = independence(rows, v, 16, schedule=((nq, nxi),))
    for rec in cert.weights:
        if rec.verdict == "trivial":
            continue
        forms = [reduce(multiply, [f for f, e in zip(lifts, expo) for _ in range(e)]) for expo in rec.monomials]
        rows = [[f.nums.get(key, 0) for key in index_set] for f in forms]
        assert rec.matrix_shape == (len(rows), len(index_set))
        assert rec.rank == bareiss_rank(rows), rec.weight


CASE_WMAX = {"D8": 18, "E6": 24, "E7": 30}


@pytest.mark.parametrize("nq", [4, 5])
@pytest.mark.parametrize("case", sorted(CASE_WMAX))
def test_sampled_residue_rank_is_the_full_residue_rank(case, nq):
    # the sample is a column subset of the full evaluation, so it can only lose
    # rank; on the case rows it must lose none, or a full-rank weight would pay
    # for a second ranking at full width, which must agree with the oracle's
    wmax = CASE_WMAX[case]
    gens = case_rows(case, wmax)
    cache = _MonomialCache(gens, CASES[case].vector, nq, nq)
    width = evaluation_width(cache.level, nq, nq)
    assert width > SAMPLE_POINTS
    full = {}

    def full_values(expo):
        if expo not in full:
            i = next(j for j, e in enumerate(expo) if e)
            leaf = evaluate(gritsenko_lift(cache.inputs[i], nq))
            reduced = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
            full[expo] = multiply_values(full_values(reduced), leaf) if sum(reduced) else leaf
        return full[expo]

    for w in range(1, wmax + 1):
        monos = [m for m in monomials([g.weight for g in gens], w) if sum(m) > 0]
        if not monos:
            continue
        sampled = cache.residue_rows(monos, SAMPLE_POINTS)
        assert sampled.shape == (len(monos), (nq + 1) ** 2 * SAMPLE_POINTS)
        full_width = cache.residue_rows(monos, width)
        assert full_width.shape == (len(monos), (nq + 1) ** 2 * width)
        rows = np.array([full_values(m).reshape(-1) for m in monos])
        assert _rank_mod_p(sampled) == _rank_mod_p(full_width) == _rank_mod_p(rows), (case, nq, w)


def count_exact_calls(monkeypatch):
    """Wrap certify's two exact eliminations; the list records each call's name and row count."""
    calls = []

    def counting(name, real):
        def counted(rows):
            calls.append((name, len(rows)))
            return real(rows)

        return counted

    for name in ("bareiss_rank", "left_kernel"):
        monkeypatch.setattr(certify, name, counting(name, getattr(certify, name)))
    return calls


SAMPLE_CASES = ("E7", "E6", "D8")


def test_one_sample_point_makes_the_same_exact_calls(monkeypatch):
    # with one point nearly every weight is deficient on the sample, and the
    # full width decides it: the certificates are the same byte for byte, and
    # the only exact elimination is the one that names D8's weight-16 relations
    calls = count_exact_calls(monkeypatch)
    want = {case: json.dumps(certify_freeness(case, 16, schedule=((2, 2),)).to_json()) for case in SAMPLE_CASES}
    assert calls == [("left_kernel", 12)]
    monkeypatch.setattr(certify, "SAMPLE_POINTS", 1)
    for case in SAMPLE_CASES:
        assert json.dumps(certify_freeness(case, 16, schedule=((2, 2),)).to_json()) == want[case], case
    assert calls == [("left_kernel", 12)] * 2


def test_residue_deficits_fall_back_to_the_left_kernel(monkeypatch):
    # a residue rank that says nothing sends every weight to the last step's
    # exact elimination, which must give the same certificate byte for byte
    calls = count_exact_calls(monkeypatch)
    want = {case: json.dumps(certify_freeness(case, 16, schedule=((2, 2),)).to_json()) for case in SAMPLE_CASES}
    monkeypatch.setattr(certify, "_rank_mod_p", lambda rows: 0)
    del calls[:]
    weights = 0
    for case in SAMPLE_CASES:
        report = certify_freeness(case, 16, schedule=((2, 2),))
        assert json.dumps(report.to_json()) == want[case], case
        weights += sum(rec.verdict != "trivial" for rec in report.certificate.weights)
    assert [name for name, _ in calls] == ["left_kernel"] * weights


def test_case_generators_counts():
    # every row lifts exactly the generators of its bound system's free algebra
    for c in CASES.values():
        assert [row.weight for row in c.generators] == orthogonal_weights(c.bound_system)


@pytest.mark.parametrize(
    "case,i", [(name, i) for name, row in CASES.items() for i in range(len(row.generators))]
)
def test_row_jacobi_input_contract(case, i):
    # a row's recipe is (v, nq) -> the JacobiForm it lifts: its weight, index Q(v), truncation nq
    c = CASES[case]
    row = c.generators[i]
    phi = row.jacobi(c.vector, 2)
    assert (phi.weight, phi.index, phi.nq) == (row.weight, norm(lattice(c.lattice), c.vector), 2)
    phi.check_support()
    phi.check_r_symmetry()
    phi.check_elliptic_law()
    assert row.lift(c.vector, 1, 1) == gritsenko_lift(row.jacobi(c.vector, 1), 1)


def test_eisenstein_rows_call_jacobi_eisenstein_through_the_module(monkeypatch):
    # a wrapper installed on certify.jacobi_eisenstein after import sees every E7 generator's input
    calls = []

    def recording(*args, real=certify.jacobi_eisenstein):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certify, "jacobi_eisenstein", recording)
    c = CASES["E7"]
    for row in c.generators:
        row.lift(c.vector, 1, 1)
    assert calls == [("E7", row.weight, 0, 2) for row in c.generators]


def test_case_levels():
    levels = {name: norm(lattice(row.lattice), row.vector) for name, row in CASES.items()}
    assert levels == {"D8": 24, "E6": 12, "E7": 12}


# The generators list of the certify --json payload, frozen so that a change
# of a name, weight or recipe text shows here and not only in the output.
FROZEN_GENERATORS = {
    "D8": [
        ("E4", 4, "lift of pullback of weight-4 orbit-0 Eisenstein data"),
        ("E6", 6, "lift of pullback of weight-6 orbit-0 Eisenstein data"),
        ("E8,0", 8, "lift of pullback of weight-8 orbit-0 Eisenstein data"),
        ("E8,1", 8, "lift of pullback of weight-8 orbit-1 Eisenstein data"),
        ("E10,0", 10, "lift of pullback of weight-10 orbit-0 Eisenstein data"),
        ("E10,1", 10, "lift of pullback of weight-10 orbit-1 Eisenstein data"),
        ("E12,0", 12, "lift of pullback of weight-12 orbit-0 Eisenstein data"),
        ("E12,1", 12, "lift of pullback of weight-12 orbit-1 Eisenstein data"),
        ("E14,0", 14, "lift of pullback of weight-14 orbit-0 Eisenstein data"),
        ("E16,0", 16, "lift of pullback of weight-16 orbit-0 Eisenstein data"),
        ("E18,0", 18, "lift of pullback of weight-18 orbit-0 Eisenstein data"),
    ],
    "E6": [
        ("E4", 4, "lift of pullback of weight-4 Eisenstein data"),
        ("E6", 6, "lift of pullback of weight-6 Eisenstein data"),
        ("M7", 7, "lift of pullback of the odd weight-7 form (constant input)"),
        ("E10", 10, "lift of pullback of weight-10 Eisenstein data"),
        ("E12", 12, "lift of pullback of weight-12 Eisenstein data"),
        ("M15", 15, "lift of pullback of the odd weight-15 form (E4^2 input)"),
        ("E16", 16, "lift of pullback of weight-16 Eisenstein data"),
        ("E18", 18, "lift of pullback of weight-18 Eisenstein data"),
        ("E24", 24, "lift of pullback of weight-24 Eisenstein data"),
    ],
    "E7": [
        ("E4", 4, "lift of pullback of weight-4 Eisenstein data"),
        ("E6", 6, "lift of pullback of weight-6 Eisenstein data"),
        ("E10", 10, "lift of pullback of weight-10 Eisenstein data"),
        ("E12", 12, "lift of pullback of weight-12 Eisenstein data"),
        ("E14", 14, "lift of pullback of weight-14 Eisenstein data"),
        ("E16", 16, "lift of pullback of weight-16 Eisenstein data"),
        ("E18", 18, "lift of pullback of weight-18 Eisenstein data"),
        ("E22", 22, "lift of pullback of weight-22 Eisenstein data"),
        ("E24", 24, "lift of pullback of weight-24 Eisenstein data"),
        ("E30", 30, "lift of pullback of weight-30 Eisenstein data"),
    ],
}


def test_certificate_generators_are_frozen():
    for name, expected in FROZEN_GENERATORS.items():
        cert = IndependenceCertificate(name, list(CASES[name].generators), (0, 0), [], [])
        assert cert.to_json()["generators"] == [
            {"name": g, "weight": w, "recipe": recipe} for g, w, recipe in expected
        ]
    assert sorted(FROZEN_GENERATORS) == sorted(CASES)


def test_cli_case_choices_are_the_table():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    for command in ("eisenstein", "pullback", "lift", "certify"):
        case = next(a for a in commands[command]._actions if a.dest == "case")
        assert case.choices == sorted(CASES)


def test_certificate_json_schema(e4_input):
    cert = independence([fixed_row("E4", e4_input)], D8_VEC, 4, schedule=((2, 2),))
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


def test_weight14_corruption_breaks_relation(perturbed_d8_weight8_input):
    res = verify_weight14(nq=2, nxi=2)
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
    rows = case_rows("D8", 12)
    ranks = {}
    for nq in (1, 2, 3):
        cert = independence(rows, D8_VEC, 12, schedule=((nq, nq),))
        rec = next(r for r in cert.weights if r.weight == 12)
        ranks[nq] = rec.rank
    assert ranks[1] <= ranks[2] <= ranks[3]
    assert ranks[3] == 6


def test_certificates_replay_bit_for_bit():
    rows = case_rows("D8", 8)
    first = independence(rows, D8_VEC, 8, schedule=((2, 2),)).to_json()
    second = independence(rows, D8_VEC, 8, schedule=((2, 2),)).to_json()
    assert first == second


def test_monomials_are_enumerated_once_per_weight(monkeypatch):
    # weights 16 and 18 are deficient at (2, 2) and escalate to (4, 4); every weight
    # comes from one table, built once for both steps
    calls = []

    def counted(weights, w_max):
        calls.append(w_max)
        return monomial_table(weights, w_max)

    monkeypatch.setattr(certify, "monomial_table", counted)
    cert = independence(case_rows("D8", 18), D8_VEC, 18, schedule=((2, 2), (4, 4)))
    assert cert.precision == (4, 4)
    assert calls == [18]
    # sha256 of the certificate, recorded when each step enumerated its weights again
    payload = json.dumps(cert.to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "e423f24acd35102cbd9c1e98fadf4eaaac02951fb05d11acbe00eb58eca44434"
    )


def test_certificate_along_a_vector_that_is_not_the_case_vector():
    # the D8 rows without E8,1 along a C7 vector certify the C7 bound; every
    # lift is taken along the given vector, so the matrices have the width of
    # level 16, not of the case vector's 24
    rows = [row for row in CASES["D8"].generators if row.name != "E8,1"]
    v = (0, 2, 3, 4, 1, 3, 2, 4)
    assert norm(lattice("D8"), v) == 16
    cert = independence(rows, v, 18, schedule=((4, 4), (6, 6)))
    assert cert.precision == (4, 4)
    width = len(canonical_index_set(16, 4, 4))
    assert all(rec.matrix_shape[1] == width for rec in cert.weights if rec.monomials)
    ranks = {rec.weight: rec.rank for rec in cert.weights if rec.weight >= 1}
    assert ranks == {w: dim_upper_bound("C7", w) for w in range(1, 19)}


def test_certificate_with_no_rows_lifts_nothing():
    # every weight is trivial, so no step reads a lift's level for the width
    cert = independence([], D8_VEC, 4)
    assert [(rec.weight, rec.verdict, rec.matrix_shape) for rec in cert.weights] == [
        (w, "trivial", (0, 0)) for w in range(5)
    ]
    assert cert.generators == [] and cert.relations == []


def test_level_one_certificate_along_a_root():
    # along a root the lifts have level 1 and four rows give Igusa's ring, the
    # A1 bound; at (3, 3) weight 40 has rank 20 against 21, so it escalates,
    # and each record reports the index count of the box that settled it
    rows = [row for row in CASES["D8"].generators if row.name in ("E4", "E6", "E10,0", "E12,0")]
    v = (1, 0, 0, 0, 0, 0, 0, 0)
    assert norm(lattice("D8"), v) == 1
    cert = independence(rows, v, 40, schedule=((3, 3), (4, 4)))
    assert cert.precision == (4, 4)
    ranks = {rec.weight: rec.rank for rec in cert.weights if rec.weight >= 1}
    assert ranks == {w: dim_upper_bound("A1", w) for w in range(1, 41)}
    low, high = len(canonical_index_set(1, 3, 3)), len(canonical_index_set(1, 4, 4))
    assert (low, high) == (76, 161)
    widths = {rec.weight: rec.matrix_shape[1] for rec in cert.weights if rec.monomials}
    assert widths == {w: high if w == 40 else low for w in widths}


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
    return eisenstein_row(case, k).lift(CASES[case].vector, nq, nxi)


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
    m7 = next(row for row in CASES["E6"].generators if row.name == "M7").lift(CASES["E6"].vector, nq, nxi)
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
