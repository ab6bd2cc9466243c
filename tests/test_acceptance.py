"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to stream the lines.  The
heavy D8 computations come first so that later criteria reuse the cached
lattice-point counts.
"""

import random
import time
from fractions import Fraction
from math import isqrt

from omfree import certify, freealg
from omfree.classical import (
    ScalarForm,
    gamma0_2_eisenstein_basis,
    hurwitz_class_number,
    hurwitz_oracle,
    sl2_monomial_basis,
    slash_level2,
    weight2_level2,
)
from omfree.lattice import lattice, norm
from omfree.lifts import gritsenko_lift, multiply
from omfree.qseries import QSeries
from omfree.weil import JacobiForm, d8_invariant_from_gamma02, jacobi_eisenstein, pullback


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 1: the weight-14 relation at (5, 5)


def test_c1_weight14_relation():
    t0 = time.time()
    result = certify.verify_weight14(nq=5, nxi=5)
    elapsed = time.time() - t0
    ok = result.ok() and result.coefficients == [1330560, 2640, -11088]
    detail = f"coefficients {result.coefficients}, {elapsed:.0f}s"
    if result.status == "proportional":
        detail += f"; normalization diagnostic: scale {result.scale}"
    assert elapsed < 900
    report("criterion 1: weight-14 relation (1330560, 2640, -11088) at (5,5)", ok, detail)


def test_c1_verify_e14_command_exit_code():
    from omfree.cli import main

    assert main(["verify-e14", "--nq", "5", "--nxi", "5", "--json"]) == 0


# ---------------------------------------------------------------------------
# Criterion 2: independence certificates at desk scale


def test_c2_d8_independence():
    t0 = time.time()
    rep = certify.certify_freeness("D8", 14, schedule=((4, 4),))
    elapsed = time.time() - t0
    cert = rep.certificate
    ok = cert.all_independent() and rep.consistent()
    assert len(certify.case_generators("D8")) == 11
    assert certify.case_level("D8") == 24
    assert elapsed < 3600
    ranks = {r.weight: r.rank for r in cert.weights if r.monomials}
    report(
        "criterion 2a: 11 D8 generator lifts at K(24), full rank at all weights <= 14",
        ok,
        f"ranks {ranks}, {elapsed:.0f}s",
    )


def test_c2_e6_independence():
    rep = certify.certify_freeness("E6", 16, schedule=((4, 4),))
    ok = rep.certificate.all_independent() and rep.consistent()
    assert len(certify.case_generators("E6")) == 9
    assert certify.case_level("E6") == 12
    report("criterion 2b: 9 E6 generator lifts at K(12), weights <= 16", ok)


def test_c2_e7_independence():
    rep = certify.certify_freeness("E7", 16, schedule=((4, 4),))
    ok = rep.certificate.all_independent() and rep.consistent()
    assert len(certify.case_generators("E7")) == 10
    assert certify.case_level("E7") == 12
    report("criterion 2c: 10 E7 generator lifts at K(12), weights <= 16", ok)


# ---------------------------------------------------------------------------
# Criterion 3: golden tables, zero tolerance

# The published generator table with the parametric rules expanded by hand.
EXPECTED_TABLES = {
    "A1": [(0, 1), (2, 1)],
    "A2": [(0, 1), (2, 1), (3, 1)],
    "A3": [(0, 1), (2, 1), (3, 1), (4, 1)],
    "A4": [(0, 1), (2, 1), (3, 1), (4, 1), (5, 1)],
    "A5": [(0, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)],
    "A6": [(0, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)],
    "A7": [(0, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1)],
    "B2": [(0, 1), (2, 1), (4, 1)],
    "B3": [(0, 1), (2, 1), (4, 1), (6, 1)],
    "B4": [(0, 1), (2, 1), (4, 1), (6, 1), (8, 1)],
    "C3": [(0, 1), (2, 1), (4, 1), (6, 2)],
    "C4": [(0, 1), (2, 1), (4, 1), (6, 2), (8, 2)],
    "C5": [(0, 1), (2, 1), (4, 1), (6, 2), (8, 2), (10, 2)],
    "C6": [(0, 1), (2, 1), (4, 1), (6, 2), (8, 2), (10, 2), (12, 2)],
    "C7": [(0, 1), (2, 1), (4, 1), (6, 2), (8, 2), (10, 2), (12, 2), (14, 2)],
    "C8": [(0, 1), (2, 1), (4, 1), (6, 2), (8, 2), (10, 2), (12, 2), (14, 2), (16, 2)],
    "D4": [(0, 1), (2, 1), (4, 1), (4, 1), (6, 2)],
    "D5": [(0, 1), (2, 1), (4, 1), (5, 1), (6, 2), (8, 2)],
    "D6": [(0, 1), (2, 1), (4, 1), (6, 1), (6, 2), (8, 2), (10, 2)],
    "D7": [(0, 1), (2, 1), (4, 1), (7, 1), (6, 2), (8, 2), (10, 2), (12, 2)],
    "D8": [(0, 1), (2, 1), (4, 1), (8, 1), (6, 2), (8, 2), (10, 2), (12, 2), (14, 2)],
    "G2": [(0, 1), (2, 1), (6, 2)],
    "F4": [(0, 1), (2, 1), (6, 2), (8, 2), (12, 3)],
    "E6": [(0, 1), (2, 1), (5, 1), (6, 2), (8, 2), (9, 2), (12, 3)],
    "E7": [(0, 1), (2, 1), (6, 2), (8, 2), (10, 2), (12, 3), (14, 3), (18, 4)],
}


def test_c3_golden_tables():
    weight_fails = [
        name
        for name in freealg.SUPPORTED_SYSTEMS
        if tuple(freealg.orthogonal_weights(name)) != freealg.GOLDEN_WEIGHTS[name]
    ]
    table_fails = [
        name for name in freealg.SUPPORTED_SYSTEMS if freealg.generator_table(name) != EXPECTED_TABLES[name]
    ]
    ok = not weight_fails and not table_fails and len(freealg.SUPPORTED_SYSTEMS) == 25
    report(
        "criterion 3: golden weight and generator tables, all 25 systems, zero tolerance",
        ok,
        f"weight mismatches {weight_fails}, table mismatches {table_fails}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: Hilbert identity through t^60


def test_c4_hilbert_identity():
    fails = []
    for name in freealg.SUPPORTED_SYSTEMS:
        equal, where, _, _ = freealg.hilbert_identity_check(name, 60)
        if not equal:
            fails.append((name, where))
    report("criterion 4: Hilbert identity through t^60, all 25 systems", not fails, f"fails {fails}")


# ---------------------------------------------------------------------------
# Criterion 5: delta values


def test_c5_delta_values():
    ok = freealg.delta("E7") == 5 and all(
        freealg.delta(name) < 12 for name in freealg.SUPPORTED_SYSTEMS
    )
    report("criterion 5: delta(E7) = 5 exactly and delta < 12 for all systems", ok)


# ---------------------------------------------------------------------------
# Criterion 6: class number oracle agreement


def test_c6_hurwitz_agreement():
    mismatches = [n for n in range(1, 201) if hurwitz_class_number(n) != hurwitz_oracle(n)]
    report(
        "criterion 6: H(1,N) formula equals brute-force class numbers, N <= 200",
        not mismatches,
        f"200/200 agree" if not mismatches else f"mismatches {mismatches[:5]}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: randomized property suites (>= 200 exact cases each)


def _random_holomorphic(rng, weight, index, nq):
    coeffs = {}
    for n in range(nq + 1):
        rmax = isqrt(4 * n * index)
        for r in range(-rmax, rmax + 1):
            if rng.random() < 0.35:
                coeffs[(n, r)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return JacobiForm(weight, index, coeffs, nq)


def test_c7a_lift_symmetry():
    rng = random.Random(101)
    cases = 0
    for _ in range(200):
        phi = _random_holomorphic(rng, rng.choice([4, 6, 8]), rng.randint(1, 4), 6)
        lift = gritsenko_lift(phi, 2)
        box = min(lift.nq, lift.nxi)
        for (n, r, m), c in lift.coeffs.items():
            if n <= box and m <= box:
                assert lift.coeffs.get((m, r, n), Fraction(0)) == c
        cases += 1
    report("criterion 7a: lift symmetry A(n,r,M) = A(M,r,n)", cases >= 200, f"{cases} random lifts")


def test_c7b_elliptic_law_on_pullbacks(generator_pullback_forms):
    rng = random.Random(102)
    forms = list(generator_pullback_forms.values())
    for phi in forms:
        phi.check_elliptic_law()
    instances = 0
    while instances < 200:
        phi = rng.choice(forms)
        if not phi.coeffs:
            continue
        (n, r) = rng.choice(sorted(phi.coeffs))
        m = phi.index
        t = rng.randint(-2, 2)
        r2 = r + 2 * m * t
        disc = 4 * n * m - r * r
        if (disc + r2 * r2) % (4 * m):
            continue
        n2 = (disc + r2 * r2) // (4 * m)
        if n2 < 0 or n2 > phi.nq:
            continue
        assert phi.coefficient(n2, r2) == phi.coefficient(n, r)
        instances += 1
    report(
        "criterion 7b: elliptic coefficient law on every pullback",
        True,
        f"{len(forms)} pullbacks fully checked + {instances} random instances",
    )


def test_c7c_product_support():
    rng = random.Random(103)
    cases = 0
    for _ in range(200):
        f = gritsenko_lift(_random_holomorphic(rng, 4, 2, 6), 3)
        g = gritsenko_lift(_random_holomorphic(rng, 6, 2, 6), 3)
        multiply(f, g).check_support()
        cases += 1
    report("criterion 7c: holomorphic support inequality on products", cases >= 200, f"{cases} products")


def test_c7d_d8_invariance():
    rng = random.Random(104)
    cases = 0
    for _ in range(200):
        k = rng.choice([0, 2, 4, 6, 8, 10, 12])
        basis = gamma0_2_eisenstein_basis(k, 8)
        series = QSeries.zero(8)
        for b in basis:
            series = series + Fraction(rng.randint(-9, 9), rng.randint(1, 3)) * b.series
        form = d8_invariant_from_gamma02(ScalarForm(Fraction(k), "Gamma0_2", series))
        assert form.component(1) == form.component(2)
        cases += 1
    report("criterion 7d: D8 invariance F01 = F10", cases >= 200, f"{cases} random level-2 inputs")


def test_c7e_weight2_identity():
    rng = random.Random(105)
    cases = 0
    for _ in range(200):
        prec = rng.randint(5, 14)
        scale = Fraction(rng.randint(1, 20), rng.randint(1, 7))
        d = weight2_level2(prec)
        scaled = ScalarForm(Fraction(2), "Gamma0_2", scale * d.series)
        total = scaled.series + slash_level2(scaled, "S") + slash_level2(scaled, "U")
        assert total.is_zero()
        cases += 1
    report("criterion 7e: weight-2 identity D + D|S + D|U = 0", cases >= 200, f"{cases} cases")


def test_c7f_trace_in_level_one_span():
    rng = random.Random(106)
    cases = 0
    for _ in range(200):
        k = rng.choice([4, 6, 8, 10, 12])
        basis = gamma0_2_eisenstein_basis(k, 9)
        series = QSeries.zero(9)
        for b in basis:
            series = series + Fraction(rng.randint(-9, 9), rng.randint(1, 3)) * b.series
        f = ScalarForm(Fraction(k), "Gamma0_2", series)
        tr = f.series + slash_level2(f, "S") + slash_level2(f, "U")
        monos = sl2_monomial_basis(k, 9)
        aug = [[mono.coefficient(n) for _, mono in monos] + [tr.coefficient(n)] for n in range(9)]
        assert _exact_solve(aug, len(monos)) is not None
        cases += 1
    report(
        "criterion 7f: f2 + f2|S + f2|U lies in the E4/E6 span, weights 4-12",
        cases >= 200,
        f"{cases} random level-2 forms",
    )


def _exact_solve(aug_rows, ncols):
    aug = [row[:] for row in aug_rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        d = aug[r][c]
        aug[r] = [x / d for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][ncols] != 0:
            return None
    return [row[ncols] for row in aug[:r]]


# ---------------------------------------------------------------------------
# Criterion 8: pullback vector norms


def test_c8_pullback_norms():
    checks = [
        ("D8", (4, 2, 3, 4, 1, 3, 2, 4), 24),
        ("E6", (3, 2, 0, 1, 1, 1), 12),
        ("E7", (3, 2, 0, 1, 1, 1, 1), 12),
    ]
    fails = [(name, v) for name, v, q in checks if norm(lattice(name), v) != q]
    report("criterion 8: pullback vector norms Q(v) = 24, 12, 12 exactly", not fails, f"fails {fails}")


# ---------------------------------------------------------------------------
# Criterion 9: negative controls


def test_c9a_corruption_breaks_relation():
    result = certify.verify_weight14(nq=5, nxi=5, corrupt=((1, 1, 1), Fraction(1)))
    ok = not result.ok() and result.status in ("inconsistent", "mismatch")
    report(
        "criterion 9a: corrupting one generator coefficient breaks the weight-14 relation",
        ok,
        f"status {result.status}",
    )


def test_c9b_duplicate_generator_kernel():
    nq = nxi = 2
    prec = nq * nxi + 1
    v = certify.CASE_VECTORS["D8"]
    form = jacobi_eisenstein("D8", 8, 0, prec=prec)
    lift = gritsenko_lift(pullback(form, v, nq=nq * nxi), nxi)
    gens = [
        certify.GeneratorSpec("G", 8, "fixed", lambda a, b: lift),
        certify.GeneratorSpec("G-copy", 8, "fixed", lambda a, b: lift),
    ]
    cert = certify.independence(gens, 8, schedule=((nq, nxi),))
    ok = {"w": 8, "coefficients": ["1", "-1"]} in cert.relations
    report("criterion 9b: duplicated generator yields kernel vector (1, -1)", ok)
