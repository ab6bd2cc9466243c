"""Exact correctness checks on the JSON the omfree CLI prints.

Each checker takes the exit code and the parsed ``--json`` payload and
raises ``CheckError`` on the first violation.  None of them consults the
program under test: expected values are either fixed below or follow from
the definition of a Jacobi form.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Dict, Sequence, Tuple

# The weight-14 relation E14,0 + E14,1 = a E4^2 E6 + b E4 (E10,0 + E10,1) + c E6 (E8,0 + E8,1).
E14_COEFFICIENTS = ["1330560", "2640", "-11088"]

# E7 monomial ranks for weights 0..30 at (nq, nxi) = (5, 5), as printed by
# `omfree certify E7 --wmax 30 --nq 5 --nxi 5 --json` when this benchmark
# was written.  They equal the weak-Jacobi upper bounds at every weight.
E7_RANKS = [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 5, 0, 6, 0, 7, 0, 10, 0, 13, 0, 14, 0, 20, 0, 24]
E7_GENERATOR_WEIGHTS = [4, 6, 10, 12, 14, 16, 18, 22, 24, 30]


class CheckError(ValueError):
    """An output that is not the mathematically correct result."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_verify_e14(rc: int, payload: dict) -> None:
    _require(rc == 0, f"verify-e14 exited with {rc}")
    result = payload["result"]
    _require(result["status"] == "match", f"status is {result['status']!r}, not 'match'")
    _require(result["coefficients"] == E14_COEFFICIENTS, f"coefficients {result['coefficients']} != {E14_COEFFICIENTS}")
    _require(result["precision"] == {"nq": 5, "nxi": 5}, f"precision {result['precision']} != (5, 5)")


def check_certify_e7(rc: int, payload: dict) -> None:
    _require(rc == 0, f"certify exited with {rc}")
    report = payload["report"]
    _require(report["case"] == "E7", f"case {report['case']!r} != 'E7'")
    _require(report["precision"] == {"nq": 5, "nxi": 5}, f"precision {report['precision']} != (5, 5)")
    weights = report["weights"]
    _require([rec["w"] for rec in weights] == list(range(len(E7_RANKS))), "weights are not 0..30 in order")
    for rec in weights:
        _require(
            rec["monomial_rank"] == rec["upper_bound"] and rec["match"] is True,
            f"weight {rec['w']}: rank {rec['monomial_rank']} vs bound {rec['upper_bound']}, match={rec['match']}",
        )
    ranks = [rec["monomial_rank"] for rec in weights]
    _require(ranks == E7_RANKS, f"ranks {ranks} != golden {E7_RANKS}")
    cert = report["certificate"]
    gen_weights = [g["weight"] for g in cert["generators"]]
    _require(gen_weights == E7_GENERATOR_WEIGHTS, f"generator weights {gen_weights} != {E7_GENERATOR_WEIGHTS}")
    for rec in cert["weights"]:
        if rec["verdict"] != "trivial":
            _require(
                rec["verdict"] == "independent" and rec["rank"] == rec["matrix_shape"][0] == len(rec["monomials"]),
                f"weight {rec['w']}: verdict {rec['verdict']}, rank {rec['rank']} of {rec['matrix_shape']}",
            )
    _require(cert["relations"] == [], f"unexpected relations {cert['relations']}")


def check_pullback(rc: int, payload: dict, gram: Sequence[Sequence[int]], vector: Sequence[int], weight: int, nq: int) -> None:
    """c(0,0) = 1, c(n,-r) = c(n,r), and c(n,r) depends only on (4nm - r^2, r mod 2m)."""
    _require(rc == 0, f"pullback exited with {rc}")
    m = quadratic_norm(gram, vector)
    _require(payload["gram"] == [list(row) for row in gram], "Gram matrix differs from the benchmark's")
    _require(payload["config"]["vector"] == list(vector), f"vector {payload['config']['vector']} != {list(vector)}")
    _require(payload["config"]["vector_norm"] == str(m), f"vector_norm {payload['config']['vector_norm']} != {m}")
    phi = payload["jacobi_form"]
    _require((phi["weight"], phi["index"], phi["nq"]) == (weight, m, nq), f"(weight, index, nq) = {(phi['weight'], phi['index'], phi['nq'])}, expected {(weight, m, nq)}")
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    for key, (num, den) in phi["coefficients"].items():
        n, r = map(int, key.split(","))
        _require(0 <= n <= nq and 4 * n * m - r * r >= 0, f"coefficient at (n={n}, r={r}) outside the support")
        coeffs[(n, r)] = Fraction(num, den)
    _require(coeffs.get((0, 0)) == 1, f"c(0,0) = {coeffs.get((0, 0), 0)}, not 1")
    classes: Dict[Tuple[int, int], Tuple[Fraction, int, int]] = {}
    for n in range(nq + 1):
        rmax = isqrt(4 * n * m)
        for r in range(-rmax, rmax + 1):
            c = coeffs.get((n, r), Fraction(0))
            _require(coeffs.get((n, -r), Fraction(0)) == c, f"c({n},{-r}) != c({n},{r})")
            key = (4 * n * m - r * r, r % (2 * m))
            first = classes.setdefault(key, (c, n, r))
            _require(first[0] == c, f"c({n},{r}) = {c} but c({first[1]},{first[2]}) = {first[0]} in the same class {key}")


def quadratic_norm(gram: Sequence[Sequence[int]], v: Sequence[int]) -> int:
    """Q(v) = v^T A v / 2, an integer on an even lattice."""
    twice = sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))
    if twice % 2:
        raise ValueError("Gram matrix is not even")
    return twice // 2
