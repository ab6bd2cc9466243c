"""The output checkers accept correct payloads and reject corrupted ones.

Run with: python3 -m pytest bench/test_checks.py
"""

import copy
import sys
from math import isqrt
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    E7_GENERATOR_WEIGHTS,
    E7_RANKS,
    CheckError,
    check_certify_e7,
    check_pullback,
    check_verify_e14,
    quadratic_norm,
)
from run import D8_GRAM, sweep_directions  # noqa: E402

VECTOR = (1, 0, 0, 0, 0, 0, 0, 0)  # Q(v) = 1
NQ = 4


def e14_payload():
    return {"result": {"status": "match", "coefficients": ["1330560", "2640", "-11088"], "precision": {"nq": 5, "nxi": 5}}}


def e7_payload():
    weights, cert_weights = [], []
    for w, rank in enumerate(E7_RANKS):
        weights.append({"w": w, "monomial_rank": rank, "upper_bound": rank, "match": True})
        if w == 0 or rank == 0:
            cert_weights.append({"w": w, "verdict": "trivial", "rank": 0, "matrix_shape": [0, 0], "monomials": []})
        else:
            cert_weights.append({"w": w, "verdict": "independent", "rank": rank, "matrix_shape": [rank, 976], "monomials": [[0]] * rank})
    generators = [{"name": f"E{k}", "weight": k} for k in E7_GENERATOR_WEIGHTS]
    return {
        "report": {
            "case": "E7",
            "precision": {"nq": 5, "nxi": 5},
            "weights": weights,
            "certificate": {"generators": generators, "weights": cert_weights, "relations": []},
        }
    }


def pullback_payload():
    # c(n, r) = 4n - r^2 + 1 depends only on the discriminant: a valid index-1 pattern.
    coeffs = {}
    for n in range(NQ + 1):
        for r in range(-isqrt(4 * n), isqrt(4 * n) + 1):
            coeffs[f"{n},{r}"] = [4 * n - r * r + 1, 1]
    return {
        "config": {"vector": list(VECTOR), "vector_norm": "1"},
        "gram": [list(row) for row in D8_GRAM],
        "jacobi_form": {"weight": 8, "index": 1, "nq": NQ, "coefficients": coeffs},
    }


def check_sweep(rc, payload):
    check_pullback(rc, payload, D8_GRAM, VECTOR, 8, NQ)


def _set(path, value):
    def corrupt(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return corrupt


def _update(path, **changes):
    def corrupt(payload):
        node = payload
        for key in path:
            node = node[key]
        node.update(changes)

    return corrupt


def _coeff(*entries):
    return _update(["jacobi_form", "coefficients"], **{k: [v, 1] for k, v in entries})


CASES = [
    (check_verify_e14, e14_payload, "status", _set(["result", "status"], "proportional")),
    (check_verify_e14, e14_payload, "scaled", _set(["result", "coefficients"], ["2661120", "5280", "-22176"])),
    (check_verify_e14, e14_payload, "sign", _set(["result", "coefficients"], ["1330560", "2640", "11088"])),
    (check_verify_e14, e14_payload, "precision", _set(["result", "precision"], {"nq": 4, "nxi": 4})),
    (check_certify_e7, e7_payload, "deficient", _update(["report", "weights", 30], monomial_rank=23, match=False)),
    (check_certify_e7, e7_payload, "golden", _update(["report", "weights", 30], monomial_rank=23, upper_bound=23)),
    (check_certify_e7, e7_payload, "match-flag", _update(["report", "weights", 12], match=False)),
    (check_certify_e7, e7_payload, "verdict", _update(["report", "certificate", "weights", 30], verdict="inconclusive")),
    (check_certify_e7, e7_payload, "relation", _set(["report", "certificate", "relations"], [{"w": 30}])),
    (check_certify_e7, e7_payload, "generators", _set(["report", "certificate", "generators"], [{"weight": 4}])),
    (check_certify_e7, e7_payload, "case", _set(["report", "case"], "E6")),
    (check_sweep, pullback_payload, "c00", _coeff(("0,0", 2))),
    (check_sweep, pullback_payload, "r-symmetry", _coeff(("3,1", 7))),
    (check_sweep, pullback_payload, "elliptic", _coeff(("1,1", 5), ("1,-1", 5))),
    (check_sweep, pullback_payload, "support", _coeff(("0,1", 1))),
    (check_sweep, pullback_payload, "index", _set(["jacobi_form", "index"], 2)),
    (check_sweep, pullback_payload, "weight", _set(["jacobi_form", "weight"], 10)),
    (check_sweep, pullback_payload, "norm", _set(["config", "vector_norm"], "2")),
    (check_sweep, pullback_payload, "gram", _set(["gram", 0, 0], 4)),
]


@pytest.mark.parametrize("checker,make", [(check_verify_e14, e14_payload), (check_certify_e7, e7_payload), (check_sweep, pullback_payload)])
def test_accepts_correct_payload(checker, make):
    checker(0, make())


@pytest.mark.parametrize("checker,make", [(check_verify_e14, e14_payload), (check_certify_e7, e7_payload), (check_sweep, pullback_payload)])
def test_rejects_nonzero_exit(checker, make):
    with pytest.raises(CheckError):
        checker(1, make())


@pytest.mark.parametrize("checker,make,label,corrupt", CASES, ids=[c[2] for c in CASES])
def test_rejects_corrupted_payload(checker, make, label, corrupt):
    payload = copy.deepcopy(make())
    corrupt(payload)
    with pytest.raises(CheckError):
        checker(0, payload)


def test_sweep_directions_are_seeded_and_in_range():
    assert sweep_directions(7) == sweep_directions(7)
    assert sweep_directions(7) != sweep_directions(8)
    for seed in range(20):
        dirs = sweep_directions(seed)
        assert len(set(dirs)) == len(dirs) == 8
        for v in dirs:
            assert any(v) and all(-3 <= x <= 3 for x in v)
            assert 12 <= quadratic_norm(D8_GRAM, v) <= 40
