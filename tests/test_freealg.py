"""Generator tables, derived weights, Hilbert series, dimension bounds."""

from fractions import Fraction
from math import floor

import pytest

from omfree import freealg
from omfree.freealg import (
    GOLDEN_GROUPS,
    GOLDEN_WEIGHTS,
    SUPPORTED_SYSTEMS,
    UnsupportedRootSystemError,
    delta,
    dim_upper_bound,
    generator_table,
    hilbert_identity_check,
    hilbert_series,
    orthogonal_weights,
    root_system,
    weak_jacobi_dim,
)
from oracles import sl2_dimension, weak_monomial_weights


def test_supported_count_is_25():
    assert len(SUPPORTED_SYSTEMS) == 25


def test_generator_tables_explicit():
    assert generator_table("A1") == [(0, 1), (2, 1)]
    assert generator_table("B3") == [(0, 1), (2, 1), (4, 1), (6, 1)]
    assert generator_table("E7") == [
        (0, 1), (2, 1), (6, 2), (8, 2), (10, 2), (12, 3), (14, 3), (18, 4),
    ]
    assert generator_table("E6") == [
        (0, 1), (2, 1), (5, 1), (6, 2), (8, 2), (9, 2), (12, 3),
    ]
    assert generator_table("D8") == [
        (0, 1), (2, 1), (4, 1), (8, 1), (6, 2), (8, 2), (10, 2), (12, 2), (14, 2),
    ]
    assert generator_table("C8") == [
        (0, 1), (2, 1), (4, 1), (6, 2), (8, 2), (10, 2), (12, 2), (14, 2), (16, 2),
    ]
    assert generator_table("G2") == [(0, 1), (2, 1), (6, 2)]
    assert generator_table("F4") == [(0, 1), (2, 1), (6, 2), (8, 2), (12, 3)]


def test_generator_count_is_rank_plus_one():
    for name in SUPPORTED_SYSTEMS:
        rec = root_system(name)
        assert len(rec.generators) == rec.rank + 1, name


def test_e8_rejected_with_reason():
    with pytest.raises(UnsupportedRootSystemError, match="not a polynomial algebra"):
        generator_table("E8")


def test_unknown_system():
    with pytest.raises(UnsupportedRootSystemError):
        generator_table("H4")


def test_derived_weights_match_golden_tables():
    for name in SUPPORTED_SYSTEMS:
        assert tuple(orthogonal_weights(name)) == GOLDEN_WEIGHTS[name], name


def test_derived_weights_examples():
    assert orthogonal_weights("E7") == [4, 6, 10, 12, 14, 16, 18, 22, 24, 30]
    assert orthogonal_weights("A1") == [4, 6, 10, 12]
    assert orthogonal_weights("D8") == [4, 4, 6, 8, 10, 10, 12, 12, 14, 16, 18]


def test_group_labels_match_golden():
    for name in SUPPORTED_SYSTEMS:
        assert root_system(name).group == GOLDEN_GROUPS[name], name


# ---------------------------------------------------------------------------
# Hilbert series


def test_hilbert_series_constant():
    assert hilbert_series([4, 6, 10, 12], 0) == [1]


def test_hilbert_series_siegel_weights():
    coeffs = hilbert_series([4, 6, 10, 12], 12)
    assert coeffs[10] == 2  # 10 and 4+6
    assert coeffs[12] == 3  # 12, 6+6, 4+4+4


def test_hilbert_series_rejects_nonpositive():
    with pytest.raises(ValueError):
        hilbert_series([4, 0], 5)


def test_hilbert_series_partition_oracle():
    # brute-force partition count oracle for small orders
    weights = [4, 6, 10, 12]
    order = 30
    coeffs = hilbert_series(weights, order)

    def count(target, parts):
        if target == 0:
            return 1
        if not parts or target < 0:
            return 0
        head = parts[0]
        return sum(count(target - k * head, parts[1:]) for k in range(target // head + 1))

    for k in range(order + 1):
        assert coeffs[k] == count(k, weights)


# ---------------------------------------------------------------------------
# bigraded dimensions


def test_weak_jacobi_dims_a1():
    assert weak_jacobi_dim("A1", 0, 1) == 1
    assert weak_jacobi_dim("A1", -2, 1) == 1
    assert weak_jacobi_dim("A1", -4, 1) == 0


def test_index_zero_slice_is_level_one():
    for k in (0, 2, 4, 6, 8, 10, 12, 14, 16):
        want = len([
            (a, b) for b in range(k // 6 + 1) for a in [(k - 6 * b) // 4] if (k - 6 * b) % 4 == 0 and a >= 0
        ])
        assert weak_jacobi_dim("E7", k, 0) == want


@pytest.mark.parametrize("name", SUPPORTED_SYSTEMS)
def test_weak_jacobi_dims_match_the_monomial_oracle(name):
    # each exponent vector of index t and weight sum s adds dim M_{k+s}(SL2)
    gens = generator_table(name)
    for t in range(9):
        weights = weak_monomial_weights(gens, t)
        for k in range(-80, 90):
            want = sum(c * sl2_dimension(k + s) for s, c in weights.items())
            assert weak_jacobi_dim(name, k, t) == want, (t, k)
    # index r adds nothing to the bound at k < 120 once 12 r - 119 > r * slope
    slope = max(Fraction(kj, mj) for kj, mj in gens)
    assert slope < 12
    tables = [weak_monomial_weights(gens, r, least=12 * r - 119) for r in range(floor(119 / (12 - slope)) + 1)]
    for k in range(120):
        want = sum(c * sl2_dimension(k - 12 * r + s) for r, table in enumerate(tables) for s, c in table.items())
        assert dim_upper_bound(name, k) == want, k


def test_weak_jacobi_vanishing_below_slope():
    d = delta("E7")
    assert weak_jacobi_dim("E7", int(-d * 2) - 1, 2) == 0


# ---------------------------------------------------------------------------
# delta and bounds


def test_delta_e7_is_5():
    assert delta("E7") == 5


def test_delta_below_12_for_all():
    for name in SUPPORTED_SYSTEMS:
        assert delta(name) < 12, name


def test_delta_values_spotcheck():
    assert delta("A1") == 2
    assert delta("C8") == 8
    assert delta("B4") == 8


def test_dim_upper_bound_a1():
    assert dim_upper_bound("A1", 4) == 1


def test_dim_upper_bound_c8_values():
    # hand-derived stacked dimensions for the level-24 tower
    assert dim_upper_bound("C8", 8) == 3
    assert dim_upper_bound("C8", 10) == 3
    assert dim_upper_bound("C8", 12) == 6
    assert dim_upper_bound("C8", 14) == 6


def test_dim_upper_bound_igusa_dimensions():
    # the A1 bound reproduces the dimensions of even-weight genus-2 forms,
    # i.e. the free algebra on weights 4, 6, 10, 12
    series = hilbert_series([4, 6, 10, 12], 40)
    for k in range(0, 41, 2):
        assert dim_upper_bound("A1", k) == series[k]


# ---------------------------------------------------------------------------
# the Hilbert identity


@pytest.mark.parametrize("name", SUPPORTED_SYSTEMS)
def test_hilbert_identity_through_60(name):
    equal, where, _, _ = hilbert_identity_check(name, 60)
    assert equal, f"{name}: first mismatch at t^{where}"


def test_hilbert_identity_negative_control(monkeypatch):
    monkeypatch.setattr(freealg, "orthogonal_weights", lambda name: [4, 6, 10, 13])
    equal, where, lhs, rhs = hilbert_identity_check("A1", 60)
    assert not equal
    assert where is not None and lhs[where] != rhs[where]


# ---------------------------------------------------------------------------
# generator indices against highest-coroot marks (golden data)

# Coefficient multisets of the dual highest root in the simple roots, per
# family; the index-1 generator (0, 1) sits on top of these.
COROOT_MARKS = {
    "A1": [1], "A2": [1, 1], "A3": [1, 1, 1], "A4": [1] * 4, "A5": [1] * 5,
    "A6": [1] * 6, "A7": [1] * 7,
    "B2": [1, 1], "B3": [1, 1, 1], "B4": [1] * 4,
    "C3": [1, 1, 2], "C4": [1, 1, 2, 2], "C5": [1, 1, 2, 2, 2],
    "C6": [1, 1] + [2] * 4, "C7": [1, 1] + [2] * 5, "C8": [1, 1] + [2] * 6,
    "D4": [1, 1, 1, 2], "D5": [1, 1, 1, 2, 2], "D6": [1, 1, 1, 2, 2, 2],
    "D7": [1, 1, 1] + [2] * 4, "D8": [1, 1, 1] + [2] * 5,
    "G2": [1, 2], "F4": [1, 2, 2, 3],
    "E6": [1, 1, 2, 2, 2, 3], "E7": [1, 2, 2, 2, 3, 3, 4],
}


def test_generator_indices_are_coroot_marks_plus_one():
    for name in SUPPORTED_SYSTEMS:
        indices = sorted(m for _, m in generator_table(name))
        want = sorted(COROOT_MARKS[name] + [1])
        assert indices == want, name
        assert sum(indices) == sum(COROOT_MARKS[name]) + 1
