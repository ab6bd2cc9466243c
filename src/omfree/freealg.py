"""Root-system bookkeeping: generator tables, weights, and dimension bounds.

For each of the 25 supported root systems the registry stores the lattice,
the arithmetic group label, and the weight/index table of the generators of
the ring of Weyl-invariant weak Jacobi forms.  From those the orthogonal
generator weights, the bigraded dimensions, and the upper bound on the
dimension of orthogonal modular forms are derived.  The published weight
tables are embedded separately as golden data so that agreement is a real
test of the derivation rather than a restatement of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple


class UnsupportedRootSystemError(ValueError):
    """Requested root system has no free generator table."""


@dataclass(frozen=True)
class RootSystemRecord:
    name: str
    rank: int
    lattice_name: str
    group: str
    generators: Tuple[Tuple[int, int], ...]  # (k_j, m_j)

    @property
    def orthogonal_weights(self) -> Tuple[int, ...]:
        return tuple(sorted([4, 6] + [12 * m - k for k, m in self.generators]))


def _an_gens(n: int) -> List[Tuple[int, int]]:
    return [(0, 1)] + [(s, 1) for s in range(2, n + 2)]


def _bn_gens(n: int) -> List[Tuple[int, int]]:
    return [(2 * s, 1) for s in range(n + 1)]


def _cn_gens(n: int) -> List[Tuple[int, int]]:
    return [(0, 1), (2, 1), (4, 1)] + [(2 * s, 2) for s in range(3, n + 1)]


def _dn_gens(n: int) -> List[Tuple[int, int]]:
    return [(0, 1), (2, 1), (4, 1), (n, 1)] + [(2 * s, 2) for s in range(3, n)]


def _registry() -> Dict[str, RootSystemRecord]:
    recs = []
    for n in range(1, 8):
        group = "O+" if n == 1 else "O~+"
        recs.append(RootSystemRecord(f"A{n}", n, f"A{n}", f"{group}(A{n})", tuple(_an_gens(n))))
    for n in (2, 3, 4):
        recs.append(RootSystemRecord(f"B{n}", n, f"{n}A1", f"O+({n}A1)", tuple(_bn_gens(n))))
    recs.append(RootSystemRecord("C3", 3, "A3", "O+(A3)", tuple(_cn_gens(3))))
    recs.append(RootSystemRecord("C4", 4, "D4", "O1+(D4)", tuple(_cn_gens(4))))
    for n in (5, 6, 7, 8):
        recs.append(RootSystemRecord(f"C{n}", n, f"D{n}", f"O+(D{n})", tuple(_cn_gens(n))))
    for n in (4, 5, 6, 7, 8):
        recs.append(RootSystemRecord(f"D{n}", n, f"D{n}", f"O~+(D{n})", tuple(_dn_gens(n))))
    recs.append(RootSystemRecord("G2", 2, "A2", "O+(A2)", ((0, 1), (2, 1), (6, 2))))
    recs.append(
        RootSystemRecord("F4", 4, "D4", "O+(D4)", ((0, 1), (2, 1), (6, 2), (8, 2), (12, 3)))
    )
    recs.append(
        RootSystemRecord(
            "E6", 6, "E6", "O~+(E6)", ((0, 1), (2, 1), (5, 1), (6, 2), (8, 2), (9, 2), (12, 3))
        )
    )
    recs.append(
        RootSystemRecord(
            "E7",
            7,
            "E7",
            "O+(E7)",
            ((0, 1), (2, 1), (6, 2), (8, 2), (10, 2), (12, 3), (14, 3), (18, 4)),
        )
    )
    return {r.name: r for r in recs}


_REGISTRY = _registry()

SUPPORTED_SYSTEMS = tuple(sorted(_REGISTRY))


def root_system(name: str) -> RootSystemRecord:
    if name == "E8":
        raise UnsupportedRootSystemError(
            "E8: the ring of Weyl-invariant weak Jacobi forms is not a polynomial algebra, "
            "so no free generator table exists"
        )
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnsupportedRootSystemError(
            f"unknown root system {name!r}; supported: {', '.join(SUPPORTED_SYSTEMS)}"
        ) from None


def generator_table(name: str) -> List[Tuple[int, int]]:
    """Weight/index pairs (k_j, m_j) of the weak Jacobi generators."""
    return list(root_system(name).generators)


def orthogonal_weights(name: str) -> List[int]:
    """Sorted generator weights {4, 6} union {12 m_j - k_j}."""
    return list(root_system(name).orthogonal_weights)


# ---------------------------------------------------------------------------
# Golden data: the published tables, kept apart from the derivation.

GOLDEN_WEIGHTS: Dict[str, Tuple[int, ...]] = {
    "A1": (4, 6, 10, 12),
    "A2": (4, 6, 9, 10, 12),
    "B2": (4, 6, 8, 10, 12),
    "G2": (4, 6, 10, 12, 18),
    "A3": (4, 6, 8, 9, 10, 12),
    "B3": (4, 6, 6, 8, 10, 12),
    "C3": (4, 6, 8, 10, 12, 18),
    "A4": (4, 6, 7, 8, 9, 10, 12),
    "B4": (4, 4, 6, 6, 8, 10, 12),
    "C4": (4, 6, 8, 10, 12, 16, 18),
    "D4": (4, 6, 8, 8, 10, 12, 18),
    "F4": (4, 6, 10, 12, 16, 18, 24),
    "A5": (4, 6, 6, 7, 8, 9, 10, 12),
    "C5": (4, 6, 8, 10, 12, 14, 16, 18),
    "D5": (4, 6, 7, 8, 10, 12, 16, 18),
    "A6": (4, 5, 6, 6, 7, 8, 9, 10, 12),
    "C6": (4, 6, 8, 10, 12, 12, 14, 16, 18),
    "D6": (4, 6, 6, 8, 10, 12, 14, 16, 18),
    "E6": (4, 6, 7, 10, 12, 15, 16, 18, 24),
    "A7": (4, 4, 5, 6, 6, 7, 8, 9, 10, 12),
    "C7": (4, 6, 8, 10, 10, 12, 12, 14, 16, 18),
    "D7": (4, 5, 6, 8, 10, 12, 12, 14, 16, 18),
    "E7": (4, 6, 10, 12, 14, 16, 18, 22, 24, 30),
    "C8": (4, 6, 8, 8, 10, 10, 12, 12, 14, 16, 18),
    "D8": (4, 4, 6, 8, 10, 10, 12, 12, 14, 16, 18),
}

GOLDEN_GROUPS: Dict[str, str] = {
    "A1": "O+(A1)",
    "A2": "O~+(A2)",
    "B2": "O+(2A1)",
    "G2": "O+(A2)",
    "A3": "O~+(A3)",
    "B3": "O+(3A1)",
    "C3": "O+(A3)",
    "A4": "O~+(A4)",
    "B4": "O+(4A1)",
    "C4": "O1+(D4)",
    "D4": "O~+(D4)",
    "F4": "O+(D4)",
    "A5": "O~+(A5)",
    "C5": "O+(D5)",
    "D5": "O~+(D5)",
    "A6": "O~+(A6)",
    "C6": "O+(D6)",
    "D6": "O~+(D6)",
    "E6": "O~+(E6)",
    "A7": "O~+(A7)",
    "C7": "O+(D7)",
    "D7": "O~+(D7)",
    "E7": "O+(E7)",
    "C8": "O+(D8)",
    "D8": "O~+(D8)",
}


# ---------------------------------------------------------------------------
# Hilbert series and bigraded dimensions


def hilbert_series(weights, order: int) -> List[int]:
    """Coefficients of prod (1 - t^w)^-1 through t^order, exact integers."""
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for w in weights:
        for i in range(w, order + 1):
            coeffs[i] += coeffs[i - w]
    return coeffs


def _sl2_dim(k: int) -> int:
    """dim M_k(SL2): partitions of k into parts 4 and 6."""
    if k < 0 or k % 2:
        return 0
    count = 0
    for b in range(k // 6 + 1):
        if (k - 6 * b) % 4 == 0:
            count += 1
    return count


#: Index tables kept, one per (name, t); the least recently used goes first.
#: ``identity-check`` of all 25 systems to order 60 uses 261.
_INDEX_TABLES_LIMIT = 512


@lru_cache(maxsize=_INDEX_TABLES_LIMIT)
def _index_table(name: str, t: int) -> Tuple[Tuple[int, int], ...]:
    """Pairs (s, c_s): c_s weak-generator monomials of index t have sum k_j = s.

    Built generator by generator: ``tables[i]`` counts the monomials of
    index i in the generators taken so far, for every i <= t.
    """
    tables: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(t)]
    for kj, mj in root_system(name).generators:
        for i in range(mj, t + 1):
            for s, c in tables[i - mj].items():
                tables[i][s + kj] = tables[i].get(s + kj, 0) + c
    return tuple(sorted(tables[t].items()))


def weak_jacobi_dim(name: str, k: int, t: int) -> int:
    """Dimension of the space of invariant weak Jacobi forms of weight k, index t.

    The weak forms are a free M_*(SL2)-module on the generator monomials,
    and a monomial with sum k_j = s has weight -s, so this is
    sum_s c_s dim M_{k+s}(SL2) over the index-t monomials.
    """
    if t < 0:
        raise ValueError("index must be nonnegative")
    return sum(c * _sl2_dim(k + s) for s, c in _index_table(name, t))


#: Values of ``delta`` kept, one per root system (25 are registered); the least recently used goes first.
_DELTA_LIMIT = 64


@lru_cache(maxsize=_DELTA_LIMIT)
def delta(name: str) -> Fraction:
    """max_j k_j / m_j: invariant weak forms vanish when k < -delta * t."""
    rec = root_system(name)
    return max(Fraction(kj, mj) for kj, mj in rec.generators)


def dim_upper_bound(name: str, k: int) -> int:
    """Upper bound sum_r dim J^w_{k - 12r, L, r} (a finite sum)."""
    if k < 0:
        return 0
    d = delta(name)
    total = 0
    r = 0
    while Fraction(k - 12 * r) >= -d * r:
        total += weak_jacobi_dim(name, k - 12 * r, r)
        r += 1
    return total


def hilbert_identity_check(name: str, order: int) -> Tuple[bool, Optional[int], List[int], List[int]]:
    """Compare prod (1-t^w)^-1 against the stacked weak Jacobi dimensions.

    Returns (equal, first_mismatch_exponent_or_None, lhs, rhs).
    """
    lhs = hilbert_series(orthogonal_weights(name), order)
    rhs = [dim_upper_bound(name, k) for k in range(order + 1)]
    for k, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return False, k, lhs, rhs
    return True, None, lhs, rhs
