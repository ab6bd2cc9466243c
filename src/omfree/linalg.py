"""Exact linear algebra on one fraction-free integer elimination.

Every certificate ends in a rank, a solve or a kernel over the rationals.
All of them run the same Bareiss forward elimination (Math. Comp. 22,
1968) on integer rows: rational rows are first scaled by the lcm of their
denominators, each entry after k pivot steps is a (k+1)-minor of the
input, so every division is exact and no ``Fraction`` appears inside the
loop.  ``Fraction`` values are built only at the end of :func:`solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple


def clear_denominators(row: Sequence) -> List[int]:
    """The rational row scaled by the lcm of its denominators."""
    den = lcm(1, *(x.denominator for x in row))
    return [int(x * den) for x in row]


def _echelon(m: List[List[int]], ncols: int) -> Tuple[int, int]:
    """Bareiss forward elimination of the integer rows ``m``, in place.

    Pivots are sought in the first ``ncols`` columns, taking the first
    nonzero entry at or below the current row; columns past ``ncols`` (a
    right-hand side, an identity block) are updated along with the rest.
    Returns the rank, whose pivot rows are ``m[:rank]``, and the sign of
    the row permutation.  At full column rank the pivots lie on the
    diagonal.
    """
    sign = 1
    prev = 1
    row = 0
    for col in range(ncols):
        if row == len(m):
            break
        piv = next((i for i in range(row, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            sign = -sign
        top = m[row]
        p = top[col]
        for i in range(row + 1, len(m)):
            r = m[i]
            a = r[col]
            for j in range(col + 1, len(r)):
                r[j] = (p * r[j] - a * top[j]) // prev
            r[col] = 0
        prev = p
        row += 1
    return row, sign


def bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    return _echelon(m, len(m[0]))[0] if m else 0


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the last Bareiss pivot, with the swap sign."""
    n = len(rows)
    m = [list(r) for r in rows]
    rank, sign = _echelon(m, n)
    if rank < n:
        return 0
    return sign * m[n - 1][n - 1] if n else 1


@dataclass(frozen=True)
class Solution:
    """Outcome of an exact solve of ``matrix x = rhs``."""

    status: str  # "unique" | "underdetermined" | "inconsistent"
    values: Optional[List[Fraction]] = None  # the solution, or the failed candidate
    row: Optional[int] = None  # first row the candidate fails, when inconsistent


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Solution:
    """Solve an overdetermined rational system exactly.

    Underdetermined when the columns are dependent.  Otherwise the pivot
    rows give the only candidate, which is then checked on every row in
    order.
    """
    ncols = len(matrix[0]) if matrix else 0
    m = [clear_denominators(list(row) + [b]) for row, b in zip(matrix, rhs)]
    if _echelon(m, ncols)[0] < ncols:
        return Solution("underdetermined")
    x = [Fraction(0)] * ncols
    for i in reversed(range(ncols)):
        r = m[i]
        x[i] = (r[ncols] - sum(r[j] * x[j] for j in range(i + 1, ncols))) / Fraction(r[i])
    for i, (row, b) in enumerate(zip(matrix, rhs)):
        if sum(a * xi for a, xi in zip(row, x)) != b:
            return Solution("inconsistent", x, i)
    return Solution("unique", x)


def left_kernel(rows: Sequence[Sequence]) -> List[List[int]]:
    """Basis of the left kernel: vectors v with sum_i v_i row_i = 0.

    Each rational row is scaled, together with its identity-block row, by
    the lcm of its denominators, so the identity block still records
    coefficients of the original rows.  The rows that eliminate to zero
    give the kernel, as primitive integer vectors with a positive leading
    entry.
    """
    n = len(rows)
    if n == 0:
        return []
    width = len(rows[0])
    m = [clear_denominators(list(row) + [int(i == j) for j in range(n)]) for i, row in enumerate(rows)]
    rank = _echelon(m, width)[0]
    kernels = []
    for r in m[rank:]:
        vec = r[width:]
        g = gcd(*vec)
        if next(x for x in vec if x) < 0:
            g = -g
        kernels.append([x // g for x in vec])
    return kernels
