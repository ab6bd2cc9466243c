"""Even positive-definite root lattices and bounded dual-coset enumeration.

Lattices are realized concretely as Z^rank with an integer Gram matrix.  The
dual lattice lives in the same rational coordinates (it is spanned by the
columns of the inverse Gram matrix), so the pairing of a dual vector ``l``
with a lattice vector ``v`` is always ``l^T A v``.

Two enumeration paths are provided:

* :func:`enumerate_coset` - exact Fincke-Pohst search with rational pivots,
  returning the actual vectors.  Meant for small bounds and cross-checks.
* :func:`pairing_counts` - the bulk counting path used by theta pullbacks.
  It runs the same Fincke-Pohst descent on integer-scaled LDL data, one numpy
  array per carried quantity, and returns only counts by (norm, pairing).
  Interval ends come from an exact integer square root, so the search is
  complete and duplicate-free by construction; floating point at most
  proposes a square root that is then corrected exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .linalg import det, solve
from .qseries import as_fraction

Vector = Tuple[Fraction, ...]


class UnknownLatticeError(KeyError):
    """Requested lattice is not in the registry."""


@dataclass(frozen=True)
class Coset:
    """One coset of the discriminant group, in rational ambient coordinates."""

    index: int
    rep: Vector
    norm_mod1: Fraction
    denominator: int

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.rep)


@dataclass(frozen=True)
class LatticeData:
    name: str
    rank: int
    gram: Tuple[Tuple[int, ...], ...]
    cosets: Tuple[Coset, ...]
    #: Partition of the integer-norm cosets into cusp orbit classes, as coset
    #: indices; only defined for the lattices whose orbit structure the
    #: pipeline uses (D8, E6, E7).
    cusp_orbits: Optional[Tuple[Tuple[int, ...], ...]]

    def coset(self, index: int) -> Coset:
        return self.cosets[index]

    @property
    def discriminant(self) -> int:
        return len(self.cosets)


# ---------------------------------------------------------------------------
# Gram matrices


def _cartan_a(n: int) -> List[List[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = -1
    return m


def _cartan_d(n: int) -> List[List[int]]:
    # Chain 0-1-...-(n-3), with node n-3 joined to both n-2 and n-1.
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for i in range(n - 3):
        m[i][i + 1] = m[i + 1][i] = -1
    m[n - 3][n - 2] = m[n - 2][n - 3] = -1
    m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    return m


def _copies_a1(n: int) -> List[List[int]]:
    return [[2 if i == j else 0 for j in range(n)] for i in range(n)]


_E6_GRAM = [
    [2, 0, -1, 0, 0, 0],
    [0, 2, 0, -1, 0, 0],
    [-1, 0, 2, -1, 0, 0],
    [0, -1, -1, 2, -1, 0],
    [0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 2],
]

_E7_GRAM = [
    [2, 0, -1, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, -1, 2],
]


def _gram_table() -> Dict[str, List[List[int]]]:
    table: Dict[str, List[List[int]]] = {}
    for n in range(1, 8):
        table[f"A{n}"] = _cartan_a(n)
    for n in (2, 3, 4):
        table[f"{n}A1"] = _copies_a1(n)
    for n in (4, 5, 6, 7, 8):
        table[f"D{n}"] = _cartan_d(n)
    table["E6"] = _E6_GRAM
    table["E7"] = _E7_GRAM
    return table


_GRAMS = _gram_table()


def gram_matrix(name: str) -> Tuple[Tuple[int, ...], ...]:
    """Exact Gram matrix of a registered lattice."""
    try:
        return tuple(tuple(row) for row in _GRAMS[name])
    except KeyError:
        raise UnknownLatticeError(f"unknown lattice {name!r}; known: {sorted(_GRAMS)}") from None


def registered_lattices() -> List[str]:
    return sorted(_GRAMS)


def _inverse(gram) -> List[List[Fraction]]:
    """Inverse of a nonsingular integer matrix, one exact solve per column."""
    n = len(gram)
    cols = [solve(gram, [int(i == j) for i in range(n)]).values for j in range(n)]
    return [list(row) for row in zip(*cols)]


def _ldl(gram) -> Tuple[List[Fraction], List[List[Fraction]]]:
    """Exact decomposition Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2."""
    n = len(gram)
    q = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = q[i][i]
        if d[i] <= 0:
            raise ValueError("gram matrix is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = q[i][j] / d[i]
        for k in range(i + 1, n):
            for m in range(k, n):
                q[k][m] -= q[i][k] * q[i][m] / d[i]
                q[m][k] = q[k][m]
    return d, u


# ---------------------------------------------------------------------------
# Discriminant group


def _discriminant_cosets(gram) -> List[Vector]:
    """All cosets of the dual modulo the lattice, reps with coordinates in [0,1)."""
    n = len(gram)
    inv = _inverse(gram)
    gens = [tuple(inv[i][j] % 1 for i in range(n)) for j in range(n)]
    zero = tuple(Fraction(0) for _ in range(n))
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % 1 for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def norm_of(gram, v: Sequence) -> Fraction:
    """Q(v) = (v^T A v) / 2 in exact arithmetic."""
    n = len(gram)
    if len(v) != n:
        raise ValueError(f"vector has length {len(v)}, lattice rank is {n}")
    vv = [as_fraction(x) for x in v]
    total = Fraction(0)
    for i in range(n):
        row = gram[i]
        total += vv[i] * sum(Fraction(row[j]) * vv[j] for j in range(n))
    return total / 2


def _cusp_orbits(name: str, cosets: Sequence[Coset]) -> Optional[Tuple[Tuple[int, ...], ...]]:
    if name == "D8":
        zero = [c.index for c in cosets if c.is_zero()]
        spinors = [c.index for c in cosets if not c.is_zero() and c.norm_mod1 == 0]
        return (tuple(zero), tuple(sorted(spinors)))
    if name in ("E6", "E7"):
        zero = [c.index for c in cosets if c.is_zero()]
        return (tuple(zero),)
    return None


@lru_cache(maxsize=None)
def lattice(name: str) -> LatticeData:
    gram = gram_matrix(name)
    reps = _discriminant_cosets(gram)
    # Zero coset first, then sorted by (norm mod 1, coordinates).
    reps = sorted(reps, key=lambda r: (any(x != 0 for x in r), norm_of(gram, r) % 1, r))
    cosets = []
    for i, rep in enumerate(reps):
        den = lcm(1, *(x.denominator for x in rep))
        cosets.append(Coset(index=i, rep=rep, norm_mod1=norm_of(gram, rep) % 1, denominator=den))
    cosets = tuple(cosets)
    size = det(gram)
    if len(cosets) != size:
        raise AssertionError(f"discriminant group of {name} has {len(cosets)} elements, det is {size}")
    return LatticeData(
        name=name,
        rank=len(gram),
        gram=gram,
        cosets=cosets,
        cusp_orbits=_cusp_orbits(name, cosets),
    )


# ---------------------------------------------------------------------------
# Pairings and norms on a LatticeData


def norm(lat: LatticeData, v: Sequence) -> Fraction:
    return norm_of(lat.gram, v)


def pairing(lat: LatticeData, dual_vec: Sequence, v: Sequence) -> int:
    """<l, v> = l^T A v; must be an integer when l is dual and v integral."""
    n = lat.rank
    if len(dual_vec) != n or len(v) != n:
        raise ValueError("dimension mismatch")
    lv = [as_fraction(x) for x in dual_vec]
    total = Fraction(0)
    for i in range(n):
        total += lv[i] * sum(Fraction(lat.gram[i][j]) * as_fraction(v[j]) for j in range(n))
    if total.denominator != 1:
        raise ValueError(f"pairing {total} is not integral; vector is not in the dual lattice")
    return int(total)


# ---------------------------------------------------------------------------
# Exact enumeration (reference path)


def enumerate_coset(lat: LatticeData, coset, qmax) -> List[Tuple[Vector, Fraction]]:
    """All l in coset + L with Q(l) <= qmax, with exact norms.

    ``coset`` may be a Coset, a coset index, or an explicit representative.
    Output is sorted lexicographically, complete and duplicate-free.
    """
    qmax = as_fraction(qmax)
    if qmax < 0:
        raise ValueError("qmax must be nonnegative")
    if isinstance(coset, Coset):
        rep = coset.rep
    elif isinstance(coset, int):
        rep = lat.cosets[coset].rep
    else:
        rep = tuple(as_fraction(x) for x in coset)
    n = lat.rank
    d, u = _ldl(lat.gram)
    out: List[Tuple[Vector, Fraction]] = []
    coords: List[Fraction] = [Fraction(0)] * n
    smax = 2 * qmax

    def recurse(i: int, remaining: Fraction):
        if i < 0:
            # the recursion has already accumulated y^T A y = smax - remaining
            out.append((tuple(coords), (smax - remaining) / 2))
            return
        center = -sum(u[i][j] * coords[j] for j in range(i + 1, n))
        # d_i (y_i + c)^2 <= remaining with y_i in rep[i] + Z
        bound = remaining / d[i]
        lo, hi = _fraction_sqrt_range(center, bound, rep[i])
        for t in range(lo, hi + 1):
            y = rep[i] + t
            coords[i] = y
            used = d[i] * (y - center) * (y - center)
            if used <= remaining:
                recurse(i - 1, remaining - used)
        coords[i] = Fraction(0)

    recurse(n - 1, smax)
    return sorted(out)


def _fraction_sqrt_range(center: Fraction, bound: Fraction, offset: Fraction) -> Tuple[int, int]:
    """Integer t-range covering offset + t in [center - sqrt(bound), center + sqrt(bound)].

    Uses an upper bound for the square root, so the range is a superset; the
    caller re-checks each candidate exactly.
    """
    if bound < 0:
        return (0, -1)
    num, den = bound.numerator, bound.denominator
    root_hi = Fraction(isqrt(num * den) + 1, den)  # >= sqrt(bound)
    lo = ceil(center - root_hi - offset)
    hi = floor(center + root_hi - offset)
    return lo, hi


# ---------------------------------------------------------------------------
# Bulk exact counting (integer Fincke-Pohst descent, vectorised with numpy)

#: Rows materialized by one expansion step.  A step's dozen int64 arrays then
#: take about 1.5 MiB and stay in an L2 cache; on a Xeon with 2 MiB of L2 per
#: core this ran faster than steps of 2^16 to 4M rows, and it keeps peak
#: memory at tens of MB.
_EXPAND_CAP = 1 << 14
#: Largest (s, r) box tallied densely with ``np.bincount``; larger boxes
#: (low rank at large qmax, where the box dwarfs the vector count) are tallied
#: sparsely with ``np.unique``.
_BOX_CAP = 1 << 22
#: Bound on every int64 quantity of the descent.  Keeping it at 2^62 leaves
#: headroom for the exact isqrt fix-up, whose (t + 1)^2 must not wrap.
_INT64_LIMIT = 1 << 62


@dataclass(frozen=True)
class _ScaledLDL:
    """Integer form of Q's LDL data: E * y^T A y = sum_i w_i (M_i y_i - C_i)^2.

    With d_i = p_i / q_i and M_i the lcm of the denominators in row i of u,
    ``scale`` is E = lcm_i(q_i M_i^2), ``weights`` are w_i = E d_i / M_i^2
    and ``cross[k][j] = M_k u_kj``, all integers; the center numerator of
    level k is C_k = -sum_{j>k} cross[k][j] y_j.  ``inv_diag`` is the
    diagonal of A^-1: every real y with y^T A y <= smax has
    y_j^2 <= smax (A^-1)_jj.
    """

    scale: int
    weights: Tuple[int, ...]
    mults: Tuple[int, ...]
    cross: Tuple[Tuple[int, ...], ...]
    inv_diag: Tuple[Fraction, ...]


@lru_cache(maxsize=None)
def _scaled_ldl(gram: Tuple[Tuple[int, ...], ...]) -> _ScaledLDL:
    n = len(gram)
    d, u = _ldl(gram)
    mults = [lcm(1, *(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    scale = lcm(*(d[i].denominator * mults[i] ** 2 for i in range(n)))
    weights = tuple(int(scale * d[i] / mults[i] ** 2) for i in range(n))
    cross = tuple(tuple(int(mults[k] * u[k][j]) for j in range(n)) for k in range(n))
    inv = _inverse(gram)
    return _ScaledLDL(scale, weights, tuple(mults), cross, tuple(inv[j][j] for j in range(n)))


def _check_int64(what: str, value: int, qmax) -> None:
    if value >= _INT64_LIMIT:
        raise ValueError(
            f"pairing_counts: {what} = {value} does not fit the int64 descent (limit 2^62); "
            f"qmax = {qmax} is too large"
        )


def _isqrt_floor(k: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(k)) for 0 <= k < 2^62.

    The float estimate is within one of the true root there (relative error
    below 2^-52 on a root below 2^31), so one exact step each way fixes it.
    """
    t = np.sqrt(k.astype(np.float64)).astype(np.int64)
    t -= t * t > k
    t += (t + 1) * (t + 1) <= k
    return t


def pairing_counts(lat: LatticeData, coset, direction: Sequence[int], qmax) -> Dict[Tuple[int, int], int]:
    """Exact counts of coset vectors by (scaled norm, pairing with direction).

    Returns a dict mapping ``(s, r) -> count`` where ``s = 2*den^2*Q(l)`` (an
    integer; ``den`` is the coset denominator) and ``r = <l, direction>``,
    over all ``l`` in the coset with ``Q(l) <= qmax``.

    The search runs on y = den*l, an integer vector with y = den*rep mod den
    and y^T A y = s <= smax = floor(2*den^2*qmax).  It is the Fincke-Pohst
    descent in exact integers (see :class:`_ScaledLDL`): each partial row
    carries the budget N = E*(smax - partial norm), the center numerators of
    the levels still open, and the partial pairing y.Av.  At level i the
    admissible y_i are exactly those with (M_i y_i - C_i)^2 <= N // w_i,
    read off from an exact isqrt and integer floor division, so every vector
    is found once and no other is; the leaves emit only the (s, r) scalars,
    tallied over the dense (s, r) box.  Every int64 quantity is bounded
    before anything is allocated; a qmax beyond that range raises
    ``ValueError``.
    """
    qmax = as_fraction(qmax)
    if isinstance(coset, Coset):
        rep = coset.rep
    elif isinstance(coset, int):
        rep = lat.cosets[coset].rep
    else:
        rep = tuple(as_fraction(x) for x in coset)
    n = lat.rank
    if len(direction) != n:
        raise ValueError(f"direction has length {len(direction)}, lattice rank is {n}")
    den = lcm(1, *(x.denominator for x in rep))
    g = [int(x * den) for x in rep]
    smax = floor(2 * den * den * qmax)  # s is an integer, so s <= smax is exactly Q <= qmax
    if smax < 0:
        return {}

    ldl = _scaled_ldl(lat.gram)
    scale, weights, mults, cross = ldl.scale, ldl.weights, ldl.mults, ldl.cross
    av = [sum(row[j] * int(direction[j]) for j in range(n)) for row in lat.gram]
    vav = sum(int(direction[i]) * av[i] for i in range(n))
    # |y_j| <= ybound[j] on every partial row (a partial row extends to a real
    # vector of norm <= smax), and |y.Av| <= sqrt(smax * v^T A v) on leaves.
    ybound = [isqrt(floor(smax * ldl.inv_diag[j])) for j in range(n)]
    rmax = isqrt(smax * vav) // den
    width = 2 * rmax + 1
    box = (smax + 1) * width
    _check_int64("E*smax", scale * smax, qmax)
    _check_int64(
        "center numerator bound",
        max(mults[k] * ybound[k] + sum(abs(cross[k][j]) * ybound[j] for j in range(k + 1, n)) for k in range(n)),
        qmax,
    )
    _check_int64("pairing bound", sum(abs(a) * b for a, b in zip(av, ybound)), qmax)
    _check_int64("(s, r) box size", box, qmax)

    dense = np.zeros(box, dtype=np.int64) if box <= _BOX_CAP else None
    sparse: Dict[int, int] = {}
    pending: List[np.ndarray] = []
    pending_size = 0

    def tally(keys: np.ndarray) -> None:
        # buffer about a box's worth of keys, so each tally pass costs O(keys)
        nonlocal pending_size
        pending.append(keys)
        pending_size += len(keys)
        if pending_size >= min(box, _BOX_CAP):
            flush()

    def flush() -> None:
        nonlocal pending_size
        if not pending:
            return
        keys = pending[0] if len(pending) == 1 else np.concatenate(pending)
        pending.clear()
        pending_size = 0
        if dense is not None:
            found = np.bincount(keys)
            dense[: len(found)] += found
        else:
            uniq, cnt = np.unique(keys, return_counts=True)
            for k, c in zip(uniq.tolist(), cnt.tolist()):
                sparse[k] = sparse.get(k, 0) + c

    def leaves(budget: np.ndarray, dots: np.ndarray) -> None:
        if budget.min() < 0:
            raise AssertionError("descent budget went negative")
        rest, frac = np.divmod(budget, scale)
        if np.any(frac):
            raise AssertionError("leaf norm is not an integer")
        if den != 1:
            if np.any(dots % den):
                raise AssertionError("pairing with a lattice vector must be integral")
            dots = dots // den
        tally((smax - rest) * width + (dots + rmax))

    def descend(budget: np.ndarray, centers: np.ndarray, dots: np.ndarray, level: int) -> None:
        # budget: N per row; centers[k]: C_k per row for k <= level; dots: partial y.Av
        m, step = mults[level], mults[level] * den
        c = centers[level]
        t = _isqrt_floor(budget // weights[level])
        # y = g + den*j with C - t <= M y <= C + t
        lo = -((g[level] * m - c + t) // step)
        cnt = np.maximum((c + t - g[level] * m) // step - lo + 1, 0)
        ends = np.cumsum(cnt)
        shift = lo - (ends - cnt)  # j minus the child's position in the expansion
        # expand runs of rows with about _EXPAND_CAP children each; a row is never cut
        cuts = np.searchsorted(ends, np.arange(_EXPAND_CAP, int(ends[-1]), _EXPAND_CAP), side="right")
        bounds = np.unique(np.concatenate(([0], cuts, [len(cnt)]))).tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            first, last = int(ends[a] - cnt[a]), int(ends[b - 1])
            if first == last:
                continue
            k = cnt[a:b]
            y = g[level] + den * (np.arange(first, last) + np.repeat(shift[a:b], k))
            diff = m * y - np.repeat(c[a:b], k)
            budget_next = np.repeat(budget[a:b], k) - weights[level] * diff * diff
            dots_next = np.repeat(dots[a:b], k) + av[level] * y
            if level == 0:
                leaves(budget_next, dots_next)
                continue
            centers_next = np.repeat(centers[:level, a:b], k, axis=1) - cross_np[:level, level : level + 1] * y
            del y, diff
            descend(budget_next, centers_next, dots_next, level - 1)

    cross_np = np.array(cross, dtype=np.int64)
    start = np.full(1, scale * smax, dtype=np.int64)
    descend(start, np.zeros((n, 1), dtype=np.int64), np.zeros(1, dtype=np.int64), n - 1)
    flush()

    if dense is not None:
        keys = np.flatnonzero(dense)
        items = zip(keys.tolist(), dense[keys].tolist())
    else:
        items = sorted(sparse.items())
    counts: Dict[Tuple[int, int], int] = {}
    for k, c in items:
        s, rr = divmod(k, width)
        counts[(s, rr - rmax)] = c
    return counts
