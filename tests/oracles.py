"""Test-only oracles shared by several test modules.

Two independent counting paths check ``omfree.lattice.pairing_counts``:
:func:`enumerate_coset`, an exact Fincke-Pohst search with rational pivots
that returns the vectors themselves (small qmax), and :func:`descent_counts`,
the same descent in exact int64 numpy arrays that returns only the (s, r)
tally (qmax up to production scale).  :func:`pullback_oracle` checks
``omfree.weil.pullback`` by a dict loop over (norm, pairing) pairs in
Python ints.  :func:`rational_cosets` checks the discriminant cosets of
``omfree.lattice.lattice`` from the rational inverse Gram matrix, which
:func:`descent_counts` also uses, so neither depends on the orthogonal frame;
:func:`roots_oracle` checks the vectorised reflection closure
``omfree.lattice._roots`` one tuple at a time.
:func:`multiply_values_oracle` checks the gathered product kernel
``omfree.lifts.multiply_values`` by one multiply-add per nonzero slice, and
:func:`evaluate`, a scatter of a paramodular form's numerators against a
power table of plain ``pow`` residues, checks ``omfree.lifts.lift_values``.
:func:`eta_pow_product` checks the pentagonal power of
``omfree.classical.eta_pow`` by one product of (1 - q^n)^m per n.
:func:`bernoulli_recursive` checks the tangent-number Bernoulli numbers of
``omfree.classical.bernoulli`` by the defining recursion in ``Fraction``.
The ``series_*`` functions check the ``omfree.qseries.QSeries`` operations
on plain ``{exponent: coefficient}`` dicts of ``Fraction`` values, a table
and its truncation, with no integer numerators.  :func:`weak_monomial_weights`
and :func:`sl2_dimension` check ``omfree.freealg.weak_jacobi_dim`` by a
brute-force recursion over the exponent vectors of the weak generators and
the classical dimension formula for M_k(SL2).  :func:`pairing` is the exact
pairing of a dual vector with a lattice vector, which the test enumerations
tally next to the norm.  :func:`canonical_index_set` lists every in-cone
index (n, r, M) of a paramodular truncation box: the width that
``omfree.certify`` reports in each record's ``matrix_shape``.
:func:`monomials_recursive` checks the suffix table of
``omfree.certify.monomial_table`` by a depth-first recursion over the
exponent of each generator in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor, isqrt, lcm
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from omfree.classical import eisenstein_sl2
from omfree.lifts import ParamodularForm, evaluation_width
from omfree.lattice import Coset, LatticeData, Vector, _form, norm, pairing_counts
from omfree.linalg import MODULUS, clear_denominators, solve
from omfree.qseries import QSeries, as_fraction
from omfree.weil import ComponentForm, JacobiForm

#: Every lattice in the registry, sorted by name.
LATTICES = sorted(
    [f"A{n}" for n in range(1, 8)] + ["2A1", "3A1", "4A1"] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7"]
)


@lru_cache(maxsize=None)
def bernoulli_recursive(n: int) -> Fraction:
    """B_n with B_1 = -1/2 from sum_{j <= n} C(n+1, j) B_j = 0, one ``Fraction`` sum per n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(1)
    return -sum((comb(n + 1, j) * bernoulli_recursive(j) for j in range(n)), Fraction(0)) / (n + 1)


def eta_pow_product(m: int, prec) -> QSeries:
    """eta^m = q^(m/24) prod (1 - q^n)^m, one binomial expansion of (1 - q^n)^m per n < prec."""
    prec = as_fraction(prec)
    prod = QSeries.one(prec)
    for n in range(1, ceil(prec)):
        # (1 - q^n)^m without its terms at or past the truncation
        factor = {Fraction(n * j): (-1) ** j * comb(m, j) for j in range(m + 1) if n * j < prec}
        prod = prod * QSeries.from_numerators(factor, 1, prec)
    return prod.shift(Fraction(m, 24)).truncate(prec)


#: A truncated q-series as a plain table: ({exponent: nonzero coefficient}, truncation), all ``Fraction``.
SeriesTable = Tuple[Dict[Fraction, Fraction], Fraction]


def series_table(terms, truncation) -> SeriesTable:
    """The table of ``terms`` below ``truncation``, zero coefficients dropped."""
    trunc = Fraction(truncation)
    return {Fraction(e): Fraction(c) for e, c in terms.items() if c != 0 and e < trunc}, trunc


def series_add(a: SeriesTable, b: SeriesTable) -> SeriesTable:
    total = dict(a[0])
    for e, c in b[0].items():
        total[e] = total.get(e, Fraction(0)) + c
    return series_table(total, min(a[1], b[1]))


def series_scale(a: SeriesTable, c) -> SeriesTable:
    return series_table({e: c * v for e, v in a[0].items()}, a[1])


def series_mul(a: SeriesTable, b: SeriesTable) -> SeriesTable:
    product: Dict[Fraction, Fraction] = {}
    for e1, c1 in a[0].items():
        for e2, c2 in b[0].items():
            product[e1 + e2] = product.get(e1 + e2, Fraction(0)) + c1 * c2
    return series_table(product, min(a[1], b[1]))


def series_pow(a: SeriesTable, n: int) -> SeriesTable:
    """a^n by n - 1 plain products; a^0 is 1 at a's truncation."""
    result = series_table({0: 1}, a[1])
    for _ in range(n):
        result = series_mul(result, a)
    return result


def series_rescale(a: SeriesTable, c) -> SeriesTable:
    return series_table({c * e: v for e, v in a[0].items()}, c * a[1])


def series_half_twist(a: SeriesTable) -> SeriesTable:
    """tau -> (tau + 1)/2 on integer exponents: c q^n goes to (-1)^n c q^(n/2)."""
    return series_table({e / 2: (-1) ** int(e) * v for e, v in a[0].items()}, a[1] / 2)


def series_shift(a: SeriesTable, e0) -> SeriesTable:
    return series_table({e + e0: v for e, v in a[0].items()}, a[1] + e0)


def sl2_monomial_basis(k: int, prec):
    """All monomials E4^a E6^b of weight k, as ((a, b), expansion) pairs."""
    if k % 2 or k < 0:
        raise ValueError(f"weight must be even and nonnegative, got {k}")
    e4 = eisenstein_sl2(4, prec).series if k >= 4 else None
    e6 = eisenstein_sl2(6, prec).series if k >= 6 else None
    out = []
    for b in range(k // 6 + 1):
        rest = k - 6 * b
        if rest % 4:
            continue
        a = rest // 4
        mono = QSeries.one(prec)
        if a:
            mono = mono * e4**a
        if b:
            mono = mono * e6**b
        out.append(((a, b), mono))
    return out


def sl2_dimension(k: int) -> int:
    """dim M_k(SL2) by the classical formula: floor(k/12), plus 1 unless k = 2 mod 12."""
    if k < 0 or k % 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def monomials_recursive(weights: Sequence[int], w: int) -> List[Tuple[int, ...]]:
    """All exponent vectors e >= 0 with sum e_i weights_i = w, by recursion over e_0, e_1, ... in increasing order."""
    out: List[Tuple[int, ...]] = []

    def recurse(i: int, remaining: int, expo: List[int]) -> None:
        if i == len(weights):
            if remaining == 0:
                out.append(tuple(expo))
            return
        for e in range(remaining // weights[i] + 1):
            recurse(i + 1, remaining - e * weights[i], expo + [e])

    recurse(0, w, [])
    return out


def weak_monomial_weights(generators: Sequence[Tuple[int, int]], t: int, least: Optional[int] = None) -> Counter:
    """{s: number of exponent vectors e >= 0 with sum e_j m_j = t and sum e_j k_j = s}.

    A brute-force recursion over the generators (k_j, m_j), steepest k_j/m_j
    first.  With ``least``, only vectors with s >= least are counted: a
    branch is cut when even the steepest remaining generator cannot reach it.
    """
    gens = sorted(generators, key=lambda g: Fraction(g[0], g[1]), reverse=True)
    out: Counter = Counter()

    def recurse(j: int, index: int, weight: int) -> None:
        kj, mj = gens[j]
        if least is not None and (weight - least) * mj + index * kj < 0:
            return
        if index == 0 or j == len(gens) - 1:
            if index % mj == 0:
                out[weight + index // mj * kj] += 1
            return
        for e in range(index // mj + 1):
            recurse(j + 1, index - e * mj, weight + e * kj)

    recurse(0, t, 0)
    return out


def pullback_oracle(form: ComponentForm, v: Sequence[int], nq: int) -> JacobiForm:
    """``weil.pullback`` by a dict loop: each (s, r) count times the numerator at n*scale - s.

    Counts come from ``pairing_counts`` at qmax = nq, coset by coset, without
    the counts cache; every product and sum is a Python int.
    """
    lat = form.lattice
    v = tuple(v)
    den = lcm(1, *(c.denominator for comp in form.components for _, c in comp.terms()))
    acc: Dict[Tuple[int, int], int] = {}
    for coset, comp in zip(lat.cosets, form.components):
        scale = 2 * coset.denominator**2
        numerators = {int(e * scale): c.numerator * (den // c.denominator) for e, c in comp.terms()}
        for (s, r), count in pairing_counts(lat, coset, v, nq).items():
            for n in range(-(-s // scale), nq + 1):
                c = numerators.get(n * scale - s)
                if c:
                    acc[(n, r)] = acc.get((n, r), 0) + count * c
    return JacobiForm.from_numerators(int(form.weight), int(norm(lat, v)), acc, den, nq)


# ---------------------------------------------------------------------------
# Discriminant cosets from the rational inverse


def multiply_values_oracle(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Residue product by a slice loop: one numpy multiply-add per nonzero slice of ``f``.

    The truncated (n, M) convolution of ``lifts.multiply_values``, pointwise
    in the last axis; each term is reduced below p before it is added.
    """
    a, b = min(f.shape[0], g.shape[0]), min(f.shape[1], g.shape[1])
    out = np.zeros((a, b, f.shape[2]), dtype=np.int64)
    for n, m in zip(*np.nonzero(f[:a, :b].any(axis=2))):
        out[n:, m:] += f[n, m] * g[: a - n, : b - m] % MODULUS
    return out % MODULUS


def evaluate(f: ParamodularForm, points: Optional[int] = None) -> np.ndarray:
    """f's numerators mod p, each (n, M) slice's r-polynomial at the points 1..K.

    An int64 array of shape (f.nq + 1, f.nxi + 1, K), K = min(points, W)
    with W = ``evaluation_width(f.level, f.nq, f.nxi)`` and K = W by
    default: entry (n, M, j) is sum_r nums[(n, r, M)] (j + 1)^r mod p.
    Every coefficient must satisfy r^2 <= 4 n M level, as lifts do, so the
    first 2 isqrt(4 n M level) + 1 values of a slice determine it (a
    Vandermonde matrix times a diagonal one, invertible mod p); with fewer
    points the values are the first columns of that map.  The dot products
    run on the power table split into 16-bit halves, so each term is below
    2^47 and W of them fit int64.
    """
    width = evaluation_width(f.level, f.nq, f.nxi)
    rmax = (width - 1) // 2
    points = width if points is None else min(points, width)
    coeffs = np.zeros((f.nq + 1, f.nxi + 1, width), dtype=np.int64)
    for (n, r, m), c in f.nums.items():
        if r * r > 4 * n * m * f.level:
            raise ValueError(f"coefficient at (n={n}, r={r}, M={m}) violates 4nMm - r^2 >= 0")
        coeffs[n, m, r + rmax] = c % MODULUS
    powers = np.array(
        [[pow(x, r, MODULUS) for x in range(1, points + 1)] for r in range(-rmax, rmax + 1)], dtype=np.int64
    ).reshape(width, points)
    high = coeffs @ (powers >> 16) % MODULUS
    low = coeffs @ (powers & 0xFFFF) % MODULUS
    return ((high << 16) + low) % MODULUS


def rational_inverse(gram) -> List[List[Fraction]]:
    """Inverse of a nonsingular integer matrix, one exact solve per column."""
    n = len(gram)
    cols = [solve(gram, [int(i == j) for i in range(n)]).values for j in range(n)]
    return [list(row) for row in zip(*cols)]


def roots_oracle(gram) -> List[Tuple[int, ...]]:
    """Every norm-2 vector, sorted: the closure of the simple roots e_j under the reflections
    y -> y - (A y)_j e_j, one tuple at a time."""
    n = len(gram)

    def reflect(y, j):
        return y[:j] + (y[j] - sum(a * b for a, b in zip(gram[j], y)),) + y[j + 1:]

    seen = frontier = {tuple(int(i == j) for i in range(n)) for j in range(n)}
    while frontier:
        frontier = {reflect(y, j) for y in frontier for j in range(n)} - seen
        seen = seen | frontier
    return sorted(seen)


def rational_cosets(gram) -> Tuple[Coset, ...]:
    """L'/L with reps in [0,1)^n: zero first, then by (norm mod 1, rep), all in Fractions."""
    n = len(gram)
    inv = rational_inverse(gram)
    gens = [tuple(inv[i][j] % 1 for i in range(n)) for j in range(n)]
    seen = frontier = {tuple(Fraction(0) for _ in range(n))}
    while frontier:
        frontier = {tuple((a + b) % 1 for a, b in zip(x, g)) for x in frontier for g in gens} - seen
        seen = seen | frontier

    def norm_mod1(rep):
        return sum(rep[i] * gram[i][j] * rep[j] for i in range(n) for j in range(n)) / 2 % 1

    reps = sorted(seen, key=lambda rep: (any(rep), norm_mod1(rep), rep))
    return tuple(
        Coset(i, rep, norm_mod1(rep), lcm(1, *(x.denominator for x in rep))) for i, rep in enumerate(reps)
    )


# ---------------------------------------------------------------------------
# Exact enumeration with rational pivots


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


def pairing(lat: LatticeData, dual_vec: Sequence, v: Sequence) -> int:
    """<l, v> = l^T A v; must be an integer when l is dual and v integral."""
    n = lat.rank
    if len(dual_vec) != n or len(v) != n:
        raise ValueError("dimension mismatch")
    (x, dx), (y, dy) = clear_denominators(dual_vec), clear_denominators(v)
    total = Fraction(_form(lat.gram, x, y), dx * dy)
    if total.denominator != 1:
        raise ValueError(f"pairing {total} is not integral; vector is not in the dual lattice")
    return int(total)


def canonical_index_set(level: int, nq: int, nxi: int) -> List[Tuple[int, int, int]]:
    """All (n, r, M) with n <= nq, M <= nxi, |r| <= sqrt(4 n M level), lexicographic."""
    out = []
    for n in range(nq + 1):
        rmax_n = isqrt(4 * n * nxi * level)
        for r in range(-rmax_n, rmax_n + 1):
            for m in range(nxi + 1):
                if 4 * n * m * level - r * r >= 0:
                    out.append((n, r, m))
    return out


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
    out: List[Tuple[Tuple[int, ...], Tuple[Vector, Fraction]]] = []
    coords: List[Fraction] = [Fraction(0)] * n
    # coords[i] = rep[i] + steps[i]: the integer steps order the vectors as their coordinates do
    steps: List[int] = [0] * n
    smax = 2 * qmax

    def recurse(i: int, remaining: Fraction):
        if i < 0:
            # the recursion has already accumulated y^T A y = smax - remaining
            out.append((tuple(steps), (tuple(coords), (smax - remaining) / 2)))
            return
        center = -sum(u[i][j] * coords[j] for j in range(i + 1, n))
        # d_i (y_i + c)^2 <= remaining with y_i in rep[i] + Z
        bound = remaining / d[i]
        lo, hi = _fraction_sqrt_range(center, bound, rep[i])
        for t in range(lo, hi + 1):
            y = rep[i] + t
            coords[i], steps[i] = y, t
            used = d[i] * (y - center) * (y - center)
            if used <= remaining:
                recurse(i - 1, remaining - used)
        coords[i] = Fraction(0)

    recurse(n - 1, smax)
    return [entry for _, entry in sorted(out)]


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
# Integer Fincke-Pohst descent, vectorised with numpy

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
    inv = rational_inverse(gram)
    return _ScaledLDL(scale, weights, tuple(mults), cross, tuple(inv[j][j] for j in range(n)))


def _check_int64(what: str, value: int, qmax) -> None:
    if value >= _INT64_LIMIT:
        raise ValueError(
            f"descent_counts: {what} = {value} does not fit the int64 descent (limit 2^62); "
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


def descent_counts(lat: LatticeData, coset, direction: Sequence[int], qmax) -> Dict[Tuple[int, int], int]:
    """Exact counts of coset vectors by (scaled norm, pairing with direction).

    Returns a dict mapping ``(s, r) -> count`` where ``s = 2*den^2*Q(l)`` (an
    integer; ``den`` is the coset denominator) and ``r = <l, direction>``,
    over all ``l`` in the coset with ``Q(l) <= qmax``.

    The search runs on y = den*l, an integer vector with y = g = den*rep mod den
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

    When the coset is its own negative (2*g = 0 mod den), l -> -l maps
    it onto itself with Q(-l) = Q(l) and <-l, v> = -<l, v>, so
    counts(s, r) = counts(s, -r).  The top level's center is 0, so its
    admissible y_top are symmetric about 0: the descent visits y_top > 0,
    adds the r-mirror of that tally in place, then visits the y_top = 0
    slice (present iff g_top = 0 mod den) without mirroring.  Other cosets
    take the same descent over the whole top level.
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

    def mirror() -> None:
        # add the tally's image under r -> -r in place; the center column doubles
        flush()
        if dense is not None:
            # r < 0 and, reversed, r > 0: disjoint views, so the two ufuncs
            # buffer a few rows at a time where rows[:, ::-1] would copy the box
            rows = dense.reshape(smax + 1, width)
            neg, pos = rows[:, :rmax], rows[:, :rmax:-1]
            neg += pos
            np.positive(neg, out=pos)
            rows[:, rmax] *= 2
        else:
            for k, c in list(sparse.items()):
                k_mirror = k + width - 1 - 2 * (k % width)
                sparse[k_mirror] = sparse.get(k_mirror, 0) + c

    def descend(budget: np.ndarray, centers: np.ndarray, dots: np.ndarray, level: int) -> None:
        # budget: N per row; centers[k]: C_k per row for k <= level; dots: partial y.Av
        m, step = mults[level], mults[level] * den
        c = centers[level]
        t = _isqrt_floor(budget // weights[level])
        # y = g + den*j with C - t <= M y <= C + t
        lo = -((g[level] * m - c + t) // step)
        cnt = np.maximum((c + t - g[level] * m) // step - lo + 1, 0)
        expand(budget, centers, dots, level, lo, cnt)

    def expand(
        budget: np.ndarray, centers: np.ndarray, dots: np.ndarray, level: int, lo: np.ndarray, cnt: np.ndarray
    ) -> None:
        # the children y = g + den*j, lo <= j < lo + cnt, of every row at this level
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
            diff = mults[level] * y - np.repeat(centers[level, a:b], k)
            budget_next = np.repeat(budget[a:b], k) - weights[level] * diff * diff
            dots_next = np.repeat(dots[a:b], k) + av[level] * y
            if level == 0:
                leaves(budget_next, dots_next)
                continue
            centers_next = np.repeat(centers[:level, a:b], k, axis=1) - cross_np[:level, level : level + 1] * y
            del y, diff
            descend(budget_next, centers_next, dots_next, level - 1)

    cross_np = np.array(cross, dtype=np.int64)
    top = n - 1
    start = (np.full(1, scale * smax, dtype=np.int64), np.zeros((n, 1), dtype=np.int64), np.zeros(1, dtype=np.int64))
    if any(2 * x % den for x in g):
        descend(*start, top)
    else:
        # self-negative coset: y_top > 0, its mirror in r, then the y_top = 0 slice
        first = -g[top] // den + 1  # smallest j with y_top > 0
        last = (isqrt(scale * smax // weights[top]) - g[top] * mults[top]) // (mults[top] * den)  # M y_top <= t
        expand(*start, top, np.array([first]), np.array([max(last - first + 1, 0)]))
        mirror()
        if g[top] % den == 0:
            expand(*start, top, np.array([-g[top] // den]), np.ones(1, dtype=np.int64))
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
