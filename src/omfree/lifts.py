"""Index-raising operators, additive lifts, and paramodular arithmetic.

A degree-2 paramodular expansion of level m is stored as exact coefficients
A(n, r, M) faithful on the box n <= nq, M <= nxi.  The additive lift of a
scalar-index Jacobi form has slices A(n, r, M) = sum over d dividing
gcd(n, r, M) of d^(k-1) c(n M / d^2, r / d); the boundary slice M = 0 is the
correctly scaled level-1 Eisenstein series, which makes the coefficient
symmetry A(n, r, M) = A(M, r, n) hold on the nose.

Coefficients are held as integer numerators over one common denominator,
in lowest terms: ``qseries.NumeratorStore``, the store ``JacobiForm``
shares.  Index raising and the lift read the Jacobi input's numerators;
sums, scalings and products run on integers, and ``Fraction`` values are
built only at the boundary: the rational constructor, ``coeffs``,
``coefficient`` and the JSON form.

Products are the Kronecker substitution every coefficient store shares,
``qseries.kronecker_product``, with slices (n, M).

A rank certificate needs products only mod the prime ``linalg.MODULUS``,
and there they are cheaper in r-evaluation space: each (n, M) slice's
numerators are reduced mod p and the slice's Laurent polynomial in r is
evaluated at the points x = 1..W, which determine every slice of the box,
or at only the first K of them.  Either way each value is a linear image
of the slice's coefficients, so the rank of the values of a set of forms
is at most the rank of their numerators (see ``certify``).
:func:`lift_values` gives these values for a lift straight from its Jacobi
input, without building the lift: slice (n, M) at x is
sum_{d | gcd(n, M)} d^(k-1) Phi_(nM/d^2)(x^d), with Phi_N(y) the row N of
the input as a Laurent polynomial in y.  :func:`multiply_values`
multiplies two such arrays pointwise in the points, with a truncated
convolution over (n, M) done as one gathered kernel.  For
h = ``multiply(f, g)``, the values of h times f.den * g.den // h.den are
exactly the pointwise product of the factors', at any number of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm
from typing import Dict, List, Tuple

import numpy as np

from .classical import bernoulli, divisors
from .linalg import MODULUS
from .qseries import NumeratorStore, kronecker_product
from .weil import JacobiForm

Key = Tuple[int, int, int]


@dataclass(frozen=True, init=False)
class ParamodularForm(NumeratorStore):
    """Exact truncated Fourier expansion of a degree-2 form of level ``level``.

    Coefficients A(n, r, M) are faithful for n <= nq and M <= nxi; the
    support satisfies 4 n M level - r^2 >= 0.  A(n, r, M) is
    ``nums[(n, r, M)] / den`` (see ``qseries.NumeratorStore``);
    ``ParamodularForm(weight, level, coeffs, nq, nxi)`` takes rational
    coefficients, ``from_numerators(weight, level, nums, den, nq, nxi)``
    integer ones.
    """

    weight: int
    level: int
    nums: Dict[Key, int]
    den: int
    nq: int
    nxi: int

    def _in_box(self, key: Key) -> bool:
        return key[0] <= self.nq and key[2] <= self.nxi

    def coefficient(self, n: int, r: int, m: int) -> Fraction:
        if n > self.nq or m > self.nxi:
            raise ValueError(f"(n={n}, M={m}) beyond truncation ({self.nq}, {self.nxi})")
        return Fraction(self.nums.get((n, r, m), 0), self.den)

    def __mul__(self, other):
        if isinstance(other, ParamodularForm):
            return multiply(self, other)
        return self.__rmul__(other)

    def check_support(self) -> None:
        for (n, r, m), c in self.nums.items():
            if 4 * n * m * self.level - r * r < 0:
                raise ValueError(
                    f"coefficient {Fraction(c, self.den)} at (n={n}, r={r}, M={m}) violates 4nMm - r^2 >= 0"
                )

    def check_symmetry(self) -> None:
        """A(n, r, M) = A(M, r, n) on the square part of the box."""
        box = min(self.nq, self.nxi)
        for (n, r, m), c in self.nums.items():
            if n <= box and m <= box and self.nums.get((m, r, n), 0) != c:
                raise ValueError(
                    f"A({n},{r},{m}) = {Fraction(c, self.den)} but A({m},{r},{n}) differs"
                )


# ---------------------------------------------------------------------------
# Index raising


def _raised(phi: JacobiForm, slices: List[Tuple[int, int]]) -> Dict[Key, int]:
    """Numerators over phi.den of sum_{d | gcd(n, r, M)} d^(k-1) c(nM/d^2, r/d) at each (n, M) in ``slices``.

    phi's numerators are grouped by n once; each divisor d of gcd(n, M)
    maps row nM/d^2 to r = d r', and a term with r^2 > 4 n M index is
    dropped.  gcd(n, 0) = n, so slice M = 0 is sigma_{k-1}(n) c(0, 0).
    """
    rows: Dict[int, List[Tuple[int, int]]] = {}
    for (n, r), c in phi.nums.items():
        rows.setdefault(n, []).append((r, c))
    out: Dict[Key, int] = {}
    for n, m in slices:
        bound = 4 * n * m * phi.index
        for d in divisors(gcd(n, m)):
            scale = d ** (phi.weight - 1)
            for r, c in rows.get(n * m // (d * d), ()):
                r *= d
                if r * r <= bound:
                    out[(n, r, m)] = out.get((n, r, m), 0) + scale * c
    return out


def hecke_V(phi: JacobiForm, m: int) -> JacobiForm:
    """Index-raising operator: (phi | V_M)(n, r) = sum_{d | gcd(n,r,M)} d^(k-1) c(nM/d^2, r/d).

    gcd(0, 0, M) is M.  The output has index M times phi's and truncation
    floor(phi.nq / M): :func:`_raised` on the slices (n, M), over ``phi.den``.
    """
    if m < 1:
        raise ValueError("M must be >= 1")
    if phi.index < 1:
        raise ValueError("index-raising needs a positive index")
    nq = phi.nq // m
    nums = {(n, r): c for (n, r, _), c in _raised(phi, [(n, m) for n in range(nq + 1)]).items()}
    return JacobiForm.from_numerators(phi.weight, phi.index * m, nums, phi.den, nq)


def _lift_constant(phi: JacobiForm, nxi: int) -> Fraction:
    """A(0, 0, 0) = c(0,0) (-B_k / 2k) of phi's lift, once phi and nxi pass the lift's checks."""
    if nxi < 1:
        raise ValueError("nxi must be >= 1")
    if phi.index < 1:
        raise ValueError("lift input must have positive index")
    k = phi.weight
    c00 = phi.nums.get((0, 0), 0)
    if k % 2 == 1:
        if c00 != 0:
            raise ValueError("odd-weight lifts need vanishing constant term")
    elif k < 4:
        raise ValueError(f"even lift weights start at 4, got {k}")
    return -bernoulli(k) / (2 * k) * Fraction(c00, phi.den)


def gritsenko_lift(phi: JacobiForm, nxi: int) -> ParamodularForm:
    """Additive lift of an index-m Jacobi form to level m, with nxi slices.

    Requires even weight >= 4, or odd weight with vanishing constant term.
    A(0, 0, 0) is c(0,0) * (-B_k / 2k), the constant of the correctly scaled
    E_k; every other coefficient of the box n <= floor(phi.nq / nxi),
    M <= nxi comes from one :func:`_raised` pass, the slice M = 0 giving
    A(n, 0, 0) = sigma_{k-1}(n) c(0,0).  The numerators are over one
    denominator, the lcm of phi's and the constant's.
    """
    boundary = _lift_constant(phi, nxi)
    nq_out = phi.nq // nxi
    den = lcm(boundary.denominator, phi.den)
    nums = _raised(phi, [(n, m) for m in range(nxi + 1) for n in range(nq_out + 1) if n or m])
    for key in nums:
        nums[key] *= den // phi.den
    nums[(0, 0, 0)] = boundary.numerator * (den // boundary.denominator)
    return ParamodularForm.from_numerators(phi.weight, phi.index, nums, den, nq_out, nxi)


# ---------------------------------------------------------------------------
# Products


def multiply(f: ParamodularForm, g: ParamodularForm) -> ParamodularForm:
    """Coefficient convolution; weight adds, truncation is the componentwise min.

    ``qseries.kronecker_product`` on the factors' integer numerators, with
    slices (n, M): a slice pair is kept when n1 + n2 <= nq and
    M1 + M2 <= nxi.  The product's denominator is the product of theirs.
    """
    if f.level != g.level:
        raise ValueError(f"level mismatch: {f.level} vs {g.level}")
    nq, nxi = min(f.nq, g.nq), min(f.nxi, g.nxi)
    fs, gs = ((((n, m), r, c) for (n, r, m), c in form.nums.items()) for form in (f, g))
    nums = {(n, r, m): c for (n, m), r0, cs in kronecker_product(fs, gs, (nq, nxi)) for r, c in enumerate(cs, r0) if c}
    return ParamodularForm.from_numerators(f.weight + g.weight, f.level, nums, f.den * g.den, nq, nxi)


# ---------------------------------------------------------------------------
# Residues in r-evaluation space


def _check_int64(what: str, value: int) -> None:
    if value >= 1 << 63:
        raise ValueError(f"{what} = {value} does not fit int64 residue arithmetic")


def evaluation_width(level: int, nq: int, nxi: int) -> int:
    """W = 2 isqrt(4 nq nxi level) + 1: the evaluation points of the (nq, nxi) box."""
    return 2 * isqrt(4 * nq * nxi * level) + 1


#: Power tables kept, one per (width, points); the least recently used goes first.
_POWERS_LIMIT = 64


@lru_cache(maxsize=_POWERS_LIMIT)
def _powers(width: int, points: int) -> np.ndarray:
    """x^r mod p at row r + R, column j, for x = j + 1 <= points and |r| <= R = (width - 1) // 2."""
    rmax = (width - 1) // 2
    x = np.arange(1, points + 1, dtype=np.int64)
    inverse = np.array([pow(int(v), -1, MODULUS) for v in x], dtype=np.int64)
    table = np.ones((width, points), dtype=np.int64)
    for k in range(1, rmax + 1):
        table[rmax + k] = table[rmax + k - 1] * x % MODULUS
        table[rmax - k] = table[rmax - k + 1] * inverse % MODULUS
    table.flags.writeable = False  # shared by every caller through the cache
    return table


#: Divisor slot tables kept, one per (nq, nxi) box; the least recently used goes first.
_DIVISOR_SLOTS_LIMIT = 32


@lru_cache(maxsize=_DIVISOR_SLOTS_LIMIT)
def _divisor_slots(nq: int, nxi: int) -> Tuple[Tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]:
    """(d, n, M, nM/d^2) per divisor d: the slots (n, M) != (0, 0) of the box with d | gcd(n, M)."""
    out = []
    for d in range(1, max(nq, nxi) + 1):
        slots = [(n, m) for n in range(nq + 1) for m in range(nxi + 1) if (n or m) and gcd(n, m) % d == 0]
        ns, ms = (np.array(x, dtype=np.intp) for x in zip(*slots))
        arrays = (ns, ms, ns * ms // (d * d))
        for x in arrays:
            x.flags.writeable = False  # shared by every caller through the cache
        out.append((d, *arrays))
    return tuple(out)


def lift_values(phi: JacobiForm, nxi: int, points: int) -> np.ndarray:
    """The residues of phi's lift, each (n, M) slice's r-polynomial at the points 1..K, without the lift.

    An int64 array of shape (nq + 1, nxi + 1, K), nq = floor(phi.nq / nxi),
    K = min(points, W) and W = ``evaluation_width(phi.index, nq, nxi)``:
    entry (n, M, j) is sum_r D A(n, r, M) (j + 1)^r mod p, with A the
    coefficients of ``gritsenko_lift(phi, nxi)`` and D = lcm(phi.den, the
    denominator of A(0, 0, 0)), so the lift's numerators times the integer
    D / lift.den.  Slice (n, M) at x is D A(0, 0, 0) for n = M = 0 and
    otherwise (D / phi.den) sum_{d | gcd(n, M)} d^(k-1) Phi_(nM/d^2)(x^d),
    with Phi_N(y) = sum c(N, r') y^r' over the cone r'^2 <= 4 N index, the
    terms :func:`_raised` keeps, so |d r'| <= (W - 1) / 2.  Each divisor d
    is one dot product of the rows Phi_N, N <= nq nxi / d^2, against the
    rows d r' of the power table split into 16-bit halves, so each term is
    below 2^47 and W of them fit int64.  Raises the lift's ``ValueError``
    on the same inputs.
    """
    boundary = _lift_constant(phi, nxi)
    nq, index, k = phi.nq // nxi, phi.index, phi.weight
    width = evaluation_width(index, nq, nxi)
    _check_int64("W * 2^47", width << 47)
    rmax = (width - 1) // 2
    powers = _powers(width, min(points, width))
    high, low = powers >> 16, powers & 0xFFFF
    top = nq * nxi
    # row N, column r' + R: c(N, r') mod p on the cone r'^2 <= 4 N index
    terms = len(phi.nums)
    keys = np.fromiter(chain.from_iterable(phi.nums), dtype=np.int64, count=2 * terms).reshape(-1, 2)
    residues = np.fromiter((c % MODULUS for c in phi.nums.values()), dtype=np.int64, count=terms)
    n, r = keys[:, 0], keys[:, 1]
    cone = (n <= top) & (r * r <= 4 * n * index)
    rows = np.zeros((top + 1, width), dtype=np.int64)
    rows[n[cone], r[cone] + rmax] = residues[cone]
    den = lcm(boundary.denominator, phi.den)
    scale = den // phi.den % MODULUS
    out = np.zeros((nq + 1, nxi + 1, powers.shape[1]), dtype=np.int64)
    for d, ns, ms, targets in _divisor_slots(nq, nxi):
        reach = rmax // d
        block = rows[: top // (d * d) + 1, rmax - reach : rmax + reach + 1]
        taps = slice(rmax - d * reach, rmax + d * reach + 1, d)
        upper = block @ high[taps] % MODULUS
        lower = block @ low[taps] % MODULUS
        values = ((upper << 16) + lower) % MODULUS
        factor = pow(d, k - 1, MODULUS) * scale % MODULUS
        out[ns, ms] = (out[ns, ms] + values[targets] * factor) % MODULUS
    out[0, 0] = boundary.numerator * (den // boundary.denominator) % MODULUS
    return out


#: Convolution index triples kept, one per (a, b) box; the least recently used goes first.
_CONVOLUTION_INDEX_LIMIT = 32


@lru_cache(maxsize=_CONVOLUTION_INDEX_LIMIT)
def _convolution_index(a: int, b: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (target, f-slice, g-slice) triples of the truncated (a, b) box, flattened.

    Slices are numbered n b + M.  Triples are grouped by target in order;
    ``starts`` holds each target's first triple, for ``np.add.reduceat``,
    and every target has at least its (0, 0) term.
    """
    f_index, g_index, starts = [], [], []
    for n in range(a):
        for m in range(b):
            starts.append(len(f_index))
            for n1 in range(n + 1):
                for m1 in range(m + 1):
                    f_index.append(n1 * b + m1)
                    g_index.append((n - n1) * b + m - m1)
    arrays = tuple(np.array(x, dtype=np.intp) for x in (f_index, g_index, starts))
    for x in arrays:
        x.flags.writeable = False  # shared by every caller through the cache
    return arrays


def multiply_values(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The evaluation of the product, from the evaluations of the factors.

    Pointwise in the last axis, a convolution over (n, M) truncated to the
    smaller box, as one gathered kernel: every (target, f-slice, g-slice)
    triple of the box is multiplied mod p at once and the terms of each
    target are summed by one ``np.add.reduceat``.  Each term is below p, so
    the at most (nq + 1)(nxi + 1) terms of an entry stay below 2^63.
    """
    if f.shape[2] != g.shape[2]:
        raise ValueError(f"evaluation widths differ: {f.shape[2]} vs {g.shape[2]}")
    a, b = min(f.shape[0], g.shape[0]), min(f.shape[1], g.shape[1])
    _check_int64("slice terms * p", a * b * MODULUS)
    f_index, g_index, starts = _convolution_index(a, b)
    fs = f[:a, :b].reshape(a * b, -1)
    gs = g[:a, :b].reshape(a * b, -1)
    terms = fs[f_index] * gs[g_index] % MODULUS
    return (np.add.reduceat(terms, starts, axis=0) % MODULUS).reshape(a, b, -1)

