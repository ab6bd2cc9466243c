"""Index-raising operators, additive lifts, and paramodular arithmetic.

A degree-2 paramodular expansion of level m is stored as exact coefficients
A(n, r, M) faithful on the box n <= nq, M <= nxi.  The additive lift of a
scalar-index Jacobi form has slices A(n, r, M) = sum over d dividing
gcd(n, r, M) of d^(k-1) c(n M / d^2, r / d); the boundary slice M = 0 is the
correctly scaled level-1 Eisenstein series, which makes the coefficient
symmetry A(n, r, M) = A(M, r, n) hold on the nose.

Products are exact integer convolutions by Kronecker substitution: after
clearing denominators, each (n, M) slice's r-polynomial is packed into one
Python int with B-bit digits, one big-integer multiply per compatible slice
pair does the convolution in r, and each output slice is decoded once in
balanced base-2^B digits.  B comes from the bound
|A(n, r, M)| <= sum |f| * max |g|, so no digit can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, List, Tuple

from .classical import bernoulli, divisors, sigma
from .qseries import as_fraction
from .weil import JacobiForm


@dataclass(frozen=True)
class ParamodularForm:
    """Exact truncated Fourier expansion of a degree-2 form of level ``level``.

    Coefficients A(n, r, M) are faithful for n <= nq and M <= nxi; the
    support satisfies 4 n M level - r^2 >= 0.
    """

    weight: int
    level: int
    coeffs: Dict[Tuple[int, int, int], Fraction]
    nq: int
    nxi: int

    def __post_init__(self):
        clean = {
            k: v
            for k, v in self.coeffs.items()
            if v != 0 and k[0] <= self.nq and k[2] <= self.nxi
        }
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, n: int, r: int, m: int) -> Fraction:
        if n > self.nq or m > self.nxi:
            raise ValueError(f"(n={n}, M={m}) beyond truncation ({self.nq}, {self.nxi})")
        return self.coeffs.get((n, r, m), Fraction(0))

    def support(self) -> List[Tuple[int, int, int]]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ParamodularForm") -> "ParamodularForm":
        if (self.weight, self.level) != (other.weight, other.level):
            raise ValueError("can only add paramodular forms of equal weight and level")
        nq, nxi = min(self.nq, other.nq), min(self.nxi, other.nxi)
        coeffs = {k: v for k, v in self.coeffs.items() if k[0] <= nq and k[2] <= nxi}
        for k, v in other.coeffs.items():
            if k[0] <= nq and k[2] <= nxi:
                coeffs[k] = coeffs.get(k, Fraction(0)) + v
        return ParamodularForm(self.weight, self.level, coeffs, nq, nxi)

    def __rmul__(self, c) -> "ParamodularForm":
        c = as_fraction(c)
        return ParamodularForm(
            self.weight, self.level, {k: c * v for k, v in self.coeffs.items()}, self.nq, self.nxi
        )

    def __mul__(self, other):
        if isinstance(other, ParamodularForm):
            return multiply(self, other)
        return self.__rmul__(other)

    def check_support(self) -> None:
        for (n, r, m), c in self.coeffs.items():
            if 4 * n * m * self.level - r * r < 0:
                raise ValueError(
                    f"coefficient {c} at (n={n}, r={r}, M={m}) violates 4nMm - r^2 >= 0"
                )

    def check_symmetry(self) -> None:
        """A(n, r, M) = A(M, r, n) on the square part of the box."""
        box = min(self.nq, self.nxi)
        for (n, r, m), c in self.coeffs.items():
            if n <= box and m <= box:
                if self.coeffs.get((m, r, n), Fraction(0)) != c:
                    raise ValueError(f"A({n},{r},{m}) = {c} but A({m},{r},{n}) differs")

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "level": self.level,
            "nq": self.nq,
            "nxi": self.nxi,
            "coefficients": {
                f"{n},{r},{m}": [c.numerator, c.denominator]
                for (n, r, m), c in sorted(self.coeffs.items())
            },
        }


# ---------------------------------------------------------------------------
# Index raising


def hecke_V(phi: JacobiForm, m: int) -> JacobiForm:
    """Index-raising operator: (phi | V_M)(n, r) = sum_{d | gcd(n,r,M)} d^(k-1) c(nM/d^2, r/d).

    gcd(0, 0, M) is M.  The output index is M times the input index, with
    truncation floor(nq / M).
    """
    if m < 1:
        raise ValueError("M must be >= 1")
    if phi.index < 1:
        raise ValueError("index-raising needs a positive index")
    k = phi.weight
    nq_out = phi.nq // m
    out: Dict[Tuple[int, int], Fraction] = {}
    new_index = phi.index * m
    for n in range(nq_out + 1):
        rmax = isqrt(4 * n * new_index)
        for r in range(-rmax, rmax + 1):
            g = gcd(gcd(n, r), m)
            total = 0
            for d in divisors(g):
                c = phi.coeffs.get((n * m // (d * d), r // d))
                if c:
                    total += d ** (k - 1) * c
            if total:
                out[(n, r)] = total
    return JacobiForm(k, new_index, out, nq_out)


def gritsenko_lift(phi: JacobiForm, nxi: int) -> ParamodularForm:
    """Additive lift of an index-m Jacobi form to level m, with nxi slices.

    Requires even weight >= 4, or odd weight with vanishing constant term.
    The slice at M = 0 is c(0,0) * (-B_k / 2k) * E_k in the normalization
    with coefficients sigma_{k-1}(n), so A(n, 0, 0) = sigma_{k-1}(n) c(0,0).
    """
    if nxi < 1:
        raise ValueError("nxi must be >= 1")
    if phi.index < 1:
        raise ValueError("lift input must have positive index")
    k = phi.weight
    c00 = phi.coeffs.get((0, 0), Fraction(0))
    if k % 2 == 1:
        if c00 != 0:
            raise ValueError("odd-weight lifts need vanishing constant term")
    elif k < 4:
        raise ValueError(f"even lift weights start at 4, got {k}")
    nq_out = phi.nq // nxi
    coeffs: Dict[Tuple[int, int, int], Fraction] = {}
    if c00 != 0:
        coeffs[(0, 0, 0)] = -bernoulli(k) / (2 * k) * c00
        for n in range(1, nq_out + 1):
            coeffs[(n, 0, 0)] = c00 * sigma(n, k - 1)
    for m in range(1, nxi + 1):
        slice_m = hecke_V(phi, m)
        for (n, r), c in slice_m.coeffs.items():
            if n <= nq_out:
                coeffs[(n, r, m)] = c
    return ParamodularForm(k, phi.index, coeffs, nq_out, nxi)


# ---------------------------------------------------------------------------
# Products and slices


def multiply(f: ParamodularForm, g: ParamodularForm) -> ParamodularForm:
    """Coefficient convolution; weight adds, truncation is the componentwise min.

    Kronecker substitution per (n, M) slice.  Each factor's coefficients in
    the box are scaled to integers by the lcm of their denominators; each
    slice's r-polynomial is packed into one int sum_r c_r 2^(B (r - r0)),
    with r0 the slice's lowest r, so narrow slices pack into short ints.  A
    slice pair is multiplied only when n1 + n2 <= nq and M1 + M2 <= nxi, and
    the products, aligned on their r0 sums, are added into the target
    slice's int, which is decoded once in balanced base-2^B digits through
    one ``int.to_bytes``.

    The digit width is exact: for a fixed output (n, r, M) each f-term meets
    at most one g-term, so |A(n, r, M)| <= sum |f| * max |g| < 2^(B-1) when
    B >= bitlen(sum |f|) + bitlen(max |g|) + 1, and no digit overflows into
    its neighbour.  B is rounded up to whole bytes for the decode.
    """
    if f.level != g.level:
        raise ValueError(f"level mismatch: {f.level} vs {g.level}")
    nq, nxi = min(f.nq, g.nq), min(f.nxi, g.nxi)
    den = 1
    tables = []
    for form in (f, g):
        terms = [(k, v) for k, v in form.coeffs.items() if k[0] <= nq and k[2] <= nxi]
        d = lcm(1, *(v.denominator for _, v in terms))
        tables.append([(k, v.numerator * (d // v.denominator)) for k, v in terms])
        den *= d
    fi, gi = tables
    if not fi or not gi:
        return ParamodularForm(f.weight + g.weight, f.level, {}, nq, nxi)
    bits = sum(abs(c) for _, c in fi).bit_length() + max(abs(c) for _, c in gi).bit_length() + 1
    width = -(-bits // 8)
    shift = 8 * width
    packed = []
    for terms in tables:
        groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for (n, r, m), c in terms:
            groups.setdefault((n, m), []).append((r, c))
        slices = {}
        for key, group in groups.items():
            low = min(r for r, _ in group)
            slices[key] = (low, sum(c << (shift * (r - low)) for r, c in group))
        packed.append(slices)
    fs, gs = packed
    base = min(low for low, _ in fs.values()) + min(low for low, _ in gs.values())
    acc: Dict[Tuple[int, int], int] = {}
    for (n1, m1), (low1, a) in fs.items():
        for (n2, m2), (low2, b) in gs.items():
            if n1 + n2 <= nq and m1 + m2 <= nxi:
                key = (n1 + n2, m1 + m2)
                acc[key] = acc.get(key, 0) + (a * b << (shift * (low1 + low2 - base)))
    half, full = 1 << (shift - 1), 1 << shift
    coeffs: Dict[Tuple[int, int, int], Fraction] = {}
    for (n, m), x in acc.items():
        if not x:
            continue
        # only the digits from the lowest set bit to the length of |x| can be nonzero
        lo = ((x & -x).bit_length() - 1) // shift
        count = abs(x).bit_length() // shift + 1 - lo
        data = (x >> (shift * lo)).to_bytes(count * width, "little", signed=True)
        borrow = 0
        for i in range(count):
            d = int.from_bytes(data[i * width : (i + 1) * width], "little") + borrow
            borrow = d >= half
            if borrow:
                d -= full
            if d:
                coeffs[(n, base + lo + i, m)] = Fraction(d, den)
    return ParamodularForm(f.weight + g.weight, f.level, coeffs, nq, nxi)


def fj_slice(f: ParamodularForm, m: int) -> JacobiForm:
    """The coefficient of xi^M: a Jacobi form of index level * M."""
    if m < 0 or m > f.nxi:
        raise ValueError(f"slice M={m} outside truncation nxi={f.nxi}")
    coeffs = {(n, r): c for (n, r, mm), c in f.coeffs.items() if mm == m}
    return JacobiForm(f.weight, f.level * m, coeffs, f.nq)
