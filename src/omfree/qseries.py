"""Exact truncated q-expansions with bounded fractional exponents.

Every expansion in this package is a finite sum ``sum c_e * q^e`` where the
coefficients ``c_e`` are exact rationals and the exponents ``e`` are
nonnegative rationals whose denominators divide a small bound.  A series
carries a truncation ``T``: all terms with exponent ``< T`` are faithfully
represented and everything at or beyond ``T`` is unknown.  Arithmetic always
propagates the smaller truncation of its operands; precision is never
silently extended.  There is no floating point anywhere.

Every exact coefficient table (q-series, Jacobi forms, paramodular forms)
shares one store, :class:`NumeratorStore`: integer numerators over one
common denominator, in lowest terms, with a read-only ``Fraction`` view for
the edges of a layer, one exact product on it, :func:`kronecker_product`,
and one exact solve, :func:`express_in_basis`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from numbers import Rational
from operator import add, le, sub
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .linalg import clear_denominators, solve

RationalLike = Union[int, Fraction]

#: Largest allowed denominator of an exponent.  q^(1/2) arises from level-2
#: slash operators, q^(1/3) from eta^8, q^(1/4) from half-integral towers;
#: 24 covers all of them with room for eta itself.
DEFAULT_EXPONENT_DENOMINATOR_CAP = 24


class ExponentDenominatorError(ValueError):
    """An operation would produce exponent denominators above the cap."""


class TruncationError(ValueError):
    """A coefficient beyond the faithful range was requested."""


def as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


class _RationalView(Mapping):
    """Read-only map from a key to numerator / denominator as a ``Fraction``."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: Dict[Hashable, int], den: int):
        self._nums, self._den = nums, den

    def __getitem__(self, key: Hashable) -> Fraction:
        return Fraction(self._nums[key], self._den)

    def __iter__(self) -> Iterator:
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)


class NumeratorStore:
    """Exact rational coefficients as integer numerators over one denominator.

    The coefficient at ``key`` is ``nums[key] / den``: ``nums`` holds
    nonzero ints on the keys inside the truncation box, ``den`` is positive
    and gcd(den, *nums) = 1, so equal coefficient tables give equal stores.
    Sums and scalings read and write integers; ``Fraction`` values are
    built only by the rational constructor and the ``coeffs`` view.

    A subclass is a frozen dataclass with ``init=False`` whose fields are
    its head (``weight`` and its grading for Jacobi and paramodular forms,
    nothing for a q-series), ``nums``, ``den`` and then its truncation
    bounds; ``_in_box`` says which keys the bounds keep, and may raise on a
    key no bound can hold.  Both constructors take the head, the
    coefficients and the bounds in that field order.
    """

    nums: Dict[Hashable, int]
    den: int

    def __init_subclass__(cls, **kwargs):
        """Set ``_head`` and ``_bounds``: the names of the fields before ``nums`` and after ``den``."""
        super().__init_subclass__(**kwargs)
        names = list(cls.__annotations__)
        at = names.index("nums")
        cls._head, cls._bounds = tuple(names[:at]), tuple(names[at + 2:])

    def __init__(self, *args):
        """From the head, exact rational (or integer) coefficients by key, and the bounds."""
        at = len(self._head)
        coeffs = args[at]
        nums, den = clear_denominators([as_fraction(v) for v in coeffs.values()])
        self._set(args[:at], dict(zip(coeffs, nums)), den, args[at + 1:])

    @classmethod
    def from_numerators(cls, *args):
        """From the head, integer ``nums``, ``den`` (any nonzero int) and the bounds.

        The store may keep the ``nums`` dict itself, so the caller must not change it afterwards.
        """
        at = len(cls._head)
        form = cls.__new__(cls)
        form._set(args[:at], args[at], args[at + 1], args[at + 2:])
        return form

    def _set(self, head, nums, den, bounds) -> None:
        for name, value in zip(self._head + self._bounds, (*head, *bounds)):
            object.__setattr__(self, name, value)
        # a dict is rebuilt only when it must change: hashing a Fraction key is not cheap
        in_box = self._in_box
        if not all(v and in_box(k) for k, v in nums.items()):
            nums = {k: v for k, v in nums.items() if v and in_box(k)}
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {k: v // g for k, v in nums.items()}
            den //= g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def _in_box(self, key) -> bool:
        raise NotImplementedError

    def _shape(self) -> Tuple[list, list]:
        """The head field values and the truncation bounds."""
        return [getattr(self, name) for name in self._head], [getattr(self, name) for name in self._bounds]

    @property
    def coeffs(self) -> Mapping:
        """The rational coefficients, as a read-only map to ``Fraction``."""
        return _RationalView(self.nums, self.den)

    def support(self) -> list:
        return sorted(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        (head, bounds), (other_head, other_bounds) = self._shape(), other._shape()
        if head != other_head:
            raise ValueError(f"can only add {type(self).__name__}s of equal {' and '.join(self._head)}")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = {k: a * v for k, v in self.nums.items()}
        for k, v in other.nums.items():
            nums[k] = nums.get(k, 0) + b * v
        return self.from_numerators(*head, nums, den, *map(min, bounds, other_bounds))

    def __rmul__(self, c):
        c = as_fraction(c)
        head, bounds = self._shape()
        nums = {k: c.numerator * v for k, v in self.nums.items()}
        return self.from_numerators(*head, nums, c.denominator * self.den, *bounds)

    def to_json(self) -> dict:
        """The head, the bounds and each coefficient in lowest terms, ``"k1,k2,...": [num, den]``, by sorted key."""
        payload = {name: getattr(self, name) for name in self._head + self._bounds}
        nums, den = self.nums, self.den
        coefficients = {}
        for key in sorted(nums):
            num = nums[key]
            g = gcd(num, den)
            coefficients[",".join(map(str, key))] = [num // g, den // g]
        payload["coefficients"] = coefficients
        return payload


def kronecker_product(f: Iterable[tuple], g: Iterable[tuple], bound: tuple) -> Iterator[Tuple[tuple, int, List[int]]]:
    """The truncated product of two integer coefficient tables, by Kronecker substitution per slice.

    A term (slice, r, c) is an int numerator c at a key split into its
    position r and its slice, the rest of the key: a tuple of nonnegative
    ints.  The product sums c1 c2 at (slice1 + slice2, r1 + r2) over the
    term pairs whose slice sum is at most ``bound`` componentwise, and
    yields each nonzero product slice once, as (slice, r0, numerators at
    r0, r0 + 1, ...), zeros included.  Each slice's r-polynomial is packed
    into one int sum_r c_r 2^(B (r - r0)), r0 its lowest r; for each
    f-slice s1 the g-slices in the box [0, bound - s1] are looked up, each
    pair's ints are multiplied once, and the products, aligned on their r0
    sums, are added into the target slice's int, decoded once through one
    ``int.to_bytes``.

    The digit width is exact: for a fixed output (slice, r) each f-term
    meets at most one g-term, so the output numerator is at most
    sum |f| * max |g| < 2^(B-1) in absolute value, over the terms within
    the bound, when B >= bitlen(sum |f|) + bitlen(max |g|) + 1.  A digit d
    then has 0 < d + 2^(B-1) < 2^B, so adding 2^(B-1) to every digit makes
    them plain unsigned B-bit fields.  B is rounded up to whole bytes.
    """
    groups = []
    for terms in (f, g):
        slices: Dict[tuple, list] = {}
        for s, r, c in terms:
            slices.setdefault(s, []).append((r, c))
        groups.append({s: t for s, t in slices.items() if all(map(le, s, bound))})
    fs, gs = groups
    if not fs or not gs:
        return
    total = sum(abs(c) for t in fs.values() for _, c in t)
    bits = total.bit_length() + max(abs(c) for t in gs.values() for _, c in t).bit_length() + 1
    width = -(-bits // 8)
    shift = 8 * width
    for slices in groups:
        for s, t in slices.items():
            low = min(t)[0]
            slices[s] = (low, sum(c << (shift * (r - low)) for r, c in t))
    base = min(low for low, _ in fs.values()) + min(low for low, _ in gs.values())
    acc: Dict[tuple, int] = {}
    for s1, (low1, a) in fs.items():
        for s2 in product(*(range(room + 1) for room in map(sub, bound, s1))):
            hit = gs.get(s2)
            if hit is not None:
                s = tuple(map(add, s1, s2))
                acc[s] = acc.get(s, 0) + (a * hit[1] << (shift * (low1 + hit[0] - base)))
    half = 1 << (shift - 1)
    halves = half.to_bytes(width, "little")
    for s, x in acc.items():
        if x:
            # only the digits from the lowest set bit to the length of |x| can be nonzero
            lo = ((x & -x).bit_length() - 1) // shift
            size = (abs(x).bit_length() // shift + 1 - lo) * width
            data = ((x >> (shift * lo)) + int.from_bytes(halves * (size // width), "little")).to_bytes(size, "little")
            yield s, base + lo, [int.from_bytes(data[i : i + width], "little") - half for i in range(0, size, width)]


def shared_support(forms: Sequence[NumeratorStore]) -> list:
    """The sorted keys where some form is nonzero, inside the truncation box that every form keeps."""
    keys = set().union(*(f.nums for f in forms))
    return sorted(k for k in keys if all(f._in_box(k) for f in forms))


@dataclass(frozen=True)
class ExpressResult:
    """Outcome of solving target = sum_i x_i basis_i on all shared coefficients."""

    status: str  # "unique" | "inconsistent" | "underdetermined"
    coefficients: Optional[List[Fraction]] = None
    witness: Optional[Hashable] = None  # the first key, in sorted order, where the candidate fails


def express_in_basis(target: NumeratorStore, basis: Sequence[NumeratorStore]) -> ExpressResult:
    """Solve target = sum_i x_i basis_i exactly on the ``shared_support`` of all the forms.

    The solve is on integers: y with sum_i y_i nums_i = nums_target gives
    x_i = y_i den_i / den_target.  Keys left out are zero on both sides, so
    they hold for any solution.
    """
    head = target._shape()[0]
    for b in basis:
        if type(b) is not type(target):
            raise ValueError(f"basis forms must be {type(target).__name__}s like the target")
        if b._shape()[0] != head:
            raise ValueError(f"basis forms must match the target's {' and '.join(target._head)}")
    keys = shared_support([target, *basis])
    if not keys:
        return ExpressResult("underdetermined") if basis else ExpressResult("unique", [])
    sol = solve([[b.nums.get(k, 0) for b in basis] for k in keys], [target.nums.get(k, 0) for k in keys])
    if sol.status == "unique":
        return ExpressResult("unique", [y * b.den / target.den for y, b in zip(sol.values, basis)])
    return ExpressResult(sol.status, witness=None if sol.row is None else keys[sol.row])


@dataclass(frozen=True, init=False)
class QSeries(NumeratorStore):
    """Sparse exact series ``sum c_e q^e`` with ``0 <= e < truncation``.

    The coefficient of q^e is ``nums[e] / den`` (see ``NumeratorStore``),
    with ``Fraction`` exponents e.  Instances are immutable and canonical:
    every stored exponent satisfies ``0 <= e < truncation`` and has a
    denominator at most ``DEFAULT_EXPONENT_DENOMINATOR_CAP``.  Two series
    are equal iff their truncations and their coefficient tables agree.
    ``QSeries(terms, truncation)`` takes rational coefficients,
    ``from_numerators(nums, den, truncation)`` integer ones.
    """

    nums: Dict[Fraction, int]
    den: int
    truncation: Fraction

    def __init__(self, terms: Mapping[RationalLike, RationalLike], truncation: RationalLike):
        super().__init__({as_fraction(e): c for e, c in terms.items()}, as_fraction(truncation))

    def _set(self, head, nums, den, bounds) -> None:
        if bounds[0] <= 0:
            raise ValueError(f"truncation must be positive, got {bounds[0]}")
        super()._set(head, nums, den, bounds)

    def _in_box(self, e: Fraction) -> bool:
        if e >= self.truncation:
            return False
        # the numerator carries the sign; comparing the Fraction with 0 costs ten times more
        if e.numerator < 0:
            raise ValueError(f"negative exponent {e} not supported")
        cap = DEFAULT_EXPONENT_DENOMINATOR_CAP
        if e.denominator > cap:
            raise ExponentDenominatorError(
                f"exponent {e} has denominator {e.denominator} > cap {cap}"
            )
        return True

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(truncation: RationalLike) -> "QSeries":
        return QSeries({}, truncation)

    @staticmethod
    def one(truncation: RationalLike) -> "QSeries":
        return QSeries({Fraction(0): Fraction(1)}, truncation)

    @staticmethod
    def monomial(exponent: RationalLike, coeff: RationalLike, truncation: RationalLike) -> "QSeries":
        return QSeries({as_fraction(exponent): as_fraction(coeff)}, truncation)

    # -- access ------------------------------------------------------------

    def coefficient(self, e: RationalLike) -> Fraction:
        e = as_fraction(e)
        if e >= self.truncation:
            raise TruncationError(f"coefficient at q^{e} lies beyond truncation O(q^{self.truncation})")
        return Fraction(self.nums.get(e, 0), self.den)

    def terms(self) -> list:
        """Sorted list of (exponent, coefficient) pairs."""
        return [(e, Fraction(self.nums[e], self.den)) for e in sorted(self.nums)]

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "QSeries":
        return -1 * self

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return self.__rmul__(other)
        # one empty slice on the grid q^(1/d); only the exponents below the truncation are kept
        trunc = min(self.truncation, other.truncation)
        d = lcm(*(e.denominator for e in chain(self.nums, other.nums)))
        limit = -(-trunc.numerator * d // trunc.denominator)
        f, g = ([((), r, c) for e, c in s.nums.items() if (r := e.numerator * d // e.denominator) < limit]
                for s in (self, other))
        nums = {Fraction(r, d): c for _, r0, cs in kronecker_product(f, g, ()) for r, c in enumerate(cs, r0) if c and r < limit}
        return QSeries.from_numerators(nums, self.den * other.den, trunc)

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction, Rational)):
            return (Fraction(1) / as_fraction(other)) * self
        return NotImplemented

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"power must be a nonnegative integer, got {n}")
        if n == 0:
            return QSeries.one(self.truncation)
        # square up to the lowest set bit, which starts the result, then one product per further set bit
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        while n > 1:
            n >>= 1
            base = base * base
            if n & 1:
                result = result * base
        return result

    # -- substitutions -----------------------------------------------------

    def rescale(self, c: RationalLike) -> "QSeries":
        """Substitute tau -> c*tau: exponent e maps to c*e, coefficients kept.

        Raises ExponentDenominatorError if any rescaled exponent needs a
        denominator above the cap.
        """
        cap = DEFAULT_EXPONENT_DENOMINATOR_CAP
        c = as_fraction(c)
        if c <= 0:
            raise ValueError(f"rescale factor must be positive, got {c}")
        nums = {}
        for e, v in self.nums.items():
            ce = c * e
            if ce.denominator > cap:
                raise ExponentDenominatorError(
                    f"rescale by {c} sends q^{e} to denominator {ce.denominator} > cap {cap}"
                )
            nums[ce] = v
        return QSeries.from_numerators(nums, self.den, c * self.truncation)

    def half_twist(self) -> "QSeries":
        """Substitute tau -> (tau+1)/2 on an integer-exponent series.

        q^n maps to (-1)^n q^(n/2).
        """
        for e in self.nums:
            if e.denominator != 1:
                raise ValueError(f"half_twist requires integer exponents, found q^{e}")
        nums = {Fraction(e.numerator, 2): -v if e.numerator % 2 else v for e, v in self.nums.items()}
        return QSeries.from_numerators(nums, self.den, self.truncation / 2)

    def shift(self, e0: RationalLike) -> "QSeries":
        """Multiply by the exact monomial q^e0 (e0 >= 0)."""
        e0 = as_fraction(e0)
        if e0 < 0:
            raise ValueError("shift exponent must be nonnegative")
        return QSeries.from_numerators({e + e0: v for e, v in self.nums.items()}, self.den, self.truncation + e0)

    def truncate(self, truncation: RationalLike) -> "QSeries":
        trunc = as_fraction(truncation)
        if trunc > self.truncation:
            raise TruncationError(
                f"cannot extend truncation from O(q^{self.truncation}) to O(q^{trunc})"
            )
        return QSeries.from_numerators(self.nums, self.den, trunc)

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _fmt_exp(e: Fraction) -> str:
        if e.denominator == 1:
            return str(e.numerator)
        return f"({e.numerator}/{e.denominator})"

    def __str__(self) -> str:
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
            else:
                coeff = str(c) if c.denominator == 1 else f"({c})"
                parts.append(f"{coeff}*q^{self._fmt_exp(e)}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self._fmt_exp(self.truncation)})"

    def __repr__(self) -> str:
        return f"QSeries({self})"

    def to_json_terms(self) -> list:
        """Rendering as [[e_num, e_den, c_num, c_den], ...] sorted by exponent."""
        return [
            [e.numerator, e.denominator, c.numerator, c.denominator]
            for e, c in self.terms()
        ]

    def to_json(self) -> dict:
        """{"truncation": [num, den], "terms": ``to_json_terms()``}; the keys are exponents, not tuples."""
        t = self.truncation
        return {"truncation": [t.numerator, t.denominator], "terms": self.to_json_terms()}
