"""Exact truncated q-expansions with bounded fractional exponents.

Every expansion in this package is a finite sum ``sum c_e * q^e`` where the
coefficients ``c_e`` are exact rationals and the exponents ``e`` are
nonnegative rationals whose denominators divide a small bound.  A series
carries a truncation ``T``: all terms with exponent ``< T`` are faithfully
represented and everything at or beyond ``T`` is unknown.  Arithmetic always
propagates the smaller truncation of its operands; precision is never
silently extended.  There is no floating point anywhere.

Coefficient tables in more than one variable (Jacobi forms, paramodular
forms) share one store, :class:`NumeratorStore`: integer numerators over
one common denominator, in lowest terms, with a read-only ``Fraction``
view for the edges of a layer.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Dict, Hashable, Iterator, List, Tuple, Union

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
    ``weight``, its grading (Jacobi index, paramodular level), ``nums``,
    ``den`` and then its truncation bounds; ``_in_box`` says which keys the
    bounds keep.
    """

    nums: Dict[Tuple[int, ...], int]
    den: int

    def __init__(self, weight: int, grading: int, coeffs: Mapping, *bounds: int):
        """From exact rational (or integer) coefficients."""
        values = {k: as_fraction(v) for k, v in coeffs.items()}
        den = lcm(1, *(v.denominator for v in values.values()))
        nums = {k: v.numerator * (den // v.denominator) for k, v in values.items()}
        self._set(weight, grading, nums, den, bounds)

    @classmethod
    def from_numerators(cls, weight: int, grading: int, nums: Dict, den: int, *bounds: int):
        """The form with coefficients ``nums[key] / den``; ``den`` is any nonzero int."""
        form = cls.__new__(cls)
        form._set(weight, grading, nums, den, bounds)
        return form

    def _set(self, weight, grading, nums, den, bounds) -> None:
        names = [f.name for f in fields(self)]
        for name, value in zip(names[:2] + names[4:], (weight, grading, *bounds)):
            object.__setattr__(self, name, value)
        nums = {k: v for k, v in nums.items() if v and self._in_box(k)}
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {k: v // g for k, v in nums.items()}
            den //= g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def _in_box(self, key: Tuple[int, ...]) -> bool:
        raise NotImplementedError

    def _shape(self) -> Tuple[list, list]:
        """[weight, grading] and the truncation bounds."""
        values = [getattr(self, f.name) for f in fields(self)]
        return values[:2], values[4:]

    @property
    def coeffs(self) -> Mapping:
        """The rational coefficients, as a read-only map to ``Fraction``."""
        return _RationalView(self.nums, self.den)

    def support(self) -> List[Tuple[int, ...]]:
        return sorted(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        (head, bounds), (other_head, other_bounds) = self._shape(), other._shape()
        if head != other_head:
            grading = fields(self)[1].name
            raise ValueError(f"can only add {type(self).__name__}s of equal weight and {grading}")
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
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("nums", "den")}
        payload["coefficients"] = {
            ",".join(map(str, key)): [c.numerator, c.denominator] for key, c in sorted(self.coeffs.items())
        }
        return payload


class QSeries:
    """Sparse exact series ``sum c_e q^e`` with ``0 <= e < truncation``.

    Instances are immutable and canonical: no zero coefficients are stored,
    every exponent satisfies ``0 <= e < truncation`` and ``e * denominator``
    is an integer.  Two series are equal iff their truncations and their
    coefficient tables agree.  Exponent denominators are bounded by
    ``DEFAULT_EXPONENT_DENOMINATOR_CAP``.
    """

    __slots__ = ("_coeffs", "truncation", "denominator")

    def __init__(self, terms: Mapping[RationalLike, RationalLike], truncation: RationalLike):
        trunc = as_fraction(truncation)
        if trunc <= 0:
            raise ValueError(f"truncation must be positive, got {trunc}")
        cap = DEFAULT_EXPONENT_DENOMINATOR_CAP
        coeffs = {}
        den = 1
        for e, c in terms.items():
            e = as_fraction(e)
            c = as_fraction(c)
            if c == 0 or e >= trunc:
                continue
            if e < 0:
                raise ValueError(f"negative exponent {e} not supported")
            if e.denominator > cap:
                raise ExponentDenominatorError(
                    f"exponent {e} has denominator {e.denominator} > cap {cap}"
                )
            coeffs[e] = c
            den = lcm(den, e.denominator)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "truncation", trunc)
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

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
        return self._coeffs.get(e, Fraction(0))

    def terms(self) -> list:
        """Sorted list of (exponent, coefficient) pairs."""
        return sorted(self._coeffs.items())

    def support(self) -> list:
        return sorted(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.truncation == other.truncation and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.truncation, tuple(sorted(self._coeffs.items()))))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        coeffs = dict(self._coeffs)
        for e, c in other._coeffs.items():
            coeffs[e] = coeffs.get(e, Fraction(0)) + c
        return QSeries(coeffs, trunc)

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self._coeffs.items()}, self.truncation)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction, Rational)):
            c0 = as_fraction(other)
            return QSeries({e: c * c0 for e, c in self._coeffs.items()}, self.truncation)
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        coeffs = {}
        for e1, c1 in self._coeffs.items():
            if e1 >= trunc:
                continue
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                if e >= trunc:
                    continue
                coeffs[e] = coeffs.get(e, Fraction(0)) + c1 * c2
        return QSeries(coeffs, trunc)

    def __rmul__(self, other) -> "QSeries":
        return self.__mul__(other)

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction, Rational)):
            return self * (Fraction(1) / as_fraction(other))
        return NotImplemented

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"power must be a nonnegative integer, got {n}")
        result = QSeries({0: 1}, self.truncation)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
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
        for e in self._coeffs:
            if (c * e).denominator > cap:
                raise ExponentDenominatorError(
                    f"rescale by {c} sends q^{e} to denominator {(c * e).denominator} > cap {cap}"
                )
        return QSeries({c * e: v for e, v in self._coeffs.items()}, c * self.truncation)

    def half_twist(self) -> "QSeries":
        """Substitute tau -> (tau+1)/2 on an integer-exponent series.

        q^n maps to (-1)^n q^(n/2).
        """
        for e in self._coeffs:
            if e.denominator != 1:
                raise ValueError(f"half_twist requires integer exponents, found q^{e}")
        coeffs = {}
        for e, c in self._coeffs.items():
            n = int(e)
            coeffs[Fraction(n, 2)] = c if n % 2 == 0 else -c
        return QSeries(coeffs, self.truncation / 2)

    def shift(self, e0: RationalLike) -> "QSeries":
        """Multiply by the exact monomial q^e0 (e0 >= 0)."""
        e0 = as_fraction(e0)
        if e0 < 0:
            raise ValueError("shift exponent must be nonnegative")
        return QSeries({e + e0: c for e, c in self._coeffs.items()}, self.truncation + e0)

    def truncate(self, truncation: RationalLike) -> "QSeries":
        trunc = as_fraction(truncation)
        if trunc > self.truncation:
            raise TruncationError(
                f"cannot extend truncation from O(q^{self.truncation}) to O(q^{trunc})"
            )
        return QSeries(self._coeffs, trunc)

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
