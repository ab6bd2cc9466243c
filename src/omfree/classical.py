"""Scalar modular forms feeding the vector-valued constructions.

Covers level-1 Eisenstein series and eta powers, the level-2 Eisenstein
basis together with exact slash expansions at the other cusps, the odd
plus-space Eisenstein series for the quadratic character mod 3, and the
half-integral-weight Eisenstein series whose coefficients are generalized
class numbers.  All coefficients are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import ceil, comb, isqrt, lcm
from typing import Dict, List, Literal, Tuple

from .qseries import QSeries, as_fraction, express_in_basis

LevelTag = Literal["SL2", "Gamma0_2", "Gamma0_3_chi", "KohnenPlus4"]


class PlusSpaceError(ValueError):
    """A plus-space support condition failed on a computed coefficient."""


class DecompositionError(ValueError):
    """A level-2 form could not be written exactly in the level-2 Eisenstein basis."""


@dataclass(frozen=True)
class ScalarForm:
    """A scalar modular form: weight, level tag and exact expansion."""

    weight: Fraction
    level: LevelTag
    series: QSeries
    quasi: bool = False

    def coefficient(self, e) -> Fraction:
        return self.series.coefficient(e)

    def __str__(self) -> str:
        tag = " (quasi-modular)" if self.quasi else ""
        return f"weight {self.weight} on {self.level}{tag}: {self.series}"


# ---------------------------------------------------------------------------
# Elementary arithmetic


#: Tangent numbers T_1, T_2, ... (tan x = sum_m T_m x^(2m-1)/(2m-1)!); rebuilt longer when a call needs more.
_TANGENT_NUMBERS: List[int] = []


def _tangent_number(m: int) -> int:
    """T_m for m >= 1, read from the shared table.

    A table shorter than m is rebuilt to length max(m, 2 len) by the
    Brent-Harvey recurrence (*Fast computation of Bernoulli, tangent and
    secant numbers*, arXiv:1108.0286): O(n^2) integer steps, no division.
    """
    if len(_TANGENT_NUMBERS) < m:
        n = max(m, 2 * len(_TANGENT_NUMBERS))
        t = [0, 1] + [0] * (n - 1)
        for k in range(2, n + 1):
            t[k] = (k - 1) * t[k - 1]
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        _TANGENT_NUMBERS[:] = t[1:]
    return _TANGENT_NUMBERS[m - 1]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2.

    B_n = 0 for odd n >= 3, and B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))
    with T_m the tangent numbers (``_tangent_number``).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    power = 4**m
    return Fraction((-1) ** (m - 1) * n * _tangent_number(m), power * (power - 1))


def sigma(n: int, k: int) -> int:
    """Divisor power sum sum_{d | n} d^k for n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return sum(d**k for d in divisors(n))


def divisors(n: int) -> List[int]:
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def kronecker_symbol(a: int, b: int) -> int:
    """Kronecker symbol (a/b), extending the Jacobi symbol to all integers."""
    if b == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and b % 2 == 0:
        return 0
    # strip powers of two from b
    v = 0
    while b % 2 == 0:
        b //= 2
        v += 1
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if b < 0:
        b = -b
        if a < 0:
            k = -k
    a %= b
    # Jacobi symbol loop on odd b > 0
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                k = -k
        if a % 4 == 3 and b % 4 == 3:
            k = -k
        a, b = b % a, a
    return k if b == 1 else 0


#: Character tables kept, one per fundamental discriminant D: the a <= |D|
#: with chi_D(a) = 1, those with chi_D(a) = -1, and the power sums read off
#: them; the oldest insertion goes first.
_POWER_SUMS_LIMIT = 128
_POWER_SUMS: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]] = {}


def _character_power_sums(disc: int, n: int) -> Tuple[int, ...]:
    """(S_0, ..., S_e) with S_e = sum_{a=1}^{|D|} chi_D(a) a^e and e >= n, cached per discriminant.

    chi_D is listed once per discriminant, as the a with chi_D(a) = 1 and
    those with chi_D(a) = -1.  A call with a larger n than the cached tuple
    holds extends it by one pair of ``sum(map(pow, ...))`` per new exponent.
    """
    plus, minus, sums = _POWER_SUMS.get(disc, (None, None, ()))
    if len(sums) > n:
        return sums
    if plus is None:
        chars = [(a, kronecker_symbol(disc, a)) for a in range(1, abs(disc) + 1)]
        plus = tuple(a for a, ch in chars if ch == 1)
        minus = tuple(a for a, ch in chars if ch == -1)
    sums += tuple(
        sum(map(pow, plus, repeat(e))) - sum(map(pow, minus, repeat(e))) for e in range(len(sums), n + 1)
    )
    _POWER_SUMS.pop(disc, None)
    _POWER_SUMS[disc] = (plus, minus, sums)
    if len(_POWER_SUMS) > _POWER_SUMS_LIMIT:
        del _POWER_SUMS[next(iter(_POWER_SUMS))]
    return sums


#: Rows of ``_binomial_bernoulli`` kept, one per n; the least recently used goes first.
_BERNOULLI_ROWS_LIMIT = 64


@lru_cache(maxsize=_BERNOULLI_ROWS_LIMIT)
def _binomial_bernoulli(n: int) -> Tuple[int, Tuple[int, ...]]:
    """(den, (C(n, j) B_j den for j = 0, ..., n)) with den the lcm of the denominators of B_0, ..., B_n."""
    values = [bernoulli(j) for j in range(n + 1)]
    den = lcm(*(b.denominator for b in values))
    return den, tuple(comb(n, j) * b.numerator * (den // b.denominator) for j, b in enumerate(values))


def generalized_bernoulli(n: int, disc: int) -> Fraction:
    """B_{n,chi} for the Kronecker character of a fundamental discriminant.

    With m = |D| and the integer power sums S_e = sum_{a=1}^{m} chi(a) a^e,
    B_{n,chi} = m^(n-1) sum_a chi(a) B_n(a/m) = sum_j C(n,j) B_j m^(j-1) S_{n-j},
    with B_1 = -1/2.  For disc = 1 this gives the convention with B_1 = +1/2.
    The power sums are computed once per discriminant
    (``_character_power_sums``) and the sum over j runs on integers over
    one common denominator, the lcm of the denominators of B_0, ..., B_n,
    with the integers C(n,j) B_j times it read from one row per n
    (``_binomial_bernoulli``).
    """
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    m = abs(disc)
    sums = _character_power_sums(disc, n)
    den, row = _binomial_bernoulli(n)
    total = 0
    m_power = 1
    for j, c in enumerate(row):
        if c:
            total += c * m_power * sums[n - j]
        m_power *= m
    return Fraction(total, den * m)


def dirichlet_l_negative(r: int, disc: int) -> Fraction:
    """L(1-r, chi_disc) = -B_{r,chi}/r for r >= 1 and fundamental disc."""
    if r < 1:
        raise ValueError("r must be positive")
    return -generalized_bernoulli(r, disc) / r


def is_fundamental_discriminant(d: int) -> bool:
    """True when d = 0, 1 mod 4 is nonzero and is its own fundamental part (``fundamental_decomposition``)."""
    return d % 4 in (0, 1) and d != 0 and fundamental_decomposition(d) == (d, 1)


def fundamental_decomposition(m: int) -> Tuple[int, int]:
    """Write m = D * f^2 with D a fundamental discriminant (m = 0,1 mod 4).

    With m = d f^2 and d squarefree, D = d if d = 1 mod 4; otherwise d = 2, 3
    mod 4 forces f even (m = 0, 1 mod 4), and D = 4d with f halved.
    """
    if m % 4 not in (0, 1):
        raise ValueError(f"{m} is not a discriminant")
    if m == 0:
        raise ValueError("m must be nonzero")
    f = max(k for k in range(1, isqrt(abs(m)) + 1) if m % (k * k) == 0)
    d = m // (f * f)
    return (d, f) if d % 4 == 1 else (4 * d, f // 2)


# ---------------------------------------------------------------------------
# Level 1


def eisenstein_sl2(k: int, prec) -> ScalarForm:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n; k = 2 is quasi-modular."""
    if k % 2 or k < 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    prec = as_fraction(prec)
    factor = Fraction(-2 * k) / bernoulli(k)
    nums = {Fraction(0): factor.denominator}
    for n in range(1, ceil(prec)):
        nums[Fraction(n)] = factor.numerator * sigma(n, k - 1)
    return ScalarForm(Fraction(k), "SL2", QSeries.from_numerators(nums, factor.denominator, prec), quasi=(k == 2))


def eta_pow(m: int, prec) -> QSeries:
    """eta^m for m a positive multiple of 8: q^(m/24) prod (1-q^n)^m."""
    if m <= 0 or m % 8:
        raise ValueError(f"exponent must be a positive multiple of 8, got {m}")
    prec = as_fraction(prec)
    prod = QSeries.one(prec)
    for n in range(1, ceil(prec)):
        # (1 - q^n)^m without its terms at or past the truncation
        factor = {Fraction(n * j): (-1) ** j * comb(m, j) for j in range(m + 1) if n * j < prec}
        prod = prod * QSeries.from_numerators(factor, 1, prec)
    return prod.shift(Fraction(m, 24)).truncate(prec)


# ---------------------------------------------------------------------------
# Level 2: Eisenstein basis and its slash expansions


#: Level-2 expansions kept, one per (weight, truncation); the least recently used goes first.
_LEVEL2_BASES_LIMIT = 16


def gamma0_2_eisenstein_basis(k: int, prec) -> List[ScalarForm]:
    """Eisenstein basis of M_k(Gamma0(2)): {1}, {2 E_2(2 tau) - E_2}, or {E_k, E_k(2 tau)}.

    The weight-2 form is 1 + 24 sum sigma^odd_1(n) q^n.  The expansions are
    those of ``_eisenstein_bases``, so the slash expansions of the same
    weight and truncation come from the same expansion of E_k.
    """
    if k % 2 or k < 0:
        raise ValueError(f"weight must be even and nonnegative, got {k}")
    basis = _eisenstein_bases(k, as_fraction(prec))[0]
    return [ScalarForm(Fraction(k), "Gamma0_2", b) for b in basis]


@lru_cache(maxsize=_LEVEL2_BASES_LIMIT)
def _eisenstein_bases(k: int, prec: Fraction) -> Tuple[Tuple[QSeries, ...], Tuple[QSeries, ...], Tuple[QSeries, ...]]:
    """The weight-k level-2 Eisenstein basis, and that basis slashed by S and by U, each in basis order.

    The one expansion of the level-2 basis: ``gamma0_2_eisenstein_basis``,
    ``decompose_level2`` and ``slash_level2`` all read it, memoised per
    (k, prec).  S is inversion, U is inversion followed by translation.
    With h = tau/2 for S and h = (tau+1)/2 for U the closed forms are
      1 | S = 1,                  w2 | S = E_2(h)/2 - E_2,
      E_k | S = E_k,              E_k(2 tau) | S = 2^-k E_k(h),
    and the same with U in place of S, where w2 = 2 E_2(2 tau) - E_2.  All
    three tuples are read off one expansion of E_k to O(q^(2 prec)).
    """
    if k == 0:
        one = (QSeries.one(prec),)
        return one, one, one
    ek = eisenstein_sl2(k, 2 * prec).series
    level1, level2 = ek.truncate(prec), ek.rescale(2).truncate(prec)
    s_half, u_half = ek.rescale(Fraction(1, 2)), ek.half_twist()
    if k == 2:
        return (2 * level2 - level1,), (s_half / 2 - level1,), (u_half / 2 - level1,)
    return (level1, level2), (level1, s_half / 2**k), (level1, u_half / 2**k)


def _level2_weight(f: ScalarForm) -> int:
    """f's weight k, once f is an even-weight level-2 form with the 1 + k//4 coefficients of the Sturm bound."""
    k = int(f.weight)
    fractional = any(e.denominator != 1 for e in f.series.nums)
    if f.level != "Gamma0_2" or f.weight != k or k % 2 or k < 0 or fractional:
        raise DecompositionError(f"expected an even-weight level-2 form with integer exponents, got {f.level} weight {f.weight}")
    if ceil(f.series.truncation) < 1 + k // 4:
        raise DecompositionError(
            f"need at least {1 + k // 4} coefficients at weight {k}, have O(q^{f.series.truncation})"
        )
    return k


def decompose_level2(f: ScalarForm) -> List[Fraction]:
    """Coefficients of f in the level-2 Eisenstein basis of ``_eisenstein_bases``, by ``express_in_basis``.

    Every known coefficient enters the solve, and at least 1 + k//4 are
    required: the Sturm bound of Gamma0(2) is k/4, so a form in
    M_k(Gamma0(2)) agreeing that far with a combination of the basis equals
    it.  Raises DecompositionError for a short expansion, a fractional
    exponent, or a form outside the Eisenstein span (such as a cusp form).
    """
    k = _level2_weight(f)
    result = express_in_basis(f.series, _eisenstein_bases(k, f.series.truncation)[0])
    if result.status != "unique":
        raise DecompositionError(f"form is not in the span of the level-2 Eisenstein basis at weight {k}")
    return result.coefficients


def slash_level2(f: ScalarForm) -> Tuple[QSeries, QSeries]:
    """Exact q^(1/2)-expansions (f |_k S, f |_k U) for f in the Eisenstein span of M_k(Gamma0(2)).

    ``decompose_level2`` writes f in the basis of ``_eisenstein_bases``, and
    the slashed bases of the same memoised expansion carry the coefficients
    over.  The basis is never taken from the caller, so the decomposition
    checks f against an Eisenstein basis of its own.
    """
    prec = f.series.truncation
    coeffs = decompose_level2(f)
    _, *slashed = _eisenstein_bases(int(f.weight), prec)
    s, u = (sum((c * b for c, b in zip(coeffs, bases) if c), QSeries.zero(prec)) for bases in slashed)
    return s, u


def trace_to_sl2(f: ScalarForm, slashed: Tuple[QSeries, QSeries]) -> ScalarForm:
    """f + f|S + f|U, a level-1 form of the same weight, from ``slashed`` = (f|S, f|U)."""
    s, u = slashed
    total = f.series + s + u
    if any(e.denominator != 1 for e in total.support()):
        raise AssertionError("trace has non-integer exponents; slash expansions are inconsistent")
    return ScalarForm(f.weight, "SL2", total)


# ---------------------------------------------------------------------------
# Level 3 with character: odd plus-space Eisenstein series


def plus_eisenstein_gamma0_3(w: int, prec) -> ScalarForm:
    """The plus Eisenstein series of odd weight w for the character mod 3.

    Built from the two character-twisted Eisenstein series, combining them to
    kill the q^2 coefficient and normalizing the constant term to 1.  The
    result is supported on exponents not congruent to 2 mod 3; a violation
    raises PlusSpaceError.
    """
    if w < 1 or w % 2 == 0:
        raise ValueError(f"weight must be odd and positive, got {w}")
    prec = as_fraction(prec)

    def coeff_a(n):  # chi on the divisor
        return sum(kronecker_symbol(-3, d) * d ** (w - 1) for d in divisors(n))

    def coeff_b(n):  # chi on the complementary divisor
        return sum(kronecker_symbol(-3, n // d) * d ** (w - 1) for d in divisors(n))

    lval = dirichlet_l_negative(w, -3)
    const_a = lval / 2
    const_b = lval / 2 if w == 1 else Fraction(0)
    a2, b2 = coeff_a(2), coeff_b(2)
    t = Fraction(1) if b2 == 0 else Fraction(-a2, b2)
    const = const_a + t * const_b
    if const == 0:
        raise PlusSpaceError(f"plus combination at weight {w} has zero constant term")
    # (a + t b) / const over the one denominator t.denominator * const.numerator
    den = t.denominator * const.numerator
    nums = {Fraction(0): den}
    for n in range(1, ceil(prec)):
        c = (coeff_a(n) * t.denominator + t.numerator * coeff_b(n)) * const.denominator
        if c:
            nums[Fraction(n)] = c
    series = QSeries.from_numerators(nums, den, prec)
    for e, c in series.nums.items():
        if e.numerator % 3 == 2:
            raise PlusSpaceError(
                f"weight-{w} plus combination has nonzero coefficient {Fraction(c, series.den)} at q^{e}"
            )
    return ScalarForm(Fraction(w), "Gamma0_3_chi", series)


# ---------------------------------------------------------------------------
# Half-integral weight: theta and the generalized class number series


def theta_series(prec) -> ScalarForm:
    """theta = 1 + 2q + 2q^4 + 2q^9 + ..., weight 1/2 in the plus space."""
    prec = as_fraction(prec)
    terms = {Fraction(0): Fraction(1)}
    n = 1
    while Fraction(n * n) < prec:
        terms[Fraction(n * n)] = Fraction(2)
        n += 1
    return ScalarForm(Fraction(1, 2), "KohnenPlus4", QSeries(terms, prec))


#: Class-number rows kept, one per m = (-1)^r N; the least recently used goes first.
_CLASS_ROWS_LIMIT = 4096


@lru_cache(maxsize=_CLASS_ROWS_LIMIT)
def _class_number_row(m: int) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
    """(D, ((d, mu(d) chi_D(d), f/d), ...)) for a nonzero discriminant m = D f^2, D fundamental.

    The rows run over the divisors d of f with mu(d) chi_D(d) != 0, so
    H(r, N) = L(1-r, chi_D) * ``_divisor_sum(r, rows)`` for m = (-1)^r N.
    """
    d, f = fundamental_decomposition(m)
    rows = []
    for dd in divisors(f):
        mu = moebius(dd)
        if mu and (ch := kronecker_symbol(d, dd)):
            rows.append((dd, mu * ch, f // dd))
    return d, tuple(rows)


def _divisor_sum(r: int, rows: Tuple[Tuple[int, int, int], ...]) -> int:
    """sum_{d | f} mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d), one ``sigma`` per row of ``_class_number_row``."""
    return sum(c * dd ** (r - 1) * sigma(e, 2 * r - 1) for dd, c, e in rows)


def cohen_class_number(r: int, n: int) -> Fraction:
    """Generalized class number H(r, N) for r >= 1, N >= 0.

    H(r, 0) = zeta(1 - 2r).  For N > 0 with (-1)^r N = D f^2 (D fundamental):
    H(r, N) = L(1-r, chi_D) sum_{d | f} mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d),
    and H(r, N) = 0 when (-1)^r N is not 0 or 1 mod 4.  D and the divisor
    rows come from ``_class_number_row``, which ``cohen_eisenstein`` reads too.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 0:
        raise ValueError("N must be >= 0")
    if n == 0:
        return -bernoulli(2 * r) / (2 * r)
    m = n if r % 2 == 0 else -n
    if m % 4 not in (0, 1):
        return Fraction(0)
    d, rows = _class_number_row(m)
    return dirichlet_l_negative(r, d) * _divisor_sum(r, rows)


def hurwitz_class_number(n: int) -> Fraction:
    """H(N) = H(1, N), zero off the discriminant progressions."""
    return cohen_class_number(1, n)


def hurwitz_oracle(n: int) -> Fraction:
    """Hurwitz class number by brute-force reduced-form enumeration.

    Counts reduced positive binary quadratic forms a x^2 + b x y + c y^2 of
    discriminant -N with weight 1/3 for multiples of x^2+xy+y^2 and 1/2 for
    multiples of x^2+y^2.  Returns 0 for N = 1, 2 mod 4 by convention.
    """
    if n <= 0:
        raise ValueError("N must be positive")
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    a = 1
    while 3 * a * a <= n:
        for b in range(-a + 1, a + 1):
            num = b * b + n
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if a == b == c:
                total += Fraction(1, 3)
            elif b == 0 and a == c:
                total += Fraction(1, 2)
            else:
                total += 1
        a += 1
    return total


def cohen_eisenstein(r: int, prec) -> ScalarForm:
    """Weight r + 1/2 plus-space Eisenstein series, constant term 1.

    r = 0 returns theta.  For even r >= 2 the coefficients are
    H(r, N)/H(r, 0), read from the class-number row of N
    (``_class_number_row``, shared with ``cohen_class_number``): one
    ``sigma`` per divisor row, and one L-value per fundamental discriminant
    D, kept as L(1-r, chi_D)/H(r, 0).  Odd r is rejected: those series are
    not members of the plus space used here; the raw values remain
    available through cohen_class_number.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return theta_series(prec)
    if r % 2:
        raise ValueError(
            f"odd parameter {r} is outside the plus-space tower; use cohen_class_number for raw values"
        )
    prec = as_fraction(prec)
    h0 = cohen_class_number(r, 0)
    ratios: Dict[int, Fraction] = {}
    sums = []
    for n in range(1, ceil(prec)):
        if n % 4 in (2, 3):
            continue
        d, rows = _class_number_row(n)
        if d not in ratios:
            ratios[d] = dirichlet_l_negative(r, d) / h0
        sums.append((n, d, _divisor_sum(r, rows)))
    # every ratio over one denominator, so each coefficient is one integer product
    den = lcm(1, *(x.denominator for x in ratios.values()))
    scaled = {d: x.numerator * (den // x.denominator) for d, x in ratios.items()}
    nums = {Fraction(0): den}
    for n, d, s in sums:
        nums[Fraction(n)] = scaled[d] * s
    series = QSeries.from_numerators(nums, den, prec)
    return ScalarForm(Fraction(2 * r + 1, 2), "KohnenPlus4", series)
