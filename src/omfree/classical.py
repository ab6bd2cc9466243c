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
from math import comb, isqrt
from typing import Dict, List, Literal, Tuple

from .linalg import bareiss_rank, clear_denominators, solve
from .qseries import QSeries, as_fraction

LevelTag = Literal["SL2", "Gamma0_2", "Gamma0_3_chi", "KohnenPlus4"]


class PlusSpaceError(ValueError):
    """A plus-space support condition failed on a computed coefficient."""


class DecompositionError(ValueError):
    """A form could not be written exactly in the registered graded basis."""


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


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += comb(n + 1, j) * bernoulli(j)
    return -total / (n + 1)


def sigma(n: int, k: int) -> int:
    """Divisor power sum sum_{d | n} d^k for n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
    return total


def sigma_odd(n: int) -> int:
    """Sum of the odd divisors of n."""
    while n % 2 == 0:
        n //= 2
    return sigma(n, 1)


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


def chi3(n: int) -> int:
    """Quadratic character mod 3."""
    r = n % 3
    return 0 if r == 0 else (1 if r == 1 else -1)


# ---------------------------------------------------------------------------
# Truncated rational power series in t (internal, dense lists)


def _series_mul(a: List[Fraction], b: List[Fraction], order: int) -> List[Fraction]:
    out = [Fraction(0)] * order
    for i, x in enumerate(a[:order]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order - i]):
            if y:
                out[i + j] += x * y
    return out


def _series_inv(a: List[Fraction], order: int) -> List[Fraction]:
    if a[0] == 0:
        raise ZeroDivisionError("series has zero constant term")
    out = [Fraction(0)] * order
    out[0] = 1 / a[0]
    for n in range(1, order):
        s = Fraction(0)
        for k in range(1, n + 1):
            if k < len(a) and a[k]:
                s += a[k] * out[n - k]
        out[n] = -s / a[0]
    return out


def _exp_series(a: int, order: int) -> List[Fraction]:
    out = [Fraction(0)] * order
    fact = 1
    for i in range(order):
        out[i] = Fraction(a**i, fact)
        fact *= i + 1
    return out


@lru_cache(maxsize=None)
def generalized_bernoulli(n: int, disc: int) -> Fraction:
    """B_{n,chi} for the Kronecker character of a fundamental discriminant.

    Computed from the exact expansion of sum_a chi(a) t e^{at} / (e^{|D|t}-1).
    For disc = 1 this gives the convention with B_1 = +1/2.
    """
    if not is_fundamental_discriminant(disc):
        raise ValueError(f"{disc} is not a fundamental discriminant")
    order = n + 1
    m = abs(disc)
    numer = [Fraction(0)] * order
    for a in range(1, m + 1):
        ch = kronecker_symbol(disc, a)
        if ch:
            ea = _exp_series(a, order)
            numer = [x + ch * y for x, y in zip(numer, ea)]
    # (e^{mt} - 1)/t = sum_{i>=0} m^{i+1} t^i / (i+1)!
    denom = [Fraction(0)] * order
    fact = 1
    for i in range(order):
        fact *= i + 1
        denom[i] = Fraction(m ** (i + 1), fact)
    series = _series_mul(numer, _series_inv(denom, order), order)
    fact = 1
    for i in range(1, n + 1):
        fact *= i
    return series[n] * fact


def dirichlet_l_negative(r: int, disc: int) -> Fraction:
    """L(1-r, chi_disc) = -B_{r,chi}/r for r >= 1 and fundamental disc."""
    if r < 1:
        raise ValueError("r must be positive")
    return -generalized_bernoulli(r, disc) / r


def is_fundamental_discriminant(d: int) -> bool:
    if d == 1:
        return True
    if d % 4 == 1:
        return _is_squarefree(d)
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and _is_squarefree(q)
    return False


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def fundamental_decomposition(m: int) -> Tuple[int, int]:
    """Write m = D * f^2 with D a fundamental discriminant (m = 0,1 mod 4)."""
    if m % 4 not in (0, 1):
        raise ValueError(f"{m} is not a discriminant")
    if m == 0:
        raise ValueError("m must be nonzero")
    n = abs(m)
    f = 1
    for p in range(2, isqrt(n) + 1):
        if n % (p * p) == 0:
            e = 0
            while n % (p * p) == 0:
                n //= p * p
                e += 1
            f *= p**e
    d = m // (f * f)
    if d % 4 != 1:
        # absorb a factor of 2 from f so that d becomes 0 mod 4
        if f % 2:
            raise AssertionError(f"cannot decompose {m}")
        f //= 2
        d *= 4
    if d % 4 == 1 and not is_fundamental_discriminant(d):
        raise AssertionError(f"bad decomposition {m} = {d} * {f}^2")
    if d % 4 == 0 and not is_fundamental_discriminant(d):
        # d = 4u with u = 1 mod 4 squarefree: move the 4 back into f
        d //= 4
        f *= 2
    return d, f


# ---------------------------------------------------------------------------
# Level 1


def eisenstein_sl2(k: int, prec) -> ScalarForm:
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n; k = 2 is quasi-modular."""
    if k % 2 or k < 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    prec = as_fraction(prec)
    factor = Fraction(-2 * k) / bernoulli(k)
    terms = {Fraction(0): Fraction(1)}
    n = 1
    while n < prec:
        terms[Fraction(n)] = factor * sigma(n, k - 1)
        n += 1
    return ScalarForm(Fraction(k), "SL2", QSeries(terms, prec), quasi=(k == 2))


def eta_pow(m: int, prec) -> QSeries:
    """eta^m for m a positive multiple of 8: q^(m/24) prod (1-q^n)^m."""
    if m <= 0 or m % 8:
        raise ValueError(f"exponent must be a positive multiple of 8, got {m}")
    prec = as_fraction(prec)
    prod = QSeries.one(prec)
    n = 1
    while n < prec:
        factor_terms = {}
        j = 0
        while Fraction(n * j) < prec:
            factor_terms[Fraction(n * j)] = Fraction((-1) ** j * comb(m, j))
            j += 1
            if j > m:
                break
        prod = prod * QSeries(factor_terms, prec)
        n += 1
    return prod.shift(Fraction(m, 24)).truncate(prec)


def delta_cusp_form(prec) -> ScalarForm:
    """The normalized weight-12 cusp form q prod (1-q^n)^24."""
    return ScalarForm(Fraction(12), "SL2", eta_pow(24, prec))


def sl2_monomial_basis(k: int, prec) -> List[Tuple[Tuple[int, int], QSeries]]:
    """All monomials E4^a E6^b of weight k, with expansions."""
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
        mono = QSeries.one(as_fraction(prec))
        if a:
            mono = mono * e4**a
        if b:
            mono = mono * e6**b
        out.append(((a, b), mono))
    return out


# ---------------------------------------------------------------------------
# Level 2: Eisenstein basis, graded monomial basis, slash expansions


def weight2_level2(prec) -> ScalarForm:
    """The weight-2 form 2 E_2(2 tau) - E_2(tau) = 1 + 24 sum sigma^odd_1(n) q^n."""
    prec = as_fraction(prec)
    e2 = eisenstein_sl2(2, 2 * prec).series
    series = (2 * e2.rescale(2) - e2).truncate(prec)
    return ScalarForm(Fraction(2), "Gamma0_2", series)


def gamma0_2_eisenstein_basis(k: int, prec) -> List[ScalarForm]:
    """Eisenstein basis of M_k(Gamma0(2)): {1}, {weight-2 form}, or {E_k, E_k(2tau)}."""
    if k % 2 or k < 0:
        raise ValueError(f"weight must be even and nonnegative, got {k}")
    prec = as_fraction(prec)
    if k == 0:
        return [ScalarForm(Fraction(0), "Gamma0_2", QSeries.one(prec))]
    if k == 2:
        return [weight2_level2(prec)]
    ek = eisenstein_sl2(k, prec).series
    return [
        ScalarForm(Fraction(k), "Gamma0_2", ek),
        ScalarForm(Fraction(k), "Gamma0_2", ek.rescale(2).truncate(prec)),
    ]


# Generators of the graded ring of level-2 forms used for the slash machinery:
# the weight-2 form above and the two weight-4 Eisenstein series.
_LEVEL2_GENS = ("w2", "e4", "e4x2")


def _level2_gen_series(prec) -> Dict[str, QSeries]:
    prec = as_fraction(prec)
    e4 = eisenstein_sl2(4, prec).series
    return {
        "w2": weight2_level2(prec).series,
        "e4": e4,
        "e4x2": e4.rescale(2).truncate(prec),
    }


def _level2_gen_slashed(which: str, prec) -> Dict[str, QSeries]:
    """Exact expansions of the generators slashed by S or U.

    S is inversion, U is inversion followed by translation.  Closed forms:
      E_4 | S = E_4,                      E_4 | U = E_4
      E_4(2 tau) | S = 2^-4 E_4(tau/2),   E_4(2 tau) | U = 2^-4 E_4((tau+1)/2)
      w2 | S = E_2(tau/2)/2 - E_2,        w2 | U = E_2((tau+1)/2)/2 - E_2
    """
    prec = as_fraction(prec)
    e4 = eisenstein_sl2(4, 2 * prec).series
    e2 = eisenstein_sl2(2, 2 * prec).series
    if which == "S":
        half = lambda f: f.rescale(Fraction(1, 2))
    elif which == "U":
        half = lambda f: f.half_twist()
    else:
        raise ValueError(f"slash must be 'S' or 'U', got {which!r}")
    return {
        "w2": (half(e2) / 2 - e2.truncate(prec)).truncate(prec),
        "e4": e4.truncate(prec),
        "e4x2": (half(e4) / Fraction(16)).truncate(prec),
    }


def _level2_monomials(k: int) -> List[Tuple[int, int, int]]:
    """Exponent triples (a, b, c) with 2a + 4b + 4c = k, in fixed order."""
    out = []
    for a in range(k // 2 + 1):
        rest = k - 2 * a
        if rest % 4:
            continue
        for b in range(rest // 4 + 1):
            out.append((a, b, rest // 4 - b))
    return out


def _monomial_series(expo: Tuple[int, int, int], gens: Dict[str, QSeries], prec) -> QSeries:
    result = QSeries.one(as_fraction(prec))
    for name, e in zip(_LEVEL2_GENS, expo):
        if e:
            result = result * gens[name] ** e
    return result


@lru_cache(maxsize=None)
def _level2_basis_monomials(k: int) -> Tuple[Tuple[int, int, int], ...]:
    """Subset of monomials forming a basis of M_k(Gamma0(2)), by exact elimination."""
    dim = 1 + k // 4
    prec = 2 * dim + 4
    gens = _level2_gen_series(prec)
    chosen: List[Tuple[int, int, int]] = []
    rows: List[List[int]] = []
    for expo in _level2_monomials(k):
        series = _monomial_series(expo, gens, prec)
        row = clear_denominators([series.coefficient(n) for n in range(prec)])
        if bareiss_rank(rows + [row]) > len(rows):
            rows.append(row)
            chosen.append(expo)
        if len(chosen) == dim:
            break
    if len(chosen) != dim:
        raise AssertionError(f"level-2 monomials span only {len(chosen)} of {dim} dimensions at weight {k}")
    return tuple(chosen)


def decompose_level2(f: ScalarForm) -> List[Tuple[Fraction, Tuple[int, int, int]]]:
    """Write a level-2 form exactly in the graded monomial basis.

    Raises DecompositionError if the expansion is inconsistent with
    membership in M_k(Gamma0(2)).
    """
    k = int(f.weight)
    if f.level != "Gamma0_2" or f.weight != k or k % 2:
        raise DecompositionError(f"expected an even-weight level-2 form, got {f.level} weight {f.weight}")
    basis = _level2_basis_monomials(k)
    prec = f.series.truncation
    n_coeffs = int(prec)
    if n_coeffs < len(basis):
        raise DecompositionError(
            f"need at least {len(basis)} coefficients at weight {k}, have O(q^{prec})"
        )
    gens = _level2_gen_series(prec)
    cols = [_monomial_series(expo, gens, prec) for expo in basis]
    idx = [Fraction(n) for n in range(n_coeffs)]
    matrix = [[col.coefficient(e) for col in cols] for e in idx]
    rhs = [f.series.coefficient(e) for e in idx]
    sol = solve(matrix, rhs)
    if sol.status != "unique":
        raise DecompositionError(f"form is not in the span of the level-2 monomial basis at weight {k}")
    return [(c, expo) for c, expo in zip(sol.values, basis)]


def slash_level2(f: ScalarForm, which: str) -> QSeries:
    """Exact q^(1/2)-expansion of f |_k S or f |_k U for f in M_k(Gamma0(2))."""
    decomp = decompose_level2(f)
    prec = f.series.truncation
    slashed_gens = _level2_gen_slashed(which, prec)
    total = QSeries.zero(prec)
    for coeff, expo in decomp:
        if coeff == 0:
            continue
        total = total + coeff * _monomial_series(expo, slashed_gens, prec)
    return total


def trace_to_sl2(f: ScalarForm) -> ScalarForm:
    """f + f|S + f|U, a level-1 form of the same weight."""
    total = f.series + slash_level2(f, "S") + slash_level2(f, "U")
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
    n_max = int(prec)

    def coeff_a(n):  # chi on the divisor
        return Fraction(sum(chi3(d) * d ** (w - 1) for d in divisors(n)))

    def coeff_b(n):  # chi on the complementary divisor
        return Fraction(sum(chi3(n // d) * d ** (w - 1) for d in divisors(n)))

    lval = dirichlet_l_negative(w, -3)
    const_a = lval / 2
    const_b = lval / 2 if w == 1 else Fraction(0)
    a2, b2 = coeff_a(2), coeff_b(2)
    t = Fraction(1) if b2 == 0 else -a2 / b2
    const = const_a + t * const_b
    if const == 0:
        raise PlusSpaceError(f"plus combination at weight {w} has zero constant term")
    terms = {Fraction(0): Fraction(1)}
    for n in range(1, n_max + 1):
        c = (coeff_a(n) + t * coeff_b(n)) / const
        if c:
            terms[Fraction(n)] = c
    series = QSeries(terms, prec)
    for e, c in series.terms():
        if e.numerator % 3 == 2 and c != 0:
            raise PlusSpaceError(
                f"weight-{w} plus combination has nonzero coefficient {c} at q^{e}"
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


def cohen_class_number(r: int, n: int) -> Fraction:
    """Generalized class number H(r, N) for r >= 1, N >= 0.

    H(r, 0) = zeta(1 - 2r).  For N > 0 with (-1)^r N = D f^2 (D fundamental):
    H(r, N) = L(1-r, chi_D) sum_{d | f} mu(d) chi_D(d) d^(r-1) sigma_{2r-1}(f/d),
    and H(r, N) = 0 when (-1)^r N is not 0 or 1 mod 4.
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
    d, f = fundamental_decomposition(m)
    total = Fraction(0)
    for dd in divisors(f):
        mu = moebius(dd)
        if mu == 0:
            continue
        ch = kronecker_symbol(d, dd)
        if ch == 0:
            continue
        total += mu * ch * dd ** (r - 1) * sigma(f // dd, 2 * r - 1)
    return dirichlet_l_negative(r, d) * total


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
    H(r, N)/H(r, 0).  Odd r is rejected: those series are not members of the
    plus space used here; the raw values remain available through
    cohen_class_number.
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
    terms = {Fraction(0): Fraction(1)}
    for n in range(1, int(prec) + 1):
        if n % 4 in (2, 3):
            continue
        h = cohen_class_number(r, n)
        if h:
            terms[Fraction(n)] = h / h0
    series = QSeries(terms, prec)
    return ScalarForm(Fraction(2 * r + 1, 2), "KohnenPlus4", series)
