"""Scalar modular forms: expansions, slash identities, class numbers."""

import importlib
import pkgutil
import random
from fractions import Fraction
from math import ceil, comb, factorial, isqrt

import pytest

import omfree
from omfree import classical
from omfree.classical import (
    DecompositionError,
    ScalarForm,
    bernoulli,
    cohen_class_number,
    cohen_eisenstein,
    decompose_level2,
    eisenstein_sl2,
    eta_pow,
    fundamental_decomposition,
    gamma0_2_eisenstein_basis,
    generalized_bernoulli,
    hurwitz_class_number,
    hurwitz_oracle,
    is_fundamental_discriminant,
    kronecker_symbol,
    moebius,
    plus_eisenstein_gamma0_3,
    sigma,
    slash_level2,
    theta_series,
    trace_to_sl2,
)
from omfree.qseries import QSeries
from omfree.weil import jacobi_eisenstein
from oracles import bernoulli_recursive, sl2_monomial_basis


def sigma_odd(n):
    """Sum of the odd divisors of n."""
    while n % 2 == 0:
        n //= 2
    return sigma(n, 1)


def delta_cusp_form(prec):
    """The normalized weight-12 cusp form q prod (1-q^n)^24."""
    return ScalarForm(Fraction(12), "SL2", eta_pow(24, prec))


def brute_sigma(n, k):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def naive_euler_product_pow(m, prec):
    """(prod (1-q^n))^m by naive dense polynomial arithmetic."""
    coeffs = [0] * prec
    coeffs[0] = 1
    for n in range(1, prec):
        for _ in range(m):
            new = coeffs[:]
            for i in range(prec - n):
                new[i + n] -= coeffs[i]
            coeffs = new
    return coeffs


# ---------------------------------------------------------------------------
# Bernoulli and divisor sums


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_the_recursion():
    assert [bernoulli(n) for n in range(151)] == [bernoulli_recursive(n) for n in range(151)]
    assert bernoulli(1) == Fraction(-1, 2)
    assert all(bernoulli(n) == 0 for n in range(3, 151, 2))
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_regrows_the_tangent_table(monkeypatch):
    # a cold table, asked out of order: each rebuild at least doubles it and keeps the values
    monkeypatch.setattr(classical, "_TANGENT_NUMBERS", [])
    for n in (52, 4, 120, 2, 130, 60):
        assert bernoulli(n) == bernoulli_recursive(n), n
    assert len(classical._TANGENT_NUMBERS) == 120
    assert classical._TANGENT_NUMBERS[:5] == [1, 2, 16, 272, 7936]


def test_sigma_matches_brute_force():
    for n in range(1, 60):
        for k in (1, 3, 5, 9):
            assert sigma(n, k) == brute_sigma(n, k)


def test_sigma_odd():
    assert sigma_odd(12) == 1 + 3
    assert sigma_odd(5) == 6


# ---------------------------------------------------------------------------
# level 1


def test_e4_expansion():
    e4 = eisenstein_sl2(4, 6)
    assert [e4.coefficient(n) for n in range(4)] == [1, 240, 2160, 6720]
    assert not e4.quasi


def test_e6_expansion():
    e6 = eisenstein_sl2(6, 6)
    assert [e6.coefficient(n) for n in range(3)] == [1, -504, -16632]


def test_every_eisenstein_constant_term_is_one():
    for k in (2, 4, 6, 8, 10, 12, 14):
        assert eisenstein_sl2(k, 3).coefficient(0) == 1


def test_e2_flagged_quasi():
    e2 = eisenstein_sl2(2, 5)
    assert e2.quasi
    assert e2.coefficient(1) == -24


def test_odd_weight_rejected():
    with pytest.raises(ValueError):
        eisenstein_sl2(5, 5)


def test_e4_times_e6_is_e10():
    # dim M_10(SL2) = 1, so the product must agree with the weight-10 series
    prec = 12
    e4, e6, e10 = (eisenstein_sl2(k, prec).series for k in (4, 6, 10))
    assert e4 * e6 == e10


def test_eta8_matches_naive_product():
    prec = 14
    eta8 = eta_pow(8, prec)
    oracle = naive_euler_product_pow(8, prec)
    for n, c in enumerate(oracle):
        assert eta8.coefficient(Fraction(1, 3) + n) == c


def test_eta8_leading_terms():
    eta8 = eta_pow(8, 5)
    third = Fraction(1, 3)
    assert eta8.coefficient(third) == 1
    assert eta8.coefficient(third + 1) == -8
    assert eta8.coefficient(third + 2) == 20


def test_delta_expansion():
    d = delta_cusp_form(6)
    assert d.coefficient(0) == 0
    assert [d.coefficient(n) for n in (1, 2, 3, 4, 5)] == [1, -24, 252, -1472, 4830]


def test_eta_cubed_is_delta():
    prec = 11
    eta8 = eta_pow(8, prec)
    assert eta8 * eta8 * eta8 == delta_cusp_form(prec).series


# ---------------------------------------------------------------------------
# level 2


def test_weight2_form_has_odd_divisor_sums():
    d = gamma0_2_eisenstein_basis(2, 8)[0]
    assert d.coefficient(0) == 1
    for n in range(1, 8):
        assert d.coefficient(n) == 24 * sigma_odd(n)


def test_gamma0_2_basis_weight0():
    basis = gamma0_2_eisenstein_basis(0, 5)
    assert len(basis) == 1
    assert basis[0].series == QSeries.one(5)


def test_gamma0_2_basis_weight8():
    basis = gamma0_2_eisenstein_basis(8, 6)
    assert len(basis) == 2
    assert basis[0].coefficient(0) == 1 and basis[1].coefficient(0) == 1
    assert basis[1].coefficient(1) == 0  # rescaled series starts at q^2


def test_slash_constant_is_identity():
    one = gamma0_2_eisenstein_basis(0, 6)[0]
    s, u = slash_level2(one)
    assert s == QSeries.one(6)
    assert u == QSeries.one(6)


def test_weight2_slash_sum_vanishes():
    d = gamma0_2_eisenstein_basis(2, 10)[0]
    s, u = slash_level2(d)
    total = d.series + s + u
    assert total.is_zero()


def test_trace_has_integer_exponents():
    f = gamma0_2_eisenstein_basis(8, 8)[1]
    tr = trace_to_sl2(f, slash_level2(f))
    assert all(e.denominator == 1 for e in tr.series.support())


def test_trace_lands_in_level_one(rng=random.Random(7)):
    # f + f|S + f|U must be an exact E4/E6 polynomial for weights 4..12
    for k in (4, 6, 8, 10, 12):
        basis = gamma0_2_eisenstein_basis(k, 10)
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
        series = QSeries.zero(10)
        for c, b in zip(coeffs, basis):
            series = series + c * b.series
        f = ScalarForm(Fraction(k), "Gamma0_2", series)
        tr = trace_to_sl2(f, slash_level2(f))
        monos = sl2_monomial_basis(k, 10)
        rows = [[mono.coefficient(n) for _, mono in monos] + [tr.series.coefficient(n)] for n in range(10)]
        # solve exactly
        sol = _solve(rows, len(monos))
        assert sol is not None


def _solve(aug_rows, ncols):
    aug = [row[:] for row in aug_rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        d = aug[r][c]
        aug[r] = [x / d for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][ncols] != 0:
            return None
    return [row[ncols] for row in aug[:r]]


def test_decompose_rejects_non_modular_input():
    series = QSeries({0: 1, 1: 17, 2: -5, 3: 1, 4: 2, 5: 9}, 6)
    with pytest.raises(DecompositionError):
        decompose_level2(ScalarForm(Fraction(4), "Gamma0_2", series))


def test_decompose_rejects_fractional_exponents():
    e4, e4x2 = gamma0_2_eisenstein_basis(4, 6)
    series = e4.series + e4x2.series + QSeries.monomial(Fraction(1, 2), 7, 6)
    with pytest.raises(DecompositionError, match="integer exponents"):
        decompose_level2(ScalarForm(Fraction(4), "Gamma0_2", series))


def w2_e4_slash(f, which):
    """f|S or f|U through the free basis w2^a E4^b (2a + 4b = k) of M_k(Gamma0(2)).

    The slash is multiplicative, so only two closed forms are quoted:
    w2|S = E2(tau/2)/2 - E2, w2|U = E2((tau+1)/2)/2 - E2 and E4|S = E4|U = E4.
    """
    k, prec = int(f.weight), f.series.truncation
    e2 = eisenstein_sl2(2, 2 * prec).series
    half = e2.rescale(Fraction(1, 2)) if which == "S" else e2.half_twist()
    w2, w2_slashed = 2 * e2.rescale(2).truncate(prec) - e2.truncate(prec), half / 2 - e2.truncate(prec)
    e4 = eisenstein_sl2(4, prec).series
    expos = [(a, (k - 2 * a) // 4) for a in range(k // 2 + 1) if (k - 2 * a) % 4 == 0]
    monos = [w2**a * e4**b for a, b in expos]
    coeffs = _solve([[m.coefficient(n) for m in monos] + [f.coefficient(n)] for n in range(int(prec))], len(monos))
    assert coeffs is not None and len(coeffs) == len(monos)
    total = QSeries.zero(prec)
    for c, (a, b) in zip(coeffs, expos):
        total = total + c * w2_slashed**a * e4**b
    return total


@pytest.mark.parametrize("k", range(0, 26, 2))
def test_slash_matches_w2_e4_oracle(k):
    rng = random.Random(k)
    for prec in (1 + k // 4, 3 + k // 4, 10):
        basis = gamma0_2_eisenstein_basis(k, prec)
        series = QSeries.zero(prec)
        for b in basis:
            series = series + Fraction(rng.randint(-9, 9), rng.randint(1, 5)) * b.series
        f = ScalarForm(Fraction(k), "Gamma0_2", series)
        for which, slashed in zip("SU", slash_level2(f)):
            assert slashed == w2_e4_slash(f, which), (k, prec, which)


@pytest.mark.parametrize("prec", [3, 4, 8])
def test_decompose_rejects_cusp_form(prec):
    # (eta(tau) eta(2 tau))^8 = q - 8 q^2 + ... spans the weight-8 cusp forms of Gamma0(2)
    series = eta_pow(8, prec) * eta_pow(8, prec).rescale(2)
    cusp = ScalarForm(Fraction(8), "Gamma0_2", series)
    assert series.coefficient(1) == 1 and series.coefficient(2) == -8
    with pytest.raises(DecompositionError):
        decompose_level2(cusp)
    with pytest.raises(DecompositionError):
        slash_level2(cusp)


@pytest.mark.parametrize("k", range(4, 26, 2))
def test_decompose_needs_sturm_bound_coefficients(k):
    short = gamma0_2_eisenstein_basis(k, k // 4)[0]
    with pytest.raises(DecompositionError, match=f"need at least {1 + k // 4} coefficients"):
        decompose_level2(short)
    assert decompose_level2(gamma0_2_eisenstein_basis(k, 1 + k // 4)[0]) == [1, 0]


@pytest.mark.parametrize("prec", [Fraction(5, 2), 3, 8])
def test_slash_reads_the_basis_off_its_own_expansion(prec):
    # decompose_level2 solves against gamma0_2_eisenstein_basis itself, one memoised expansion
    for k in range(0, 26, 2):
        basis = tuple(b.series for b in gamma0_2_eisenstein_basis(k, prec))
        assert classical._eisenstein_bases(k, Fraction(prec))[0] == basis, k
        if ceil(prec) >= 1 + k // 4:
            f = ScalarForm(Fraction(k), "Gamma0_2", sum(basis[1:], 3 * basis[0]))
            assert decompose_level2(f) == [3, 1][: len(basis)]


@pytest.mark.parametrize("k", [4, 6, 8, 10, 14])
def test_one_d8_input_expands_e_k_once(monkeypatch, k):
    # from a cleared memo: one E_(k-4) for the basis, the decomposition and both slashes, none at k = 4;
    # the orbit-1 input of the same weight reads the same expansion
    classical._eisenstein_bases.cache_clear()
    calls = []

    def counted(weight, prec, real=classical.eisenstein_sl2):
        calls.append(weight)
        return real(weight, prec)

    monkeypatch.setattr(classical, "eisenstein_sl2", counted)
    jacobi_eisenstein("D8", k, 0, 15)
    assert calls == ([] if k == 4 else [k - 4])
    if k >= 8:
        jacobi_eisenstein("D8", k, 1, 15)
        assert calls == [k - 4]


# ---------------------------------------------------------------------------
# level 3 plus space


def representation_numbers_hexagonal(prec):
    """Oracle: r(n) = #{(x,y): x^2 + xy + y^2 = n} by box search."""
    out = [0] * prec
    bound = int(prec**0.5) + 2
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            n = x * x + x * y + y * y
            if n < prec:
                out[n] += 1
    return out


def test_plus_weight1_is_hexagonal_theta():
    prec = 40
    form = plus_eisenstein_gamma0_3(1, prec)
    oracle = representation_numbers_hexagonal(prec)
    for n in range(prec):
        assert form.coefficient(n) == oracle[n]


@pytest.mark.parametrize("w", [1, 3, 5, 7, 9, 13])
def test_plus_kills_residue_two(w):
    form = plus_eisenstein_gamma0_3(w, 30)
    assert form.coefficient(0) == 1
    assert form.coefficient(2) == 0
    for n in range(2, 30, 3):
        assert form.coefficient(n) == 0


def test_plus_rejects_even_weight():
    with pytest.raises(ValueError):
        plus_eisenstein_gamma0_3(4, 10)


# ---------------------------------------------------------------------------
# half-integral weight


def test_theta_series():
    th = theta_series(17)
    assert [th.coefficient(n) for n in range(17)] == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2]


def test_cohen_h20_is_zeta_minus3():
    assert cohen_class_number(2, 0) == Fraction(1, 120)


def test_cohen_weight_5_half_values():
    # H(2, n) for n = 1, 4: classical values -1/12 and -7/12
    assert cohen_class_number(2, 1) == Fraction(-1, 12)
    assert cohen_class_number(2, 4) == Fraction(-7, 12)
    assert cohen_class_number(2, 2) == 0
    assert cohen_class_number(2, 3) == 0


def test_cohen_eisenstein_support():
    for r in (2, 4, 6):
        form = cohen_eisenstein(r, 25)
        assert form.coefficient(0) == 1
        for e in form.series.support():
            assert int(e) % 4 in (0, 1)


def test_cohen_eisenstein_weight():
    assert cohen_eisenstein(2, 8).weight == Fraction(5, 2)
    assert cohen_eisenstein(0, 8).weight == Fraction(1, 2)


def test_cohen_eisenstein_rejects_odd_parameter():
    with pytest.raises(ValueError):
        cohen_eisenstein(3, 10)


def test_hurwitz_oracle_values():
    assert hurwitz_oracle(3) == Fraction(1, 3)
    assert hurwitz_oracle(4) == Fraction(1, 2)
    assert hurwitz_oracle(23) == 3
    assert hurwitz_oracle(5) == 0  # 5 = 1 mod 4


def test_hurwitz_formula_matches_oracle_to_200():
    for n in range(1, 201):
        assert hurwitz_class_number(n) == hurwitz_oracle(n), n


# ---------------------------------------------------------------------------
# characters


def test_kronecker_character_mod_3():
    # the quadratic character mod 3, which the level-3 Eisenstein series read off kronecker_symbol
    for n in range(1, 3000):
        want = 0 if n % 3 == 0 else (1 if n % 3 == 1 else -1)
        assert kronecker_symbol(-3, n) == want


def test_kronecker_character_mod_4():
    for n in range(1, 40):
        want = 0 if n % 2 == 0 else (1 if n % 4 == 1 else -1)
        assert kronecker_symbol(-4, n) == want


def test_kronecker_character_mod_8():
    table = {1: 1, 3: 1, 5: -1, 7: -1}
    for n in range(1, 40):
        want = 0 if n % 2 == 0 else table[n % 8]
        assert kronecker_symbol(-8, n) == want


def test_fundamental_decomposition_is_fundamental():
    for m in range(-4000, 4001):
        if m == 0 or m % 4 not in (0, 1):
            continue
        d, f = fundamental_decomposition(m)
        assert is_fundamental_discriminant(d) and f > 0 and d * f * f == m, m


def test_fundamental_discriminants_are_the_squarefree_ones():
    # independent of fundamental_decomposition: D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree
    def squarefree(n):
        return n != 0 and all(n % (p * p) for p in range(2, isqrt(abs(n)) + 1))

    for d in range(-4000, 4001):
        want = (d % 4 == 1 and squarefree(d)) or (d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4))
        assert is_fundamental_discriminant(d) == want, d


def test_generalized_bernoulli_values():
    assert generalized_bernoulli(1, -3) == Fraction(-1, 3)
    assert generalized_bernoulli(1, -4) == Fraction(-1, 2)
    assert generalized_bernoulli(1, 1) == Fraction(1, 2)


def exp_series_bernoulli(disc, order):
    """B_{n,chi} for n < order as n! [t^n] sum_a chi(a) t e^{at} / (e^{|D| t} - 1).

    The numerator series is divided by (e^{|D| t} - 1) / t term by term.
    """
    m = abs(disc)
    chars = [(a, kronecker_symbol(disc, a)) for a in range(1, m + 1)]
    numer = [Fraction(sum(ch * a**i for a, ch in chars), factorial(i)) for i in range(order)]
    denom = [Fraction(m ** (i + 1), factorial(i + 1)) for i in range(order)]
    quot = []
    for i in range(order):
        quot.append((numer[i] - sum(denom[i - j] * quot[j] for j in range(i))) / denom[0])
    return [q * factorial(n) for n, q in enumerate(quot)]


def test_generalized_bernoulli_matches_exp_series():
    discs = [d for d in range(-120, 121) if d not in (0, 1) and is_fundamental_discriminant(d)]
    assert len(discs) > 60
    for disc in discs:
        oracle = exp_series_bernoulli(disc, 31)
        for n in range(1, 31):
            assert generalized_bernoulli(n, disc) == oracle[n], (n, disc)
    oracle = exp_series_bernoulli(1, 21)
    for n in range(21):
        assert generalized_bernoulli(n, 1) == oracle[n], n


def test_generalized_bernoulli_in_scrambled_order(monkeypatch):
    # cold caches, a power-sum cache that evicts, and n rising and falling per discriminant
    monkeypatch.setattr(classical, "_POWER_SUMS", {})
    monkeypatch.setattr(classical, "_POWER_SUMS_LIMIT", 4)
    discs = [d for d in range(-60, 61) if d not in (0, 1) and is_fundamental_discriminant(d)]
    oracles = {disc: exp_series_bernoulli(disc, 27) for disc in discs}
    pairs = [(n, disc) for disc in discs for n in range(1, 27)]
    random.Random(5).shuffle(pairs)
    for n, disc in pairs:
        assert generalized_bernoulli(n, disc) == oracles[disc][n], (n, disc)
    assert len(classical._POWER_SUMS) == 4


def test_inner_caches_are_bounded():
    assert classical._binomial_bernoulli.cache_info().maxsize == classical._BERNOULLI_ROWS_LIMIT
    assert classical._class_number_row.cache_info().maxsize == classical._CLASS_ROWS_LIMIT


def test_every_lru_cache_in_the_package_is_bounded():
    # every functools.lru_cache of every omfree module, at module level or on a class
    found = {}
    for info in pkgutil.iter_modules(omfree.__path__):
        module = importlib.import_module(f"omfree.{info.name}")
        members = list(vars(module).items())
        members += [(f"{n}.{m}", v) for n, c in vars(module).items() if isinstance(c, type) for m, v in vars(c).items()]
        for name, value in members:
            value = getattr(value, "__func__", value)
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert len(found) >= 10, found
    assert all(size is not None for size in found.values()), found


def fraction_cohen_eisenstein(r, prec):
    """cohen_eisenstein(r, prec) coefficients from Fraction sums of a**e over a full period.

    Bernoulli numbers come from the recursion; each L-value is computed once per discriminant.
    """
    l_values = {}

    def l_value(disc):
        if disc not in l_values:
            m = abs(disc)
            sums = [sum(kronecker_symbol(disc, a) * a**e for a in range(1, m + 1)) for e in range(r + 1)]
            b_r = sum(
                comb(r, j) * bernoulli_recursive(j) * Fraction(m) ** (j - 1) * sums[r - j] for j in range(r + 1)
            )
            l_values[disc] = -b_r / r
        return l_values[disc]

    def class_number(n):
        d, f = fundamental_decomposition(n if r % 2 == 0 else -n)
        total = sum(
            moebius(dd) * kronecker_symbol(d, dd) * dd ** (r - 1) * sigma(f // dd, 2 * r - 1)
            for dd in range(1, f + 1)
            if f % dd == 0
        )
        return l_value(d) * total

    h0 = -bernoulli_recursive(2 * r) / (2 * r)
    return {n: class_number(n) / h0 for n in range(1, prec + 1) if n % 4 in (0, 1)}


def test_cohen_eisenstein_matches_a_fraction_recomputation():
    # every even r of the E7 tower (weights k = r + 4 from 4 to 30) at the certificate's
    # O(q^104), and the end points r = 2, 26 further out
    precisions = [(r, 104) for r in range(2, 27, 2)] + [(2, 300), (26, 300)]
    for r, prec in precisions:
        form = cohen_eisenstein(r, prec)
        want = fraction_cohen_eisenstein(r, prec)
        assert form.series.truncation == prec and form.coefficient(0) == 1
        for n in range(1, prec):
            assert form.coefficient(n) == want.get(n, 0), (r, n)
    assert cohen_eisenstein(0, 104) == theta_series(104)


@pytest.mark.parametrize("r", [2, 4, 16, 22, 24, 26])
def test_cohen_class_numbers_are_the_series_coefficients(r):
    # cohen_class_number and cohen_eisenstein read one class-number row per N
    h0 = cohen_class_number(r, 0)
    form = cohen_eisenstein(r, 300)
    for n in range(300):
        assert cohen_class_number(r, n) == h0 * form.coefficient(n), (r, n)


def test_e7_cohen_series_list_each_character_once(monkeypatch):
    # the nine E7 inputs with r > 0 at the certificate's O(q^104), every cache cold
    monkeypatch.setattr(classical, "_POWER_SUMS", {})
    for cached in (classical._binomial_bernoulli, classical._class_number_row):
        cached.cache_clear()
    calls = []

    def counted(a, b, symbol=classical.kronecker_symbol):
        calls.append((a, b))
        return symbol(a, b)

    monkeypatch.setattr(classical, "kronecker_symbol", counted)
    for r in (2, 6, 8, 10, 12, 14, 18, 20, 26):
        cohen_eisenstein(r, 104)
    # chi_D(a) for a <= |D| is listed once per discriminant (1719 calls with the divisor rows);
    # listing it again at each new exponent made 16416
    assert len(calls) <= 2000
    classical._class_number_row.cache_clear()


def test_e2_half_rescale_example():
    e2 = eisenstein_sl2(2, 6)
    half = e2.series.rescale(Fraction(1, 2))
    assert half.coefficient(Fraction(1, 2)) == -24
