"""Exact series arithmetic: identities, substitutions, and ring laws."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omfree import qseries
from omfree.classical import eisenstein_sl2
from omfree.qseries import (
    ExponentDenominatorError,
    QSeries,
    TruncationError,
    express_in_basis,
    shared_support,
)
from omfree.weil import JacobiForm
from oracles import (
    series_add,
    series_half_twist,
    series_mul,
    series_pow,
    series_rescale,
    series_scale,
    series_shift,
    series_table,
)


def series(terms, trunc=10):
    return QSeries(terms, trunc)


def brute_sigma(n, k):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_zero_coefficients_dropped():
    s = series({0: 1, 1: 0, 2: Fraction(1, 2)})
    assert s.support() == [0, 2]
    assert s.coefficient(1) == 0


def test_terms_beyond_truncation_dropped():
    s = series({0: 1, 12: 5}, trunc=10)
    assert s.support() == [0]


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        series({-1: 1})


def test_denominator_cap():
    with pytest.raises(ExponentDenominatorError):
        series({Fraction(1, 25): 1})


def test_zero_coefficient_at_negative_exponent_dropped():
    assert series({-1: 0, 0: 1}) == QSeries.one(10)
    with pytest.raises(ValueError, match="negative exponent -1 not supported"):
        series({-1: 1, 0: 1})


def test_product_exponent_over_cap_raises_only_if_its_coefficient_survives():
    # q^(1/5) q^(1/6) = q^(11/30), and 30 is above the cap of 24
    fifth, sixth = series({Fraction(1, 5): 1}), series({Fraction(1, 6): 1})
    with pytest.raises(ExponentDenominatorError, match="exponent 11/30 has denominator 30 > cap 24"):
        fifth * sixth
    # (q^(1/5) - q^(1/6)) (q^(1/5) + q^(1/6)) = q^(2/5) - q^(1/3): the q^(11/30) terms cancel
    assert (fifth - sixth) * (fifth + sixth) == series({Fraction(2, 5): 1, Fraction(1, 3): -1})


def test_coefficient_beyond_truncation_raises():
    s = series({0: 1}, trunc=5)
    with pytest.raises(TruncationError):
        s.coefficient(7)


def test_equality_needs_matching_truncation():
    assert series({1: 2}, 5) != series({1: 2}, 6)
    assert series({1: 2}, 5) == series({1: 2}, 5)


# ---------------------------------------------------------------------------
# add


def test_add_cancellation():
    one_plus_q = series({0: 1, 1: 1})
    one_minus_q = series({0: 1, 1: -1})
    assert (one_plus_q + one_minus_q) == series({0: 2})


def test_add_identity():
    theta = series({0: 1, 1: 2, 4: 2, 9: 2})
    assert theta + QSeries.zero(10) == theta


def test_add_eisenstein_q_coefficients():
    # q-coefficients of the weight-4 and weight-6 series: 240 and -504
    e4 = series({0: 1, 1: 240 * brute_sigma(1, 3)})
    e6 = series({0: 1, 1: -504 * brute_sigma(1, 5)})
    assert (e4 + e6).coefficient(1) == -264


def test_add_truncation_is_min():
    assert (series({1: 1}, 5) + series({1: 1}, 8)).truncation == 5


# ---------------------------------------------------------------------------
# mul


def test_mul_square():
    one_plus_q = series({0: 1, 1: 1})
    assert one_plus_q * one_plus_q == series({0: 1, 1: 2, 2: 1})


def test_mul_scalar():
    s = series({0: 1, 1: 3})
    assert 2 * s == series({0: 2, 1: 6})
    assert s / 2 == series({0: Fraction(1, 2), 1: Fraction(3, 2)})


def test_pow():
    s = series({0: 1, 1: 1}, 6)
    assert s**3 == series({0: 1, 1: 3, 2: 3, 3: 1}, 6)
    assert s**0 == QSeries.one(6)


def test_pow_starts_from_the_lowest_set_bit(monkeypatch):
    # e4**2 is one product, with no product by the constant 1 first
    e4 = eisenstein_sl2(4, 65).series
    square = e4 * e4
    calls = []

    def counted(f, g, bound, real=qseries.kronecker_product):
        calls.append(bound)
        return real(f, g, bound)

    monkeypatch.setattr(qseries, "kronecker_product", counted)
    assert e4**2 == square
    assert len(calls) == 1
    calls.clear()
    assert e4**0 == QSeries.one(65)
    assert e4**1 == e4
    assert calls == []
    # one squaring per bit below the top one, and one product per set bit past the lowest
    power = e4
    for n in range(2, 9):
        power = power * e4
        calls.clear()
        assert e4**n == power, n
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n


# ---------------------------------------------------------------------------
# rescale


def test_rescale_theta_by_four():
    theta = series({0: 1, 1: 2, 4: 2}, 5)
    scaled = theta.rescale(4)
    assert scaled == series({0: 1, 4: 2, 16: 2}, 20)


def test_rescale_preserves_coefficients():
    e4ish = series({0: 1, 1: 240, 2: 2160}, 3)
    assert e4ish.rescale(2).coefficient(2) == 240


def test_rescale_half_makes_half_exponents():
    e2ish = series({0: 1, 1: -24}, 2)
    assert e2ish.rescale(Fraction(1, 2)).coefficient(Fraction(1, 2)) == -24


def test_rescale_denominator_overflow():
    s = series({Fraction(1, 4): 1})
    with pytest.raises(ExponentDenominatorError):
        s.rescale(Fraction(1, 7))


def test_rescale_round_trip():
    s = series({0: 1, 1: 5, 3: -2}, 7)
    assert s.rescale(3).rescale(Fraction(1, 3)) == s


# ---------------------------------------------------------------------------
# half_twist


def test_half_twist_constant():
    assert QSeries.one(4).half_twist() == QSeries.one(2)


def test_half_twist_signs():
    # exponent n maps to n/2 with sign (-1)^n
    e2ish = series({0: 1, 1: -24, 2: -72, 3: -96}, 4)
    tw = e2ish.half_twist()
    assert tw.coefficient(Fraction(1, 2)) == 24
    assert tw.coefficient(1) == -72
    assert tw.coefficient(Fraction(3, 2)) == 96


def test_half_twist_needs_integer_exponents():
    with pytest.raises(ValueError):
        series({Fraction(1, 2): 1}).half_twist()


def test_half_twist_after_doubling_is_identity():
    s = series({0: 1, 1: 7, 2: -3}, 5)
    assert s.rescale(2).half_twist() == s


def test_half_twist_twice_is_quarter_rescale_on_4z_support():
    s = series({0: 2, 1: -5, 3: 9}, 6)
    lifted = s.rescale(4)
    assert lifted.half_twist().half_twist() == s


# ---------------------------------------------------------------------------
# the store-level solve


def test_shared_support_is_sorted_and_inside_every_box():
    a = QSeries({0: 1, Fraction(7, 2): 2}, 4)
    b = QSeries({Fraction(1, 2): 3, 2: 1}, 3)
    assert shared_support([a, b]) == [0, Fraction(1, 2), 2]
    assert shared_support([QSeries.zero(5)]) == []


def test_express_qseries_in_basis():
    prec = 8
    e8, e4_squared = eisenstein_sl2(8, prec).series, eisenstein_sl2(4, prec).series ** 2
    res = express_in_basis(e8, [e4_squared])
    assert res.status == "unique" and res.coefficients == [1]
    res = express_in_basis(e8 + QSeries.monomial(3, 1, prec), [e4_squared])
    assert res.status == "inconsistent"
    assert res.witness == Fraction(3)


def test_express_jacobi_forms_in_basis(generator_pullback_forms):
    phi0, phi1 = generator_pullback_forms[("D8", "E8,0")], generator_pullback_forms[("D8", "E8,1")]
    target = Fraction(3, 7) * phi0 + 5 * phi1
    assert target.den != phi0.den
    res = express_in_basis(target, [phi0, phi1])
    assert res.status == "unique"
    assert res.coefficients == [Fraction(3, 7), 5]


def test_express_rejects_a_basis_of_another_head_or_type(generator_pullback_forms):
    phi0 = generator_pullback_forms[("D8", "E8,0")]
    other_index = JacobiForm(phi0.weight, phi0.index + 1, {(0, 0): 1}, phi0.nq)
    with pytest.raises(ValueError, match="weight and index"):
        express_in_basis(phi0, [other_index])
    with pytest.raises(ValueError, match="JacobiForm"):
        express_in_basis(phi0, [QSeries.one(phi0.nq + 1)])


# ---------------------------------------------------------------------------
# rendering


def test_str_rendering():
    s = series({0: 1, Fraction(1, 2): 2}, 3)
    assert str(s) == "1 + 2*q^(1/2) + O(q^3)"


def test_json_terms():
    s = series({Fraction(1, 2): Fraction(-3, 4), 1: 2}, 3)
    assert s.to_json_terms() == [[1, 2, -3, 4], [1, 1, 2, 1]]


@pytest.mark.parametrize(
    "s",
    [series({0: 1}, 3), series({Fraction(1, 2): Fraction(-3, 4), 1: 2}, Fraction(7, 2)), QSeries.zero(1)],
    ids=["one", "halves", "zero"],
)
def test_json_payload_round_trips(s):
    payload = s.to_json()
    assert json.loads(json.dumps(payload)) == payload
    num, den = payload["truncation"]
    terms = {Fraction(a, b): Fraction(c, d) for a, b, c, d in payload["terms"]}
    assert QSeries(terms, Fraction(num, den)) == s


# ---------------------------------------------------------------------------
# ring laws (property-based)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=6) | st.builds(
    Fraction, st.integers(min_value=-(10**30), max_value=10**30), st.integers(min_value=1, max_value=10**30)
)
# exponent denominators 1, 2, 3, 4 and 8: every sum of two has a denominator dividing the cap 24
exponents = st.sampled_from((1, 2, 3, 4, 8)).flatmap(
    lambda d: st.integers(min_value=0, max_value=10 * d - 1).map(lambda n: Fraction(n, d))
)
terms = st.dictionaries(exponents, rationals, max_size=5)
sparse = terms.map(lambda d: QSeries(d, 10))
# fractional and unequal truncations: a product keeps the smaller one
truncated = st.builds(QSeries, terms, st.sampled_from((10, Fraction(7, 2), Fraction(19, 3))))
whole = st.dictionaries(st.integers(min_value=0, max_value=9), rationals, max_size=5).map(lambda d: QSeries(d, 10))


@settings(max_examples=60)
@given(sparse, sparse)
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=60)
@given(sparse, sparse)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=60)
@given(sparse, sparse, sparse)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60)
@given(sparse, sparse, sparse)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


def table(s):
    return dict(s.terms()), s.truncation


@settings(max_examples=60)
@given(truncated, truncated, rationals.filter(bool), st.integers(min_value=0, max_value=3))
def test_ring_operations_match_dict_oracle(a, b, c, n):
    ta, tb = table(a), table(b)
    assert table(a + b) == series_add(ta, tb)
    assert table(a - b) == series_add(ta, series_scale(tb, -1))
    assert table(-a) == series_scale(ta, -1)
    assert table(a * b) == series_mul(ta, tb)
    assert table(a**n) == series_pow(ta, n)
    assert table(c * a) == table(a * c) == series_scale(ta, c)
    assert table(a / c) == series_scale(ta, 1 / c)


@settings(max_examples=60)
@given(
    sparse,
    whole,
    st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), 2, 3)),
    exponents,
    exponents.filter(bool),
)
def test_substitutions_match_dict_oracle(a, w, c, e0, trunc):
    ta = table(a)
    assert table(a.rescale(c)) == series_rescale(ta, c)
    assert table(w.half_twist()) == series_half_twist(table(w))
    assert table(a.shift(e0)) == series_shift(ta, e0)
    assert table(a.truncate(trunc)) == series_table(ta[0], trunc)
