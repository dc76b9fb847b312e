"""The exact decimal layer: its contexts never round, and DecimalFraction
agrees with Fraction on lowest terms, text and arithmetic."""

import copy
import decimal
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilab._dec import DecimalFraction, context_for, exact_context


def test_exact_context_one_digit_too_small_raises():
    nines = Decimal("9" * 30)
    assert exact_context(60).multiply(nines, nines) == Decimal((10**30 - 1) ** 2)
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        exact_context(59).multiply(nines, nines)
    # a result that would only lose zeros still raises: the exponent must stay 0
    power = Decimal(10**30)
    assert str(exact_context(61).multiply(power, power)) == "1" + "0" * 60
    with pytest.raises(decimal.Rounded):
        exact_context(60).multiply(power, power)
    with pytest.raises(decimal.InvalidOperation):  # a quotient past the precision
        exact_context(3).divide_int(Decimal(10**6), Decimal(7))


def test_context_for_covers_the_digits():
    for digits in (1, 2, 3, 1000, 1024, 1025, 10**6):
        assert context_for(digits).prec >= digits
    assert context_for(1500) is context_for(2000)


# numerators whose 2-adic or 5-adic valuation, or run of trailing zeros, runs
# past the first 16-digit window of the reduction
_NUMERATORS = st.one_of(
    st.integers(-(10**40), 10**40),
    st.builds(lambda m, a: m * 2**a, st.integers(-(10**6), 10**6), st.integers(0, 220)),
    st.builds(lambda m, b: m * 5**b, st.integers(-(10**6), 10**6), st.integers(0, 120)),
    st.builds(lambda m, z: m * 10**z, st.integers(-(10**30), 10**30), st.integers(0, 120)),
    st.just(0),
)
# denominators sharing 2 and 5 with 10^e, and sharing other factors with N
_DENOMINATORS = st.one_of(
    st.integers(1, 10**6),
    st.builds(lambda i, j, k: 2**i * 5**j * k, st.integers(0, 40), st.integers(0, 30), st.integers(1, 999)),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(num=_NUMERATORS, den=_DENOMINATORS, exp=st.integers(0, 150), shared=st.integers(1, 3000))
def test_text_is_fraction_lowest_terms(num, den, exp, shared):
    for n, d in ((num, den), (num * shared, den * shared)):
        x = DecimalFraction(Decimal(n), d, exp)
        want = Fraction(n, d * 10**exp)
        assert x.text() == f"{want.numerator}/{want.denominator}"
        assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
        assert x == want and hash(x) == hash(want)


def test_text_of_zero_and_negatives():
    assert DecimalFraction(Decimal(0), 7, 30).text() == "0/1"
    assert DecimalFraction(Decimal(0).copy_negate(), 1, 0).text() == "0/1"
    assert DecimalFraction(Decimal(-250), 3, 2).text() == "-5/6"
    assert DecimalFraction(Decimal(-1), 1, 0).text() == "-1/1"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(a=_NUMERATORS, da=_DENOMINATORS, ea=st.integers(0, 60),
       b=_NUMERATORS, db=_DENOMINATORS, k=st.integers(-(10**20), 10**20))
def test_arithmetic_stays_exact_and_unreduced(a, da, ea, b, db, k):
    x = DecimalFraction(Decimal(a), da, ea)
    fx, fy = Fraction(a, da * 10**ea), Fraction(b, db)
    for got, want in ((x * k, fx * k), (k * x, fx * k)):
        assert type(got) is DecimalFraction
        assert got == want
        assert got.text() == f"{want.numerator}/{want.denominator}"
    # any other arithmetic is Fraction's, on the lowest terms
    for got, want in ((x + fy, fx + fy), (fy + x, fx + fy), (x - fy, fx - fy), (fy - x, fy - fx),
                      (-x, -fx), (x - x, 0), (x + k, fx + k)):
        assert type(got) is Fraction and got == want


def test_is_a_fraction_everywhere():
    x = DecimalFraction(Decimal(1415926535), 1, 10)
    assert isinstance(x, Fraction) and x == Fraction(1415926535, 10**10)
    assert float(x) == 0.1415926535 and x < Fraction(1, 7) and not x > 1
    assert x * Fraction(1, 2) == Fraction(1415926535, 2 * 10**10)  # Fraction arithmetic still applies
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and twin.text() == x.text()
    with pytest.raises(ValueError):
        DecimalFraction(Decimal(1), 0, 0)
