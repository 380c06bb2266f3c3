import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrank.arith import (
    factor_integer,
    is_prime,
    perfect_power_exponent,
    rational_nth_root,
)
from qrank.errors import EvenRootOfNegative, NonPositive


def test_factor_integer_known_values():
    assert factor_integer(1) == {}
    assert factor_integer(360) == {2: 3, 3: 2, 5: 1}
    # 10403 = 101 * 103, checked by trial division
    assert factor_integer(10403) == {101: 1, 103: 1}


def test_factor_integer_rejects_nonpositive():
    with pytest.raises(NonPositive):
        factor_integer(0)
    with pytest.raises(NonPositive):
        factor_integer(-6)


def test_factor_integer_round_trip_exhaustive():
    for n in range(1, 10**5 + 1):
        prod = 1
        for p, e in factor_integer(n).items():
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n


def test_factor_integer_large_semiprime():
    n = 1000003 * 1000033
    assert factor_integer(n) == {1000003: 1, 1000033: 1}


def test_rational_nth_root_known_values():
    assert rational_nth_root(Fraction(9, 4), 2) == Fraction(3, 2)
    assert rational_nth_root(2, 2) is None
    assert rational_nth_root(-8, 3) == -2
    assert rational_nth_root(0, 5) == 0
    assert rational_nth_root(16, 4) == 2


def test_rational_nth_root_even_root_of_negative():
    with pytest.raises(EvenRootOfNegative):
        rational_nth_root(-4, 2)
    with pytest.raises(NonPositive):
        rational_nth_root(4, 0)


@given(
    st.fractions(min_value=Fraction(-50), max_value=50).filter(lambda r: r != 0),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=150)
def test_rational_nth_root_exact_on_perfect_powers(r, n):
    x = r**n
    if x < 0 and n % 2 == 0:
        return
    root = rational_nth_root(x, n)
    assert root is not None
    assert root**n == x
    if n % 2 == 0:
        assert root > 0


def test_perfect_power_exponent_known_values():
    assert perfect_power_exponent(9) == 2
    assert perfect_power_exponent(12) == 1
    assert perfect_power_exponent(Fraction(64, 729)) == 6
    assert perfect_power_exponent(2**60) == 60
    assert perfect_power_exponent(Fraction(1, 3**35)) == 35
    # a 196-bit semiprime of two Mersenne primes: no factoring needed
    assert perfect_power_exponent((2**89 - 1) * (2**107 - 1)) == 1
    with pytest.raises(NonPositive):
        perfect_power_exponent(Fraction(-8))
    with pytest.raises(ValueError):
        perfect_power_exponent(1)


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100)
def test_perfect_power_exponent_is_gcd_of_exponents(a, b, n):
    x = Fraction(a, b) ** n
    if x == 1:
        return
    g = 0
    for part in (x.numerator, x.denominator):
        for e in factor_integer(part).values():
            g = math.gcd(g, e)
    assert perfect_power_exponent(x) == g
