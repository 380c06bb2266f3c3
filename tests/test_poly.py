import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import qpoly
from qrank.errors import (
    BothZero,
    BudgetExceeded,
    DivisionByZero,
    NotMonic,
)
from qrank.poly import (
    CompanionMatrix,
    Poly,
    charpoly_of,
    companion_of,
    divrem,
    gcd,
    substitute_power,
)


def test_ring_examples():
    assert qpoly(1, 1) * qpoly(-1, 1) == qpoly(-1, 0, 1)
    q, r = divrem(qpoly(-1, 0, 1), qpoly(-1, 1))
    assert q == qpoly(1, 1) and r.is_zero()
    # (x^2-2x+2)(x^2+2x+2) = x^4+4, expanded by hand
    assert qpoly(2, -2, 1) * qpoly(2, 2, 1) == qpoly(4, 0, 0, 0, 1)


def test_divrem_invariant_random():
    rng = random.Random(1)
    for _ in range(100):
        p = Poly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 7))])
        q = Poly(
            [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
            + [Fraction(rng.randint(1, 4))]
        )
        quo, rem = divrem(p, q)
        assert q * quo + rem == p
        assert rem.degree < q.degree


def test_divrem_by_zero():
    with pytest.raises(DivisionByZero):
        divrem(qpoly(1, 1), Poly(()))


def test_gcd_examples():
    assert gcd(qpoly(-1, 0, 1), qpoly(-1, 1)) == qpoly(-1, 1)
    assert gcd(qpoly(1, 0, 1), qpoly(-1, 0, 1)) == qpoly(1)
    # from the x^4+4 factorization
    assert gcd(qpoly(4, 0, 0, 0, 1), qpoly(2, -2, 1)) == qpoly(2, -2, 1)


def test_gcd_both_zero():
    with pytest.raises(BothZero):
        gcd(Poly(()), Poly(()))


def test_gcd_divides_and_is_greatest():
    rng = random.Random(2)
    for _ in range(60):
        d = Poly(
            [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
            + [Fraction(1)]
        )
        a = d * Poly([Fraction(rng.randint(-5, 5)), Fraction(1)])
        b = d * Poly([Fraction(rng.randint(-5, 5)), Fraction(1)])
        g = gcd(a, b)
        assert divrem(a, g)[1].is_zero()
        assert divrem(b, g)[1].is_zero()
        # any common divisor divides the gcd
        assert divrem(g, d.monic())[1].is_zero()


def test_substitute_power_examples():
    assert substitute_power(qpoly(-9, 1), 2) == qpoly(-9, 0, 1)
    assert substitute_power(qpoly(1, 0, 1), 3) == qpoly(1, 0, 0, 0, 0, 0, 1)
    p = qpoly(3, 2, 1)
    assert substitute_power(p, 1) == p


def test_substitute_power_checks_degree_cap(monkeypatch):
    monkeypatch.setenv("QRANK_MAX_DEGREE", "10")
    p = qpoly(1, 0, 1)
    assert substitute_power(p, 5).degree == 10
    with pytest.raises(BudgetExceeded, match=r"^degree 12 \(2 \* 6\) is past the cap 10$"):
        substitute_power(p, 6)
    with pytest.raises(BudgetExceeded):
        substitute_power(Poly([Fraction(1)] * 12), 1)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=60)
def test_substitute_power_composes(a, b):
    rng = random.Random(a * 7 + b)
    p = Poly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
    assert substitute_power(substitute_power(p, a), b) == substitute_power(p, a * b)


def test_companion_convention():
    assert companion_of(qpoly(-9, 1)).last_row == (Fraction(9),)
    assert companion_of(qpoly(1, -4, 1)).last_row == (Fraction(-1), Fraction(4))
    c = CompanionMatrix(2, (Fraction(9), Fraction(0)))
    assert charpoly_of(c) == qpoly(-9, 0, 1)


def test_companion_shape():
    c = companion_of(qpoly(1, -4, 1))
    assert c.rows() == [
        [Fraction(0), Fraction(1)],
        [Fraction(-1), Fraction(4)],
    ]


def test_companion_requires_monic():
    with pytest.raises(NotMonic):
        companion_of(qpoly(1, 2))
    with pytest.raises(NotMonic):
        companion_of(qpoly(5))


def test_companion_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        deg = rng.randint(1, 6)
        p = Poly(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
            + [Fraction(1)]
        )
        assert charpoly_of(companion_of(p)) == p
