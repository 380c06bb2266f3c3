import math
import random
from fractions import Fraction

import pytest

from helpers import (
    gaussian_field,
    modular_degree_pattern_ok,
    qpoly,
    random_irreducible,
    sqrt2_field,
    sqrt3_field,
    sqrtm3_field,
)
from qrank.errors import (
    DivisionByZero,
    NotIrreducible,
    ZeroElement,
    ZeroPolynomial,
)
from qrank import numfield
from qrank.numfield import (
    QQ,
    NumberField,
    factor_over_K,
    factor_over_Q,
    flatten,
    in_minus4_fourth_powers,
    is_pth_power,
    minimal_polynomial,
    weil_height,
)
from qrank.poly import Poly, gcd


def test_construction_rejects_reducible():
    with pytest.raises(NotIrreducible):
        NumberField(qpoly(-1, 0, 1))  # t^2 - 1
    with pytest.raises(NotIrreducible):
        NumberField(qpoly(-9, 0, 0, 1).scale(Fraction(2)))  # not monic


def test_element_arithmetic_examples():
    Qi = gaussian_field()
    i = Qi.gen
    assert (Qi.one + i) * (Qi.one - i) == 2
    assert QQ.from_rational(2).inverse() == Fraction(1, 2)
    Q3 = sqrt3_field()
    s3 = Q3.gen
    assert (Q3.from_rational(2) + s3) * (Q3.from_rational(2) - s3) == 1


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        QQ.zero.inverse()


def test_field_axioms_random():
    rng = random.Random(5)
    K = NumberField(qpoly(2, 0, 1, 1))  # t^3 + t + 2 (irreducible: no rational root)
    for _ in range(40):
        a = K.element([Fraction(rng.randint(-5, 5)) for _ in range(3)])
        b = K.element([Fraction(rng.randint(-5, 5)) for _ in range(3)])
        c = K.element([Fraction(rng.randint(-5, 5)) for _ in range(3)])
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_norm_examples():
    Qi = gaussian_field()
    assert (Qi.one + Qi.gen).norm() == 2
    Q2 = sqrt2_field()
    assert (Q2.one + Q2.gen).norm() == -1
    assert Q2.from_rational(3).norm() == 9


def test_norm_multiplicative():
    rng = random.Random(6)
    K = sqrt2_field()
    for _ in range(30):
        a = K.element([Fraction(rng.randint(-6, 6)) for _ in range(2)])
        b = K.element([Fraction(rng.randint(-6, 6)) for _ in range(2)])
        assert (a * b).norm() == a.norm() * b.norm()


def test_factor_over_Q_examples():
    _, f = factor_over_Q(qpoly(-9, 0, 1))
    assert [(p.coeffs, m) for p, m in f] == [
        ((Fraction(-3), Fraction(1)), 1),
        ((Fraction(3), Fraction(1)), 1),
    ]
    _, f = factor_over_Q(qpoly(4, 0, 0, 0, 1))
    assert [p for p, _ in f] == [qpoly(2, -2, 1), qpoly(2, 2, 1)]
    _, f = factor_over_Q(qpoly(-2, 0, 1))
    assert len(f) == 1 and f[0][1] == 1


def test_factor_over_Q_content_and_multiplicity():
    p = qpoly(-1, 1) * qpoly(-1, 1) * qpoly(3, 1).scale(Fraction(6, 5))
    content, factors = factor_over_Q(p)
    prod = Poly([content])
    for f, m in factors:
        for _ in range(m):
            prod = prod * f
    assert prod == p
    assert content == Fraction(6, 5)
    assert sorted(m for _, m in factors) == [1, 2]


def test_factor_over_Q_zero():
    with pytest.raises(ZeroPolynomial):
        factor_over_Q(Poly(()))


def test_factor_over_K_examples():
    Qi = gaussian_field()
    _, f = factor_over_K(Qi, Qi.poly([1, 0, 1]))
    assert [w.degree for w, _ in f] == [1, 1]
    roots = sorted((-w.coeffs[0]).coords for w, _ in f)
    assert roots == [(Fraction(0), Fraction(-1)), (Fraction(0), Fraction(1))]

    Q2 = sqrt2_field()
    _, f = factor_over_K(Q2, Q2.poly([-2, 0, 1]))
    assert [w.degree for w, _ in f] == [1, 1]

    # x^2 - sqrt2 stays irreducible: no element has square sqrt2
    s2 = Q2.gen
    _, f = factor_over_K(Q2, Poly([-s2, Q2.zero, Q2.one]))
    assert len(f) == 1 and f[0][0].degree == 2


def test_factor_over_K_brute_square_search_agrees():
    # independent check for x^2 - sqrt2: (a+b*sqrt2)^2 = sqrt2 needs
    # a^2 + 2b^2 = 0 and 2ab = 1, impossible over Q
    Q2 = sqrt2_field()
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        e = Q2.element([a, b])
        assert (e * e) != Q2.gen


def _random_product(rng, K, budget):
    """Monic product of small random factors over K with total degree at
    most budget: a power of x, then factors of degree 1-3 (coefficients
    a + b*t) raised to powers 1-3, so repeats are common."""
    k = rng.randint(0, 2)
    p = K.poly([0] * k + [1])
    deg = k
    while deg < budget:
        d = rng.randint(1, min(3, budget - deg))
        m = rng.randint(1, min(3, (budget - deg) // d))
        coeffs = [
            K.element([rng.randint(-3, 3) for _ in range(K.degree)])
            for _ in range(d)
        ]
        f = Poly(coeffs + [K.one])
        for _ in range(m):
            p = p * f
        deg += d * m
        if rng.random() < 0.3:
            break
    return p


def test_factor_over_K_matches_sympy_degrees():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20)
    fields = [
        (QQ, sympy.S.One),
        (gaussian_field(), sympy.I),
        (sqrt2_field(), sympy.sqrt(2)),
    ]
    for K, t in fields:
        extension = {"extension": t} if K.degree > 1 else {}
        for _ in range(8):
            p = _random_product(rng, K, 8)
            expr = sum(
                sympy.Rational(a) * t**j * x**i
                for i, c in enumerate(p.coeffs)
                for j, a in enumerate(c.coords)
            )
            _, ref = sympy.factor_list(sympy.expand(expr), x, **extension)
            expected = sorted((sympy.degree(f, x), m) for f, m in ref)
            _, factors = factor_over_K(K, p)
            got = sorted((f.degree, m) for f, m in factors)
            assert got == expected, f"{p!r} over {K!r}"


def test_factor_over_K_runs_yun_once(monkeypatch):
    # x^4 + 1 is squarefree and splits over Q(i); its Trager norm is
    # squarefree by construction, so Yun's algorithm runs only on the input
    Qi = gaussian_field()
    calls = []
    original = numfield.squarefree_decomposition

    def counting(f):
        calls.append(f.degree)
        return original(f)

    monkeypatch.setattr(numfield, "squarefree_decomposition", counting)
    _, factors = factor_over_K(Qi, Qi.poly([1, 0, 0, 0, 1]))
    assert [(f.degree, m) for f, m in factors] == [(2, 1), (2, 1)]
    assert calls == [4]


def _reconstruct(K, p):
    content, factors = factor_over_K(K, p)
    prod = Poly([content])
    for f, m in factors:
        for _ in range(m):
            prod = prod * f
    assert prod == p, f"reconstruction failed over {K!r}"
    for f, _ in factors:
        assert f.is_monic()
    return factors


def test_factorization_reconstruction_500_random():
    rng = random.Random(8)
    fields = [QQ, gaussian_field(), sqrt2_field(), sqrtm3_field()]
    for trial in range(500):
        K = fields[trial % 4]
        k = rng.randint(1, 3)
        p = Poly([K.one])
        for _ in range(k):
            deg = rng.randint(1, 3 if K is QQ else 2)
            coeffs = [
                K.element([Fraction(rng.randint(-6, 6)) for _ in range(K.degree)])
                for _ in range(deg)
            ] + [K.one]
            p = p * Poly(coeffs)
        if p.degree > 8 or p.coeffs[0] == 0:
            continue
        _reconstruct(K, p)


def test_claimed_irreducibles_pass_modular_spot_check():
    rng = random.Random(9)
    for _ in range(60):
        p = random_irreducible(rng, 4, 9, forbid_root_of_unity=False)
        _, factors = factor_over_Q(p)
        assert len(factors) == 1
        assert modular_degree_pattern_ok(factors[0][0], rng)


def test_factors_pairwise_coprime():
    rng = random.Random(10)
    for _ in range(40):
        p = Poly(
            [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(2, 7))]
            + [Fraction(1)]
        )
        if p.is_zero() or p.degree < 2:
            continue
        _, factors = factor_over_Q(p)
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                g = gcd(factors[i][0], factors[j][0])
                assert g.degree == 0


def test_flatten_examples():
    ext = flatten(QQ, qpoly(-2, 0, 1))
    assert ext.degree == 2
    assert ext.field.min_poly == qpoly(-2, 0, 1)
    assert (ext.alpha * ext.alpha) == 2

    Qi = gaussian_field()
    ext = flatten(Qi, Poly([-Qi.gen, Qi.zero, Qi.one]))  # x^2 - i
    assert ext.degree == 4
    assert ext.field.min_poly == qpoly(1, 0, 0, 0, 1)  # u^4 + 1
    assert ext.alpha * ext.alpha == ext.embed(Qi.gen)

    ext = flatten(QQ, qpoly(-5, 1))  # x - 5: degree-1 extension is Q itself
    assert ext.degree == 1
    assert ext.alpha == 5


def test_flatten_rejects_reducible():
    with pytest.raises(NotIrreducible):
        flatten(QQ, qpoly(-9, 0, 1))
    Qi = gaussian_field()
    with pytest.raises(NotIrreducible):
        flatten(Qi, Qi.poly([1, 0, 1]))  # x^2 + 1 splits over Q(i)


def test_flatten_degree_law():
    rng = random.Random(11)
    fields = [QQ, gaussian_field(), sqrt2_field()]
    count = 0
    while count < 15:
        K = fields[count % 3]
        deg = rng.randint(1, 2)
        coeffs = [
            K.element([Fraction(rng.randint(-4, 4)) for _ in range(K.degree)])
            for _ in range(deg)
        ] + [K.one]
        Q = Poly(coeffs)
        _, factors = factor_over_K(K, Q)
        if len(factors) != 1 or factors[0][1] != 1:
            continue
        ext = flatten(K, Q)
        assert ext.degree == K.degree * Q.degree
        # the flattened root satisfies the embedded polynomial
        acc = ext.field.zero
        for c in reversed(Q.coeffs):
            acc = acc * ext.alpha + ext.embed(c)
        assert acc.is_zero()
        count += 1


def test_is_pth_power_examples():
    Qi = gaussian_field()
    assert is_pth_power(QQ, QQ.from_rational(4), 2)
    assert not is_pth_power(QQ, QQ.from_rational(-4), 2)
    assert not is_pth_power(Qi, Qi.one + Qi.gen, 2)
    assert is_pth_power(Qi, Qi.gen * 2, 2)  # (1+i)^2 = 2i


def test_is_pth_power_on_constructed_powers():
    rng = random.Random(12)
    fields = [QQ, sqrt2_field(), gaussian_field()]
    for trial in range(24):
        K = fields[trial % 3]
        p = (2, 3, 5)[trial % 3 if trial % 2 else (trial // 3) % 3]
        a = K.element([Fraction(rng.randint(-3, 3)) for _ in range(K.degree)])
        if a.is_zero():
            continue
        assert is_pth_power(K, a**p, p)


def test_is_pth_power_zero_element():
    with pytest.raises(ZeroElement):
        is_pth_power(QQ, QQ.zero, 2)


def test_in_minus4_fourth_powers_examples():
    assert in_minus4_fourth_powers(QQ, QQ.from_rational(-4))
    assert in_minus4_fourth_powers(QQ, QQ.from_rational(-64))
    assert not in_minus4_fourth_powers(QQ, QQ.from_rational(9))
    with pytest.raises(ZeroElement):
        in_minus4_fourth_powers(QQ, QQ.zero)


def test_minimal_polynomial():
    Q3 = sqrt3_field()
    alpha = Q3.from_rational(2) + Q3.gen
    assert minimal_polynomial(alpha) == qpoly(1, -4, 1)
    assert minimal_polynomial(Q3.from_rational(5)) == qpoly(-5, 1)
    Qi = gaussian_field()
    assert minimal_polynomial(Qi.gen) == qpoly(1, 0, 1)


def test_weil_height_examples():
    h = weil_height(QQ.from_rational(2))
    assert math.log(2) <= h <= math.log(2) + 0.01
    assert 0 <= weil_height(QQ.from_rational(1)) <= 0.01
    Q3 = sqrt3_field()
    alpha = Q3.from_rational(2) + Q3.gen  # 2 + sqrt3, the large root of x^2-4x+1
    exact = 0.5 * math.log(2 + math.sqrt(3))
    h = weil_height(alpha)
    assert exact <= h <= exact + 0.01


def test_weil_height_zero():
    with pytest.raises(ZeroElement):
        weil_height(QQ.zero)
