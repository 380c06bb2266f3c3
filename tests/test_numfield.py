import collections
import math
import random
import re
import signal
import sys
import time
from fractions import Fraction

import pytest

from helpers import (
    FractionElement,
    cyclotomic,
    element_norm_reference,
    evaluate,
    gaussian_field,
    modular_degree_pattern_ok,
    norm_poly_reference,
    pth_root_reference,
    qpoly,
    residue_sieve_reference,
    squarefree_decomposition_reference,
    random_irreducible,
    roots_in,
    sieve_fields,
    sqrt2_field,
    sqrt3_field,
    sqrtm3_field,
)
from qrank.errors import (
    BudgetExceeded,
    DivisionByZero,
    NotIrreducible,
    NotMonic,
    ZeroElement,
    ZeroPolynomial,
)
from qrank import _intfactor, numfield
from qrank.numfield import (
    QQ,
    NFElement,
    NumberField,
    factor_over_K,
    factor_over_Q,
    flatten,
    in_minus4_fourth_powers,
    is_irreducible,
    mahler_measure_upper,
    minimal_polynomial,
    norm_poly,
    pth_root_in_field,
    squarefree_decomposition,
)
from qrank.arith import primes_upto
from qrank.poly import Poly, divrem, gcd


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
    K = NumberField(qpoly(2, 0, 1, 1))  # t^3 + t^2 + 2 (irreducible: no rational root)
    for _ in range(40):
        a = K.element([Fraction(rng.randint(-5, 5)) for _ in range(3)])
        b = K.element([Fraction(rng.randint(-5, 5)) for _ in range(3)])
        c = K.element([Fraction(rng.randint(-5, 5)) for _ in range(3)])
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_element_constructors_take_only_exact_scalars():
    K = sqrt2_field()
    # a float would reach Fraction exactly: 0.1 as 3602879701896397/2**55
    for bad in (0.1, "1/2"):
        with pytest.raises(TypeError):
            QQ.poly([bad, 1])
        with pytest.raises(TypeError):
            K.element([bad, 0])
        with pytest.raises(TypeError):
            K.from_rational(bad)
        with pytest.raises(TypeError):
            NumberField(Poly([bad, 1]))


def _differential_fields():
    return sieve_fields() + [
        NumberField(qpoly(2, 0, 1, 1)),  # t^3 + t^2 + 2, as in test_field_axioms_random
        NumberField(qpoly(Fraction(-1, 2), 0, 1)),  # t^2 - 1/2
    ]


def _assert_normalized(a):
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1, (a.num, a.den)
    assert any(a.num) or (a.num, a.den) == ((0,) * a.field.degree, 1)


def test_element_arithmetic_matches_fraction_reference():
    rng = random.Random(22)

    def random_element(K):
        kind = rng.random()
        if kind < 0.1:
            return K.zero
        if kind < 0.3:
            return K.from_rational(_random_rational(rng))
        return K.element([_random_rational(rng) for _ in range(K.degree)])

    def check(x, ref):
        _assert_normalized(x)
        assert x.coords == ref.coords
        assert x.sort_key() == ref.sort_key()
        assert hash(x) == hash(ref)
        assert x.is_rational() == ref.is_rational()
        if x.is_rational():
            assert x.as_rational() == ref.as_rational()
            assert x == ref.as_rational() and hash(x) == hash(ref.as_rational())

    fields = _differential_fields()
    assert any(c.denominator > 1 for c in fields[3].min_poly.coeffs)
    for K in fields:
        for _ in range(12):
            a, b = random_element(K), random_element(K)
            A, B = FractionElement.of(a), FractionElement.of(b)
            r = _random_rational(rng)
            check(a, A)
            for x, ref in ((a + b, A + B), (a - b, A - B), (a * b, A * B),
                           (-a, -A), (a + r, A + r), (r - a, -(A - r)),
                           (a * r, A * r), (r * a, A * r), (a * 3, A * 3)):
                check(x, ref)
            if b:
                check(a / b, A / B)
                check(b.inverse(), B.inverse())
            if r:
                check(a / r, A / r)
            for e in range(-3 if a else 0, 5):
                check(a**e, A**e)
            assert (a == b) == (A == B) and (a == a * 1)
            assert a.norm() == A.norm()


def test_element_sums_and_products_build_no_fraction(monkeypatch):
    fields = [sqrt2_field(), NumberField(qpoly(Fraction(-1, 3), Fraction(1, 2), 0, 1))]
    elements = [
        [K.gen, K.element([Fraction(-3, 7), 2] + [Fraction(1, 5)] * (K.degree - 2)),
         K.from_rational(Fraction(5, 6)), K.zero]
        for K in fields
    ]
    scalars = [3, Fraction(-2, 9)]
    f = [K.poly([Fraction(1, 2), K.gen * Fraction(2, 3), 1]) for K in fields]
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for row in elements:
        for a in row:
            for b in row + scalars:
                a + b, a - b, a * b, b + a, b * a, -a
    assert built == []
    for K, g in zip(fields, f):
        chi = norm_poly(K, g)
        assert len(built) == len(chi.coeffs) == 2 * K.degree + 1
        built.clear()


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


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5]))


def test_norm_poly_matches_interpolation_reference():
    rng = random.Random(21)

    def monic(K, deg):  # non-integral coefficients
        coeffs = [
            K.element([_random_rational(rng) for _ in range(K.degree)])
            for _ in range(deg)
        ]
        return K.poly(coeffs + [1])

    for d in [2, 3, 4, 5, 6] * 2:
        while True:  # a non-integral rational defining polynomial
            m = Poly([_random_rational(rng) for _ in range(d)] + [Fraction(1)])
            if any(c.denominator > 1 for c in m.coeffs) and is_irreducible(QQ, m):
                break
        K = NumberField(m)
        for deg in rng.sample(range(1, 9), 4):
            f = monic(K, deg)
            # as drawn, and shifted by s*theta as the Trager shift search does
            for h in (f, f.shift(K.gen * Fraction(-rng.randint(1, 3)))):
                assert norm_poly(K, h) == norm_poly_reference(K, h), f"{h!r} over {K!r}"
        # N(f) = f**d for f over Q, and N(g*h) = N(g)*N(h)
        f = Poly([_random_rational(rng) for _ in range(3)] + [Fraction(1)])
        assert norm_poly(K, K.poly(f.coeffs)) == math.prod([f] * d, start=qpoly(1))
        g, h = monic(K, 1), monic(K, 2)
        assert norm_poly(K, g * h) == norm_poly(K, g) * norm_poly(K, h)


def test_norm_poly_needs_monic():
    for K in (QQ, gaussian_field()):
        with pytest.raises(NotMonic):
            norm_poly(K, K.poly([1, 2]))


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


def _sympy_expr(sympy, x, t, p):
    """p as a sympy expression in x, its coefficients in t = K's generator."""
    return sum(
        sympy.Rational(a) * t**j * x**i
        for i, c in enumerate(p.coeffs)
        for j, a in enumerate(c.coords if isinstance(c, NFElement) else (c,))
    )


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
            expr = _sympy_expr(sympy, x, t, p)
            _, ref = sympy.factor_list(sympy.expand(expr), x, **extension)
            expected = sorted((sympy.degree(f, x), m) for f, m in ref)
            _, factors = factor_over_K(K, p)
            got = sorted((f.degree, m) for f, m in factors)
            assert got == expected, f"{p!r} over {K!r}"


def _counting_yun(monkeypatch):
    """Record the degree of every input of numfield's Yun."""
    calls = []
    original = numfield.squarefree_decomposition

    def counting(f):
        calls.append(f.degree)
        return original(f)

    monkeypatch.setattr(numfield, "squarefree_decomposition", counting)
    return calls


def test_factor_over_K_runs_yun_once(monkeypatch):
    # x^4 + 1 is squarefree and splits over Q(i): the Trager shift's prime
    # scan proves it, and Yun never runs; (x - i)^2 (x + 2) is not
    # squarefree, and Yun runs once, on the input
    Qi = gaussian_field()
    calls = _counting_yun(monkeypatch)
    _, factors = factor_over_K(Qi, Qi.poly([1, 0, 0, 0, 1]))
    assert [(f.degree, m) for f, m in factors] == [(2, 1), (2, 1)]
    assert calls == []
    w = Poly([-Qi.gen, Qi.one])
    _, factors = factor_over_K(Qi, w * w * Qi.poly([2, 1]))
    assert sorted((f.degree, m) for f, m in factors) == [(1, 1), (1, 2)]
    assert calls == [3]


def _certificate_fields():
    return [
        QQ,
        gaussian_field(),
        sqrt2_field(),
        sqrtm3_field(),
        NumberField(qpoly(Fraction(-1, 3), Fraction(1, 2), 0, 1)),
    ]


def _random_monic(rng, K, deg):
    """Monic of degree deg over K with coordinates a/b, b in 1..6, so the
    first primes often divide a denominator; rational over Q."""
    def coeff():
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(K.degree)]
        return K.element(coords) if K.degree > 1 else coords[0]

    return Poly([coeff() for _ in range(deg)] + [K.one if K.degree > 1 else Fraction(1)])


def test_squarefree_certificate_is_sound_and_yun_matches_reference():
    # over every field, Yun equals Yun by Euclid alone; over Q, g*h**2 is
    # never certified and a certified g*h is squarefree by Euclid
    rng = random.Random(41)
    certified = 0
    for K in _certificate_fields():
        for _ in range(10):
            g = _random_monic(rng, K, rng.randint(1, 3))
            h = _random_monic(rng, K, rng.randint(1, 2))
            for f in (g * h * h, g * h):
                assert squarefree_decomposition(f) == squarefree_decomposition_reference(f)
            if K is QQ:
                assert not numfield._certified_squarefree(g * h * h)
                if numfield._certified_squarefree(g * h):
                    assert gcd(g * h, (g * h).derivative()).degree == 0, g * h
                    certified += 1
    assert certified >= 5


def test_squarefree_certificate_skips_denominators_and_vanishing_leads():
    x = qpoly(0, 1)
    # 2, 3 and 5 divide denominators, so l = 7 must decide
    f = (x - qpoly(Fraction(1, 2))) * (x - qpoly(Fraction(1, 3))) * (x - qpoly(Fraction(1, 5)))
    assert numfield._certified_squarefree(f)
    assert not numfield._certified_squarefree(f * (x - qpoly(Fraction(1, 2))))
    # (2x + 1)**2 (x**2 + x + 1) reduces to x**2 + x + 1 mod 2, squarefree
    # there, but its leading coefficient 4 vanishes mod 2
    assert not numfield._certified_squarefree(
        qpoly(1, 2) * qpoly(1, 2) * qpoly(1, 1, 1)
    )
    # t**3 + t/2 - 1/3: l = 2 and 3 divide denominators of m, so the
    # l-adic lift finds no root there
    K = _certificate_fields()[-1]
    assert [roots for _, roots in K._certificate_primes()][:2] == [[], []]


def test_factoring_proves_squarefree_once_and_runs_yun_only_when_it_fails(monkeypatch):
    # a squarefree product over Q: one prime scan, Zassenhaus's own, and no
    # Yun; g*h**2 over Q and over Q(sqrt2): one Yun, on the input, and the
    # factors with multiplicity are sympy's
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    yun = _counting_yun(monkeypatch)
    scans = _callers(monkeypatch, _intfactor, "zz_squarefree_primes")
    g = qpoly(1, 0, 0, 0, 1) * qpoly(3, 1)  # (x^4 + 1)(x + 3)
    h = qpoly(-2, 0, 1)
    _, factors = factor_over_Q(g * h)
    assert factors == [(qpoly(3, 1), 1), (h, 1), (qpoly(1, 0, 0, 0, 1), 1)]
    assert scans == ["zz_factor_squarefree"] and yun == []
    for K, t in ((QQ, sympy.S.One), (sqrt2_field(), sympy.sqrt(2))):
        p = g * h * h if K.degree == 1 else K.poly((g * h * h).coeffs)
        del yun[:]
        _, factors = factor_over_K(K, p)
        assert yun == [p.degree]
        extension = {"extension": t} if K.degree > 1 else {}
        _, ref = sympy.factor_list(sympy.expand(_sympy_expr(sympy, x, t, p)), x, **extension)
        assert len(factors) == len(ref), K
        unmatched = [(sympy.Poly(f, x, **extension).monic().as_expr(), m) for f, m in ref]
        for w, m in factors:
            ours = _sympy_expr(sympy, x, t, w)
            [match] = [r for r in unmatched if r[1] == m and sympy.expand(r[0] - ours) == 0]
            unmatched.remove(match)


def _callers(monkeypatch, module, name):
    """Record the calling function's name on every call of module.name."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_factor_over_K_takes_no_yun_gcd_on_squarefree_input(monkeypatch):
    Qi = gaussian_field()
    i = Qi.gen
    calls = _callers(monkeypatch, numfield, "gcd")
    cubic = Poly([Qi.from_rational(2), -i, Qi.zero, Qi.one])  # x^3 - i x + 2
    assert [m for _, m in _reconstruct(Qi, cubic)] == [1]
    assert "squarefree_decomposition" not in calls
    # the counter sees Yun's gcds when the input is not squarefree
    _reconstruct(Qi, Poly([-i, Qi.one]) * Poly([-i, Qi.one]) * Qi.poly([1, 1]))
    assert "squarefree_decomposition" in calls


def _factor_verdict(K, p):
    _, factors = factor_over_K(K, p)
    return len(factors) == 1 and factors[0][1] == 1


def _irreducibility_cases(rng, K):
    """Random monic P of degree 1-4 (1-2 past a quadratic K) and -2/3
    times it, products Q*R and Q**2, x*Q, a linear P and a constant P."""
    top = 4 if K.degree <= 2 else 2
    x = K.poly([0, 1]) if K.degree > 1 else qpoly(0, 1)
    const = K.poly([5]) if K.degree > 1 else qpoly(5)
    cases = [_random_monic(rng, K, 1), const]
    for _ in range(4):
        q = _random_monic(rng, K, rng.randint(1, top))
        r = _random_monic(rng, K, rng.randint(1, top))
        cases += [q, q.scale(Fraction(-2, 3)), q * r, q * q, x * q]
    return cases


def _rational_cases(rng):
    """Rational P: x**2 + 1, x**2 - 2, x**4 + 1, x**3 - 2, the repeated
    (x**2 + 1)**2, (x**2 - 2)**2 and (x - 1)**2 (x + 2), and random monic
    quadratics and cubics with small integer coefficients."""
    cases = [qpoly(1, 0, 1), qpoly(-2, 0, 1), qpoly(1, 0, 0, 0, 1), qpoly(-2, 0, 0, 1)]
    cases += [qpoly(1, 0, 2, 0, 1), qpoly(4, 0, -4, 0, 1), qpoly(2, -3, 0, 1)]
    for _ in range(6):
        cases.append(qpoly(*[rng.randint(-3, 3) for _ in range(rng.randint(2, 3))], 1))
    return cases


def test_is_irreducible_matches_factor_over_K(monkeypatch):
    # the Trager norm's verdict equals the full factorization's on
    # random, reducible, non-squarefree, linear and constant P; rational P
    # over a quadratic K, repeated ones among them, are not factored
    rng = random.Random(28)
    factored = _callers(monkeypatch, numfield, "factor_over_K")
    for K in [QQ, *sieve_fields()]:
        verdicts = collections.Counter()
        for p in _irreducibility_cases(rng, K):
            del factored[:]
            got = is_irreducible(K, p)
            assert got == _factor_verdict(K, p), (K, p)
            verdicts[got, bool(factored)] += 1
        with pytest.raises(ZeroPolynomial):
            is_irreducible(K, Poly(()))
        # both verdicts, and irreducible P decided without factoring
        assert verdicts[True, False] > 0
        assert verdicts[False, False] + verdicts[False, True] > 0
    for K in (gaussian_field(), sqrt2_field()):
        verdicts = set()
        for p in _rational_cases(rng):
            del factored[:]
            got = is_irreducible(K, p)
            assert factored == []
            assert got == _factor_verdict(K, p), (K, p)
            verdicts.add(got)
        assert verdicts == {True, False}


def test_is_irreducible_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(29)
    for K, t in ((QQ, sympy.S.One), (gaussian_field(), sympy.I)):
        extension = {"extension": t} if K.degree > 1 else {}
        verdicts = set()
        for p in _irreducibility_cases(rng, K) + _rational_cases(rng):
            expr = _sympy_expr(sympy, x, t, p)
            _, ref = sympy.factor_list(sympy.expand(expr), x, **extension)
            expected = len(ref) == 1 and ref[0][1] == 1
            assert is_irreducible(K, p) == expected, (K, p)
            verdicts.add(expected)
        assert verdicts == {True, False}


def test_is_irreducible_factors_nothing_on_a_certified_norm(monkeypatch):
    # the one Zassenhaus run on a squarefree norm is its own squarefree
    # proof: no certificate, no exact gcd, no factor_over_K
    Qi = gaussian_field()
    i = Qi.gen
    factored = _callers(monkeypatch, numfield, "factor_over_K")
    certified = _callers(monkeypatch, numfield, "_certified_squarefree")
    gcds = _callers(monkeypatch, numfield, "gcd")
    zassenhaus = _callers(monkeypatch, _intfactor, "zz_factor_squarefree")
    cases = [
        # x**2 - i has the irreducible norm x**4 + 1
        (Qi, Poly([-i, Qi.zero, Qi.one]), True),
        # rational P over Q(i): the norm at the shift s = 1
        (Qi, qpoly(-2, 0, 1), True),
        (Qi, qpoly(-2, 0, 0, 1), True),
        # over Q the norm is P itself
        (QQ, qpoly(-2, 0, 0, 1), True),
        (QQ, qpoly(1, 0, 1), True),
        (QQ, qpoly(-2, 0, -1, 0, 1), False),  # (x**2 - 2)(x**2 + 1)
    ]
    for K, p, expected in cases:
        del zassenhaus[:]
        assert is_irreducible(K, p) == expected, (K, p)
        assert zassenhaus == ["_trager_shift"], (K, p)
        assert factored == certified == gcds == [], (K, p)
    # x**2 + 1 over Q(i) has the norm x**2 (x**2 + 4) at s = 1: the
    # scan gives up, the exact gcds reject s = 1, and s = 2 proves itself
    del zassenhaus[:]
    assert not is_irreducible(Qi, qpoly(1, 0, 1))
    assert zassenhaus == ["_trager_shift"] * 2 and gcds == ["_trager_shift"] * 2
    del zassenhaus[:], gcds[:]
    assert is_irreducible(Qi, Poly([-i, Qi.one]))
    assert is_irreducible(QQ, qpoly(-2, 1))
    assert factored == certified == gcds == zassenhaus == []


def test_trager_shift_stops_at_a_repeated_factor(monkeypatch):
    # a g that is not squarefree has no squarefree shifted norm: after the
    # first shift fails, one gcd(g, g') proves it, with no second norm
    norms = _callers(monkeypatch, numfield, "norm_poly")
    for K in (QQ, gaussian_field(), sqrt2_field()):
        cases = [qpoly(1, 0, 2, 0, 1), qpoly(2, -3, 0, 1)]  # (x^2+1)^2, (x-1)^2 (x+2)
        if K.degree > 1:
            cases = [K.poly(g.coeffs) for g in cases]
        if K.min_poly == qpoly(1, 0, 1):
            w = Poly([-K.gen, K.one])
            cases.append(w * w * K.poly([2, 1]))  # (x - i)^2 (x + 2)
        for g in cases:
            del norms[:]
            with pytest.raises(NotIrreducible):
                numfield._trager_shift(K, g)
            assert len(norms) == (K.degree > 1), (K, g)
            assert not is_irreducible(K, g), (K, g)


def test_is_irreducible_takes_the_exact_gcd_when_the_scan_proves_nothing(monkeypatch):
    # every prime below 10**4 divides a*b, hence disc(b x^2 - a) = 4ab:
    # the scan within the certificate's bounds gives up, one exact gcd
    # proves the norm squarefree, and the unbounded scan reaches 10007
    from qrank.groups import CompanionPresentation, validate

    primes = primes_upto(10**4)
    a, b = math.prod(primes[0::2]), math.prod(primes[1::2])
    P = qpoly(Fraction(-a, b), 0, 1)
    gcds = _callers(monkeypatch, numfield, "gcd")
    zassenhaus = _callers(monkeypatch, _intfactor, "zz_factor_squarefree")
    usable = []
    scan = _intfactor.zz_squarefree_primes

    def recording(f, within=None):
        for p, F in scan(f, within):
            usable.append(p)
            yield p, F

    monkeypatch.setattr(_intfactor, "zz_squarefree_primes", recording)
    checks = [
        lambda: is_irreducible(QQ, P),
        lambda: validate(CompanionPresentation(QQ, P)).irreducible_over_R,
    ]
    for check in checks:
        del gcds[:], zassenhaus[:], usable[:]
        assert check()
        assert gcds == ["_trager_shift"]
        assert zassenhaus == ["_trager_shift"] * 2
        assert usable[0] == 10007


def test_is_irreducible_rejects_a_repeated_factor_after_one_gcd(monkeypatch):
    # the scan on the first norm gives up, and gcd(P, P') ends the search
    Qi = gaussian_field()
    w = Poly([-Qi.gen, Qi.one])
    gcds = []
    original = numfield.gcd

    def recording(f, g):
        gcds.append((f, g))
        return original(f, g)

    monkeypatch.setattr(numfield, "gcd", recording)
    zassenhaus = _callers(monkeypatch, _intfactor, "zz_factor_squarefree")
    square = qpoly(1, 0, 1) * qpoly(1, 0, 1)
    cases = [(QQ, square * qpoly(2, 1)), (Qi, w * w * Qi.poly([2, 1]))]
    for K, P in cases:
        del gcds[:], zassenhaus[:]
        assert not is_irreducible(K, P)
        assert zassenhaus == ["_trager_shift"]
        # over Q the norm is P, so its gcd is gcd(P, P') itself
        assert len(gcds) == K.degree and gcds[-1] == (P, P.derivative())


def test_is_irreducible_matches_factor_over_K_on_both_routes(monkeypatch):
    # random P with their squares and products, and P whose norms stay
    # squarefree at no prime up to 59: x**2 - m, x**2 - m**2 and
    # (x**2 - m)(x - 1) for m the product of the primes up to 59
    rng = random.Random(30)
    m = math.prod(primes_upto(59))
    gcds = _callers(monkeypatch, numfield, "gcd")
    for K in (QQ, gaussian_field(), sqrt2_field(), sqrtm3_field()):
        cases = []
        for _ in range(5):
            q = _random_monic(rng, K, rng.randint(1, 3))
            r = _random_monic(rng, K, rng.randint(1, 2))
            cases += [q, q * q, q * r, q * q * r]
        cases += [qpoly(-m, 0, 1), qpoly(-m * m, 0, 1), qpoly(-m, 0, 1) * qpoly(-1, 1)]
        routes = collections.Counter()
        for p in cases:
            del gcds[:]
            got = is_irreducible(K, p)
            assert got == _factor_verdict(K, p), (K, p)
            routes[got, "_trager_shift" in gcds] += 1
        # both verdicts, and irreducible P proved by the scan and by the gcd
        assert routes[True, False] and routes[True, True], (K, routes)
        assert routes[False, False] + routes[False, True], (K, routes)


def test_divrem_by_monic_needs_no_inverse(monkeypatch):
    Q2 = sqrt2_field()
    s = Q2.gen
    p = Poly([s * Fraction(1, 3), Q2.one, s - Fraction(2, 5), Q2.zero, s, Q2.one * 7])
    q = Poly([Q2.one * Fraction(-1, 2), s * Fraction(3, 4), Q2.one])
    calls = _callers(monkeypatch, NFElement, "inverse")
    quot, rem = divrem(p, q)
    assert calls == []
    assert q * quot + rem == p and rem.degree < q.degree
    quot2, rem2 = divrem(p, q.scale(2))
    assert calls, "division by 2q inverts its leading coefficient"
    assert rem2 == rem and quot == quot2.scale(2)


class _Expired(BaseException):
    """Raised by the alarm."""


def _expire(signum, frame):
    raise _Expired


def test_trager_shift_is_bounded_on_non_squarefree_input():
    # for squarefree g at most C(deg g * [K:Q], 2) shifts are bad; (x - i)**2
    # has no good shift, so the loop must stop and raise
    Qi = gaussian_field()
    w = Poly([-Qi.gen, Qi.one])
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        start = time.perf_counter()
        with pytest.raises(NotIrreducible):
            flatten(Qi, w * w, trusted=True)
        assert time.perf_counter() - start < 1.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def test_zassenhaus_prime_scan_goes_past_300(monkeypatch):
    # every odd prime below 300 divides M, so modulo each of them both
    # inputs are x**2 or (x - 1)**2, not squarefree: the first usable
    # prime is 307, and the split there reuses the scan's kernel
    M = math.prod(primes_upto(300)[1:])
    original = _intfactor._berlekamp_kernel
    primes = []

    def recording(f, p):
        primes.append(p)
        return original(f, p)

    monkeypatch.setattr(_intfactor, "_berlekamp_kernel", recording)
    assert _intfactor.zz_factor_squarefree([-M, 0, 1]) == [[-M, 0, 1]]
    assert primes == [307]
    primes.clear()
    factors = _intfactor.zz_factor_squarefree([1 + M, -2 - M, 1])
    assert sorted(factors) == [[-1 - M, 1], [-1, 1]]
    assert primes == [307]


def test_zassenhaus_lift_precision_passes_twice_the_bound(monkeypatch):
    # f = (x - 1)(x - (M - 1)) has B = 4M = (3**40 + 15) / 2 and reduces
    # well mod 3; log(2B + 1, 3) rounds to 40 in floating point, and
    # 3**40 = 2B - 15 does not pass 2B
    M = (3**40 + 15) // 8
    B = (math.isqrt(3) + 1) * 2**1 * M
    assert 2 * B == 3**40 + 15
    original = _intfactor.hensel_lift
    precisions = []

    def recording(p, f, f_list, l):
        precisions.append((p, l))
        return original(p, f, f_list, l)

    monkeypatch.setattr(_intfactor, "hensel_lift", recording)
    factors = _intfactor.zz_factor_squarefree([M - 1, -M, 1])
    assert sorted(factors) == [[1 - M, 1], [-1, 1]]
    p, l = precisions[0]
    assert p == 3
    assert p**l > 2 * B
    assert p ** (l - 1) <= 2 * B


def _sympy_integer_factors(f):
    sympy = pytest.importorskip("sympy")
    _, factors = sympy.Poly(f[::-1], sympy.Symbol("x"), domain="ZZ").factor_list()
    out = []
    for h, e in factors:
        assert e == 1
        h = [int(c) for c in reversed(h.all_coeffs())]
        out.append(h if h[-1] > 0 else [-c for c in h])
    return sorted(out)


def test_zz_factor_squarefree_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    zz = _intfactor
    rng = random.Random(24)

    def product(*fs):
        out = [1]
        for h in fs:
            out = zz.zz_mul(out, h)
        return out

    def check(f):
        f = zz.zz_primitive(f)
        if f[-1] < 0:
            f = [-c for c in f]
        got = zz.zz_factor_squarefree(f)
        for h in got:
            assert h[-1] > 0 and zz.zz_content(h) == 1, (f, h)
        assert sorted(got) == _sympy_integer_factors(f), f
        return got

    def squarefree(f):
        return sympy.Poly(f[::-1], sympy.Symbol("x"), domain="ZZ").is_sqf

    x4 = [1, 0, 0, 0, 1]
    shifted = [2, 4, 6, 4, 1]  # (x + 1)**4 + 1
    sd2 = [1, 0, -10, 0, 1]  # x**4 - 10x**2 + 1
    sd3 = [576, 0, -960, 0, 352, 0, -40, 0, 1]  # sqrt 2 + sqrt 3 + sqrt 5
    # an irreducible factor of degree > n/2 next to a quartic that splits
    # modulo every prime, with lc(f) = 3 in about half of the cases.  Each
    # candidate is built on the side of degree <= deg f / 2 and divides f
    # from there, so a factor found first that is larger than half of f
    # came from building the complement of its subset
    original = zz.zz_divmod
    divisors = []

    def recording(f, h):
        divisors.append((list(f), zz.zz_degree(h)))
        return original(f, h)

    monkeypatch.setattr(zz, "zz_divmod", recording)
    complement_side = 0
    for _ in range(20):
        big = [rng.randint(-9, 9) for _ in range(rng.randint(5, 8))] + [rng.choice((1, 3))]
        f = product(big, rng.choice((x4, shifted, sd2)))
        if big[0] == 0 or zz.zz_content(big) != 1 or not squarefree(f):
            continue
        divisors.clear()
        got = check(f)
        assert all(2 * d <= zz.zz_degree(f) for g, d in divisors if g == f)
        if len(got) > 1 and 2 * zz.zz_degree(got[0]) > zz.zz_degree(f):
            complement_side += 1
    assert complement_side >= 5, complement_side
    monkeypatch.undo()
    # random products of two to four factors with lc(f) > 1
    for _ in range(30):
        parts = [
            [rng.randint(-20, 20) for _ in range(rng.randint(1, 4))] + [rng.randint(2, 6)]
            for _ in range(rng.randint(2, 4))
        ]
        f = product(*parts)
        if squarefree(f):
            check(f)
    # x**n - 1, and cyclotomics at 2x times their reciprocals: the
    # reciprocal pairs pass the constant-term test together
    for n in (12, 30, 42, 60):
        check([-1] + [0] * (n - 1) + [1])
    phi = {d: [int(c) for c in cyclotomic(d).coeffs] for d in (3, 5, 7, 8, 9, 12)}
    for _ in range(6):
        ds = rng.sample(sorted(phi), 2)
        parts = []
        for d in ds:
            at_2x = [c * 2**i for i, c in enumerate(phi[d])]
            parts += [at_2x, at_2x[::-1]]
        check(product(*parts))
    # irreducible factors that split modulo every prime
    for f in (x4, sd2, product(x4, shifted), product(x4, sd2), product(shifted, sd3)):
        check(f)
    assert check(sd3) == [sd3]
    # 4x**4 + 1 = (2x**2 + 2x + 1)(2x**2 - 2x + 1)
    assert sorted(check([1, 0, 0, 0, 4])) == [[1, -2, 2], [1, 2, 2]]


def test_x_n_minus_1_factors_into_cyclotomics():
    # a cyclotomic factor and its reciprocal pass the constant-term test
    # together, so recombination meets many candidates it must reject
    for n in (24, 36, 48, 60, 72, 120):
        content, factors = factor_over_Q(qpoly(*([-1] + [0] * (n - 1) + [1])))
        assert content == 1
        assert all(e == 1 for _, e in factors)
        got = sorted(tuple(f.coeffs) for f, _ in factors)
        want = sorted(tuple(cyclotomic(d).coeffs) for d in range(1, n + 1) if n % d == 0)
        assert got == want, n


def _gf_product(fs, p):
    out = [1]
    for f in fs:
        out = _intfactor.gf_mul(out, f, p)
    return out


def test_gf_factor_squarefree_returns_the_berlekamp_count():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf

    def check(f, p):
        factors = _intfactor.gf_factor_squarefree(f, p)
        r = _intfactor.gf_factor_count(f, p)
        assert len(factors) == r
        assert len({tuple(g) for g in factors}) == r
        for g in factors:
            assert g[-1] == 1
            assert _intfactor.gf_factor_count(g, p) == 1
        assert _gf_product(factors, p) == f
        _, reference = gf_factor_sqf(ZZ.map(f[::-1]), p, ZZ)
        assert sorted(factors) == sorted([int(c) for c in g[::-1]] for g in reference)
        return r

    rng = random.Random(2024)
    for p in (3, 5, 7, 13):
        tested = 0
        counts = set()
        while tested < 40:
            k = rng.randint(1, 12)
            degrees = [rng.randint(1, 6) for _ in range(k)]
            while sum(degrees) > 40:
                degrees.pop()
            parts = [[rng.randrange(p) for _ in range(d)] + [1] for d in degrees]
            f = _gf_product(parts, p)
            if not _intfactor.gf_is_squarefree(f, p):
                continue
            tested += 1
            counts.add(check(f, p))
        assert max(counts) >= 5, (p, counts)
        # the P(x**m) shape of the substitute workloads: sparse products
        tested = 0
        while tested < 10:
            parts = []
            for _ in range(rng.randint(1, 2)):
                m = rng.randint(2, 12)
                P = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randint(0, 2))] + [1]
                part = [0] * (m * (len(P) - 1) + 1)
                part[::m] = P
                parts.append(part)
            f = _gf_product(parts, p)
            if not _intfactor.gf_is_squarefree(f, p):
                continue
            tested += 1
            check(f, p)
        # dense inputs up to degree 64
        for d in (8, 16, 32, 48, 64):
            while True:
                f = [rng.randrange(p) for _ in range(d)] + [1]
                if _intfactor.gf_is_squarefree(f, p):
                    break
            check(f, p)


def test_hensel_lift_overshooting_last_step():
    # d = ceil(log2 l) quadratic steps reach p**(2**d) > p**l; the last
    # one updates no Bezout pair, and the lift must still be exact mod p**l
    rng = random.Random(15)
    zz = _intfactor
    for r in range(2, 9):
        for l in (5, 9, 17):
            p = rng.choice((5, 7, 11))
            while True:
                mods = [
                    [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
                    for _ in range(r)
                ]
                F = _gf_product([zz.gf_from_zz(m, p) for m in mods], p)
                if zz.gf_is_squarefree(F, p):
                    break
            mods = [zz.zz_trunc(m, p) for m in mods]
            lc = rng.choice([c for c in range(1, 30) if c % p])
            f = [lc]
            for m in mods:
                f = zz.zz_mul(f, m)
            # perturb f by multiples of p so that it does not split over Z
            f = zz.zz_add(f, [p * rng.randint(-9, 9) for _ in range(len(f) - 1)])
            pl = p**l
            lifted = zz.hensel_lift(p, f, mods, l)
            assert len(lifted) == r
            product = [1]
            for g in lifted:
                product = zz.zz_mul(product, g)
            inv = pow(lc, -1, pl)
            assert zz.zz_trunc(product, pl) == zz.zz_trunc([c * inv for c in f], pl)
            for g, m in zip(lifted, mods):
                assert g[-1] == 1 and len(g) == len(m)
                assert zz.zz_trunc(g, p) == zz.zz_trunc(m, p)


def test_zz_divmod_monic_divisor():
    # x**4 + 3x + 5 = (x**2 - 2)(x**2 + 2) + (3x + 9)
    assert _intfactor.zz_divmod([5, 3, 0, 0, 1], [-2, 0, 1]) == ([2, 0, 1], [9, 3])
    # Phi_6 = x**2 - x + 1 divides x**6 - 1
    assert _intfactor.zz_divmod([-1, 0, 0, 0, 0, 0, 1], [1, -1, 1]) == (
        [-1, -1, 0, 1, 1],
        [],
    )


def test_zz_divmod_exact_non_monic_divisor():
    # (3x + 2)(5x**2 - 1) divided by 3x + 2
    f = _intfactor.zz_mul([2, 3], [-1, 0, 5])
    assert f == [-2, -3, 10, 15]
    assert _intfactor.zz_divmod(f, [2, 3]) == ([-1, 0, 5], [])
    assert _intfactor.zz_divmod(f, [-1, 0, 5]) == ([2, 3], [])


def test_zz_divmod_inexact_non_monic_divisor_leaves_a_remainder():
    # 3x + 2 does not divide x**2 - 4x - 4, and 3 does not divide the top
    # coefficient 1, so the division stops with a nonzero remainder
    q, r = _intfactor.zz_divmod([-4, -4, 1], [2, 3])
    assert r
    assert (q, r) == ([], [-4, -4, 1])
    # (3x + 2)(x - 1) + 1: exact steps, then a nonzero remainder
    f = _intfactor.zz_add(_intfactor.zz_mul([2, 3], [-1, 1]), [1])
    assert _intfactor.zz_divmod(f, [2, 3]) == ([-1, 1], [1])


def test_zz_divmod_divisor_of_higher_degree():
    assert _intfactor.zz_divmod([7, 1], [1, 0, 1]) == ([], [7, 1])
    assert _intfactor.zz_divmod([], [1, 1]) == ([], [])


def _assert_flattened(K, Q, ext):
    """Some root theta' of K's defining polynomial in L = ext.field gives
    L.gen = alpha + s*theta' and Q'(alpha) = 0, where Q' is Q with theta'
    put for theta in its coefficients."""
    L, alpha, s = ext.field, ext.alpha, ext.shift
    for root in roots_in(L, K.min_poly):
        image = Poly([evaluate(c.coordinate_poly(), root) for c in Q.coeffs])
        if L.gen == alpha + root * s and evaluate(image, alpha) == 0:
            return
    raise AssertionError(f"no root of {K.min_poly!r} in {L!r} fits {Q!r}")


def test_flatten_examples():
    ext = flatten(QQ, qpoly(-2, 0, 1))
    assert ext.field.degree == 2
    assert ext.field.min_poly == qpoly(-2, 0, 1)
    assert (ext.alpha * ext.alpha) == 2

    Qi = gaussian_field()
    Q = Poly([-Qi.gen, Qi.zero, Qi.one])  # x^2 - i
    ext = flatten(Qi, Q)
    assert ext.field.degree == 4
    assert ext.field.min_poly == qpoly(1, 0, 0, 0, 1)  # u^4 + 1
    _assert_flattened(Qi, Q, ext)

    ext = flatten(QQ, qpoly(-5, 1))  # x - 5: degree-1 extension is Q itself
    assert ext.field.degree == 1
    assert ext.alpha == 5


def test_flatten_rejects_reducible():
    with pytest.raises(NotIrreducible):
        flatten(QQ, qpoly(-9, 0, 1))
    Qi = gaussian_field()
    with pytest.raises(NotIrreducible):
        flatten(Qi, Qi.poly([1, 0, 1]))  # x^2 + 1 splits over Q(i)


def test_flatten_degree_law():
    rng = random.Random(11)
    Qi, Q2 = gaussian_field(), sqrt2_field()
    fields = [QQ, Qi, Q2]
    cases = [
        (Qi, Poly([Qi.from_rational(3), -Qi.gen, Qi.one])),  # x^2 - i x + 3
        (Qi, Qi.poly(qpoly(-3, 1, 1).coeffs)),  # rational: s >= 1
        (Q2, Q2.poly(qpoly(-3, 0, 1).coeffs)),
    ]
    while len(cases) < 18:
        K = fields[len(cases) % 3]
        deg = rng.randint(1, 2)
        coeffs = [
            K.element([Fraction(rng.randint(-4, 4)) for _ in range(K.degree)])
            for _ in range(deg)
        ] + [K.one]
        Q = Poly(coeffs)
        _, factors = factor_over_K(K, Q)
        if len(factors) == 1 and factors[0][1] == 1:
            cases.append((K, Q))
    shifts = set()
    for K, Q in cases:
        ext = flatten(K, Q)
        assert ext.field.degree == K.degree * Q.degree
        if Q.degree == 1:
            assert ext.field is K and ext.shift == 0
            assert evaluate(Q, ext.alpha) == 0
            continue
        _assert_flattened(K, Q, ext)
        if K.degree > 1:
            shifts.add(min(ext.shift, 1))
    assert shifts == {0, 1}


def test_flatten_at_shift_zero_takes_no_gcd(monkeypatch):
    Qi = gaussian_field()
    Q = Poly([Qi.from_rational(3), -Qi.gen, Qi.one])  # x^2 - i x + 3
    calls = []
    original = numfield.gcd

    def counting(f, g):
        calls.append((f, g))
        return original(f, g)

    monkeypatch.setattr(numfield, "gcd", counting)
    ext = flatten(Qi, Q, trusted=True)
    assert ext.shift == 0 and ext.alpha == ext.field.gen
    assert calls == []


def test_trager_shift_skips_zero_on_rational_input(monkeypatch):
    # over Q(i) the norm of x^2 + x - 3 at s = 0 is (x^2 + x - 3)**2
    Qi = gaussian_field()
    calls = []
    original = numfield.norm_poly

    def counting(K, f):
        calls.append(f)
        return original(K, f)

    monkeypatch.setattr(numfield, "norm_poly", counting)
    s, gs, norm, _ = numfield._trager_shift(Qi, Qi.poly(qpoly(-3, 1, 1).coeffs))
    assert s == 1 and len(calls) == 1
    assert gcd(norm, norm.derivative()).degree == 0


def test_is_pth_power_examples():
    Qi = gaussian_field()
    assert pth_root_in_field(QQ, QQ.from_rational(4), 2) is not None
    assert pth_root_in_field(QQ, QQ.from_rational(-4), 2) is None
    assert pth_root_in_field(Qi, Qi.one + Qi.gen, 2) is None
    assert pth_root_in_field(Qi, Qi.gen * 2, 2) is not None  # (1+i)^2 = 2i


def test_is_pth_power_on_constructed_powers():
    rng = random.Random(12)
    fields = [QQ, sqrt2_field(), gaussian_field()]
    for trial in range(24):
        K = fields[trial % 3]
        p = (2, 3, 5)[trial % 3 if trial % 2 else (trial // 3) % 3]
        a = K.element([Fraction(rng.randint(-3, 3)) for _ in range(K.degree)])
        if a.is_zero():
            continue
        assert pth_root_in_field(K, a**p, p) is not None


def test_is_pth_power_zero_element():
    with pytest.raises(ZeroElement):
        pth_root_in_field(QQ, QQ.zero, 2)


def test_in_minus4_fourth_powers_examples():
    assert in_minus4_fourth_powers(QQ, QQ.from_rational(-4))
    assert in_minus4_fourth_powers(QQ, QQ.from_rational(-64))
    assert not in_minus4_fourth_powers(QQ, QQ.from_rational(9))
    with pytest.raises(ZeroElement):
        in_minus4_fourth_powers(QQ, QQ.zero)


def _nonintegral(rng, L):
    while True:
        e = L.element(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(L.degree)]
        )
        if any(c.denominator > 1 for c in e.coords):
            return e


def _sieve_units(fields):
    """A unit of each of sieve_fields(), None for the cubic."""
    return [
        fields[0].gen,
        fields[1].gen + 1,
        (fields[2].gen - 1) * Fraction(1, 2),
        None,
        fields[4].gen,
    ]


def test_residue_sieve_never_rejects_true_powers():
    rng = random.Random(31)
    for L in sieve_fields():
        for p in (2, 3, 5, 7):
            beta = _nonintegral(rng, L)
            a = beta**p
            assert not numfield._residue_sieve_rejects(L, a, p), (L, beta, p)
            root = pth_root_in_field(L, a, p)
            assert root is not None and root**p == a
        gamma = _nonintegral(rng, L)
        a = gamma**4 * -4
        assert not numfield._residue_sieve_rejects(L, gamma**4, 4), (L, gamma)
        assert in_minus4_fourth_powers(L, a)
    # u**2 = 45: 3 = 1 (mod 2) divides the index of Z[u] in the maximal
    # order, and 0 is a double root of u**2 - 45 mod 3.  beta = -3/7 + 2u/3
    # is not 3-integral in Z[u] while beta**2 is, and beta**2 is a
    # non-residue at that root: only the simple-root condition skips l = 3
    L = NumberField(qpoly(-45, 0, 1))
    beta = L.element([Fraction(-3, 7), Fraction(2, 3)])
    assert not numfield._residue_sieve_rejects(L, beta**2, 2)
    assert pth_root_in_field(L, beta**2, 2) in (beta, -beta)


def test_residue_sieve_matches_root_by_root_reference():
    # the sieve against its definition, a(r)**((l-1)/n) at every simple
    # root r found by trying residues, with the same budgets, also over a
    # field whose m is not squarefree mod 3
    rng = random.Random(33)
    fields = sieve_fields()
    cubic = _cubic_with_double_root_mod_3()
    for L, u in zip([*fields, cubic], [*_sieve_units(fields), None]):
        elements = [_nonintegral(rng, L) for _ in range(3)]
        integral = [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(L.degree - 1)]
        elements.append(L.element(integral))
        if u is not None:
            elements += [u, -(u**3)]
        for n in (2, 3, 4, 5):
            for a in elements + [b**n for b in elements]:
                want = residue_sieve_reference(L, a, n)
                assert numfield._residue_sieve_rejects(L, a, n) == want, (L, a, n)
    # 2 - i vanishes at the root 2 of t**2 + 1 mod 5, the first usable l
    # for n = 2 and n = 4, and is -1 at the other root 3: its square and
    # fourth power are true powers that a test of c == 1 alone would reject
    Qi = fields[0]
    for b, n in (((2 - Qi.gen) ** 2, 2), ((2 - Qi.gen) ** 4, 4)):
        assert not residue_sieve_reference(Qi, b, n)
        assert not numfield._residue_sieve_rejects(Qi, b, n)


def _cubic_with_double_root_mod_3():
    """Q[t]/(t**3 - 2t**2 + t + 3), with t**3 - 2t**2 + t + 3 = t(t - 1)**2
    (mod 3): a simple root 0 and a double root 1."""
    return NumberField(qpoly(3, 1, -2, 1))


def test_simple_roots_both_routes_agree(monkeypatch):
    # trying every residue against gcd(m, x**l - x) / gcd(., m') split by
    # quadratic characters, for every l below 2**11
    for L in [*sieve_fields(), _cubic_with_double_root_mod_3()]:
        for ell in primes_upto(2**11):
            monkeypatch.setattr(numfield, "_ROOT_SCAN", 2**11 * L.degree)
            by_residues = numfield._simple_roots(L, ell)
            monkeypatch.setattr(numfield, "_ROOT_SCAN", 0)
            assert numfield._simple_roots(L, ell) == by_residues, (L, ell)


def test_residue_sieve_tries_no_residue_past_the_crossover(monkeypatch):
    # rank of the reciprocal unit x^4 + 3x^3 + 3x + 1 runs the sieve for
    # every p up to its bound 362, and l = 1 (mod 359) starts at 719:
    # trying every residue there made that rank about seven times slower.
    # Past l*[L:Q] = 2**10, _horner evaluates a only at the simple roots
    L = flatten(QQ, qpoly(1, 3, 0, 3, 1)).field
    evaluated = collections.Counter()
    original = numfield._horner

    def counting(f, r, ell):
        evaluated[ell] += 1
        return original(f, r, ell)

    monkeypatch.setattr(numfield, "_horner", counting)
    assert numfield._residue_sieve_rejects(L, L.gen, 359)
    monkeypatch.setattr(numfield, "_horner", original)
    assert evaluated and all(ell * L.degree > numfield._ROOT_SCAN for ell in evaluated)
    for ell, calls in evaluated.items():
        assert calls <= len(numfield._simple_roots(L, ell)), ell


def test_residue_sieve_counts_simple_roots_where_m_is_not_squarefree(monkeypatch):
    # m = t(t - 1)**2 (mod 3) is not squarefree, yet its simple root 0 is
    # a degree-one prime: t + 2 (norm 15, no square) is 2 there, no square
    # mod 3, so l = 3, the first l = 1 (mod 2), rejects it alone
    L = _cubic_with_double_root_mod_3()
    assert numfield._simple_roots(L, 3) == [0]
    a = L.gen + 2
    assert a.norm() == 15
    monkeypatch.setattr(numfield, "_SIEVE_PRIMES", 1)
    assert numfield._residue_sieve_rejects(L, a, 2)
    assert residue_sieve_reference(L, a, 2)
    assert pth_root_in_field(L, a, 2) is None


def test_power_tests_match_exact_reference():
    # sieve-then-exact against exact-only on units, non-units and true
    # powers: same verdicts, and every root returned is one
    rng = random.Random(32)
    fields = sieve_fields()
    for L, u in zip(fields, _sieve_units(fields)):
        elements = [_nonintegral(rng, L) for _ in range(2)]
        integral = [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(L.degree - 1)]
        elements.append(L.element(integral))
        if u is not None:
            elements += [u, -(u**3)]
        for p in (2, 3, 5):
            elements.append(_nonintegral(rng, L) ** p)
        elements.append(_nonintegral(rng, L) ** 4 * -4)
        for a in elements:
            for p in (2, 3, 5, 7):
                root = pth_root_in_field(L, a, p)
                assert (root is None) == (pth_root_reference(L, a, p) is None)
                assert root is None or root**p == a
            expected = pth_root_reference(L, a * Fraction(-1, 4), 4) is not None
            assert (in_minus4_fourth_powers(L, a) is not None) == expected


def test_pth_root_of_a_unit_needs_no_factoring(monkeypatch):
    # u, a root of x^4 + 3x^3 + 3x + 1, is a unit, so the norm prefilter
    # of the power test passes every odd p; the sieve settles every prime
    # up to that test's bound (362), and 9973, the largest prime below the
    # default QRANK_MAX_PRIME, without factoring x**p - u
    L = flatten(QQ, qpoly(1, 3, 0, 3, 1)).field
    calls = []
    original = numfield.factor_over_K

    def counting(K, f):
        calls.append(f.degree)
        return original(K, f)

    monkeypatch.setattr(numfield, "factor_over_K", counting)
    for p in [*primes_upto(362), 9973]:
        assert pth_root_in_field(L, L.gen, p) is None
        assert calls == [], p
    assert not in_minus4_fourth_powers(L, L.gen)
    assert calls == []


def test_lifted_roots_match_factoring_reference(monkeypatch):
    # the lift against exact-only factoring: non-integral roots, units,
    # p = 2, 3, 5, 7 and -4*gamma**4, over the sieve fields and over
    # Q(3**(1/3)), where m mod l has three distinct roots for no l below
    # 54, so that every call there falls back to factoring
    rng = random.Random(35)
    fields = sieve_fields()
    cube_root_3 = NumberField(qpoly(-3, 0, 0, 1))
    assert all(len(roots) < 3 for _, roots in cube_root_3._certificate_primes())
    routes = collections.Counter()
    original = numfield._lifted_roots

    def recording(L, b, n):
        roots = original(L, b, n)
        routes["fallback" if roots is None else "lifted" if roots else "absent"] += 1
        return roots

    monkeypatch.setattr(numfield, "_lifted_roots", recording)
    for L, u in zip([*fields, cube_root_3], [*_sieve_units(fields), None]):
        bases = [_nonintegral(rng, L)] + ([u] if u is not None else [])
        for p in (2, 3, 5, 7):
            for a in [beta**p for beta in bases] + [bases[-1] ** (p + 1)]:
                root = pth_root_in_field(L, a, p)
                assert (root is None) == (pth_root_reference(L, a, p) is None), (L, a, p)
                assert root is None or root**p == a, (L, a, p)
        a = _nonintegral(rng, L) ** 4 * -4
        assert in_minus4_fourth_powers(L, a)
        assert not in_minus4_fourth_powers(L, a * 3)
    # 5i/3 passes the sieve for n = 2 but is no square: no candidate
    # verifies below the precision cap and factoring says there is none
    Qi = fields[0]
    b = Qi.gen * Fraction(5, 3)
    assert not numfield._residue_sieve_rejects(Qi, b, 2)
    assert original(Qi, b, 2) is None
    assert pth_root_in_field(Qi, b, 2) is None is pth_root_reference(Qi, b, 2)
    # -4 = -16/4 passes the sieve for n = 4 over Q(sqrt -3), but it is no
    # fourth power there, as a residue mod 7 proves without factoring
    Qm3 = fields[2]
    assert not numfield._residue_sieve_rejects(Qm3, Qm3.from_rational(-4), 4)
    assert routes["lifted"] and routes["fallback"]
    routes.clear()
    assert not in_minus4_fourth_powers(Qm3, Qm3.from_rational(16))
    assert routes == {"absent": 1}


def test_lifted_roots_need_no_factoring(monkeypatch):
    Q2, Qm3 = sqrt2_field(), sqrtm3_field()
    calls = _callers(monkeypatch, numfield, "factor_over_K")
    beta = 1 + Q2.gen * Fraction(2, 3)
    assert pth_root_in_field(Q2, beta**3, 3) == beta
    gamma = Qm3.element([Fraction(-3, 5), Fraction(7, 2)])
    assert pth_root_in_field(Qm3, gamma**2, 2) in (gamma, -gamma)
    assert calls == []


def test_cube_roots_over_q_sqrt_m3_lift_without_factoring(monkeypatch):
    # 1 = l mod 3 at every l where t**2 + 3 has two roots, so beta**3 has
    # the three cube roots beta * omega**k in L and 3 candidates at each
    # root of t**2 + 3 mod l: 9 combinations, and the lift returns one root
    Qm3 = sqrtm3_field()
    beta = Qm3.element([Fraction(2, 3), Fraction(-1, 2)])
    omega = (Qm3.gen - 1) * Fraction(1, 2)
    roots = [beta, beta * omega, beta * omega**2]
    assert len(set(roots)) == 3 and all(r**3 == beta**3 for r in roots)
    calls = _callers(monkeypatch, numfield, "factor_over_K")
    lifted = numfield._lifted_roots(Qm3, beta**3, 3)
    assert lifted is not None and len(lifted) == 1 and lifted[0] in roots
    assert pth_root_in_field(Qm3, beta**3, 3) in roots
    assert calls == []


def test_fifth_roots_over_q_zeta5_fall_back_to_factoring(monkeypatch):
    # t**4 + t**3 + t**2 + t + 1 has four roots mod l only at l = 11, 31
    # and 41 below 54, all 1 (mod 5): 5**4 = 625 combinations of fifth
    # roots, past _LIFT_COMBINATIONS, so the lift settles nothing and
    # x**5 - beta**5 is factored
    Z5 = NumberField(qpoly(1, 1, 1, 1, 1))
    assert [ell for ell, roots in Z5._certificate_primes() if len(roots) == 4] == [11, 31, 41]
    assert 5**4 > numfield._LIFT_COMBINATIONS
    beta = Z5.element([Fraction(1, 2), 0, Fraction(-2, 3), 1])
    assert numfield._lifted_roots(Z5, beta**5, 5) is None
    calls = _callers(monkeypatch, numfield, "factor_over_K")
    root = pth_root_in_field(Z5, beta**5, 5)
    assert root is not None and root**5 == beta**5
    assert calls == ["_nth_root"]
    assert pth_root_in_field(Z5, beta**5 * 3, 5) is None


def test_minus4_fourth_powers_over_q_i_are_fourth_powers(monkeypatch):
    # -4 = (1 + i)**4, so -4*Q(i)**4 = Q(i)**4: with i = zeta_4 in the
    # field, x**4 - a has four roots, and halving the candidates by sign
    # at one root of t**2 + 1 mod l must still leave one of them for the
    # lift, with no factoring
    Qi = gaussian_field()
    assert (1 + Qi.gen) ** 4 == Qi.from_rational(-4)
    rng = random.Random(36)
    calls = _callers(monkeypatch, numfield, "factor_over_K")
    for _ in range(4):
        gamma = _nonintegral(rng, Qi)
        calls.clear()
        for a in (gamma**4, gamma**4 * -4):
            assert in_minus4_fourth_powers(Qi, a), a
        assert calls == []
        for a in (gamma**2, gamma * 3):
            expected = pth_root_reference(Qi, a, 4) is not None
            assert (in_minus4_fourth_powers(Qi, a) is not None) == expected, a


def test_pth_root_degree_cap_runs_before_either_route():
    # (1+2i)**257 is a 257th power, which the lift would prove at once
    Qi = gaussian_field()
    message = "degree 257 (1 * 257) is past the cap 256"
    with pytest.raises(BudgetExceeded, match=re.escape(message)):
        pth_root_in_field(Qi, (1 + 2 * Qi.gen) ** 257, 257)


def test_hash_agrees_with_equality():
    Qi = gaussian_field()
    for a, r in ((QQ.from_rational(3), 3), (Qi.from_rational(Fraction(-2, 5)), Fraction(-2, 5))):
        assert a == r and hash(a) == hash(r)
        assert len({a, r}) == 1
        f, g = Poly([a]), Poly([Fraction(r)])
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
    assert len({Qi.gen, Qi.element([0, 1]), Qi.gen * 2}) == 2


def test_minimal_polynomial_of_subfield_elements_takes_no_gcd(monkeypatch):
    # Q(sqrt2, i) flattened: rationals and elements of Q(sqrt 2) have
    # characteristic polynomial mp**4 and mp**2, whose exact roots give
    # mp with no Euclidean gcd
    K = flatten(sqrt2_field(), qpoly(1, 0, 1)).field
    _, factors = factor_over_K(K, K.poly([-2, 0, 1]))
    sqrt2 = -factors[0][0].coeffs[0]
    calls = _callers(monkeypatch, numfield, "gcd")
    for a in (K.from_rational(Fraction(3, 7)), K.from_rational(-2), sqrt2,
              sqrt2 * Fraction(2, 3) + 5, K.gen):
        chi = norm_poly(K, Poly([-a, K.one]))
        [(mp, _)] = squarefree_decomposition_reference(chi)
        assert minimal_polynomial(a) == mp
    assert calls == []


def test_minimal_polynomial_when_the_certificate_fails(monkeypatch):
    # with no squarefree certificate, every divisor k > 1 of deg chi is
    # tried and, for a generating element, none passes: chi is returned
    K = flatten(sqrt2_field(), qpoly(1, 0, 1)).field
    elements = [K.gen, K.gen * Fraction(-3, 2) + 1, K.from_rational(5), K.gen**2]
    expected = [
        squarefree_decomposition_reference(norm_poly(K, Poly([-a, K.one])))[0][0]
        for a in elements
    ]
    monkeypatch.setattr(numfield, "_certified_squarefree", lambda f: False)
    calls = _callers(monkeypatch, numfield, "gcd")
    assert [minimal_polynomial(a) for a in elements] == expected
    assert calls == []


def test_minimal_polynomial():
    Q3 = sqrt3_field()
    alpha = Q3.from_rational(2) + Q3.gen
    assert minimal_polynomial(alpha) == qpoly(1, -4, 1)
    assert minimal_polynomial(Q3.from_rational(5)) == qpoly(-5, 1)
    Qi = gaussian_field()
    assert minimal_polynomial(Qi.gen) == qpoly(1, 0, 1)


def _scaled(m: Poly, c: Fraction) -> Poly:
    """The monic defining polynomial m(c*t)/c**d of theta/c, for a root
    theta of m of degree d."""
    d = m.degree
    return Poly([a * c ** (i - d) for i, a in enumerate(m.coeffs)])


def test_minimal_polynomial_and_norm_from_characteristic_polynomial():
    rng = random.Random(34)
    # non-integral defining polynomials, each with the subfields that the
    # roots of the listed polynomials generate
    cases = (
        (_scaled(qpoly(16, 0, -4, 0, 1), Fraction(3)),  # Q(i, sqrt 3)
         (qpoly(1, 0, 1), qpoly(-3, 0, 1), qpoly(3, 0, 1))),
        (_scaled(qpoly(-2, 0, 0, 0, 1), Fraction(2)),  # Q(2**(1/4))
         (qpoly(-2, 0, 1),)),
        (_scaled(qpoly(31, 36, 27, -4, 9, 0, 1), Fraction(3, 2)),  # Q(2**(1/3), sqrt -3)
         (qpoly(3, 0, 1), qpoly(-2, 0, 0, 1))),
        (qpoly(Fraction(-1, 3), Fraction(1, 2), 0, 1), ()),
    )
    exponents = set()  # k = [K:Q(a)] for the irrational a drawn
    for m, subfield_polys in cases:
        assert any(c.denominator > 1 for c in m.coeffs)
        K = NumberField(m)
        gens = [(K.gen, K.degree)]
        for f in subfield_polys:
            _, factors = factor_over_K(K, K.poly(f.coeffs))
            roots = [-w.coeffs[0] for w, _ in factors if w.degree == 1]
            assert roots, f"{f!r} has no root in {K!r}"
            gens.append((roots[0], f.degree))
        elements = [K.zero, K.from_rational(_random_rational(rng) or 1)]
        for r, deg in gens:
            for _ in range(4):
                coeffs = [_random_rational(rng) for _ in range(deg)]
                elements.append(sum((c * r**j for j, c in enumerate(coeffs)), K.zero))
        for a in elements:
            mp = minimal_polynomial(a)
            assert mp.is_monic()
            assert evaluate(mp, a) == 0, f"{mp!r} at {a!r}"
            assert factor_over_Q(mp)[1] == [(mp, 1)], mp
            assert K.degree % mp.degree == 0
            k = K.degree // mp.degree
            assert a.norm() == element_norm_reference(a), a
            assert a.norm() == ((-1) ** mp.degree * mp.coeffs[0]) ** k, a
            if not a.is_rational():
                exponents.add(k)
    assert exponents == {1, 2, 3}


def _height_upper(a):
    """The certified bound on the Weil height of a that the power test
    uses: mahler_measure_upper of the integer minimal polynomial over its
    degree."""
    ints = numfield._to_primitive_int(minimal_polynomial(a))
    return mahler_measure_upper(ints) / (len(ints) - 1)


def test_weil_height_examples():
    h = _height_upper(QQ.from_rational(2))
    assert math.log(2) <= h <= math.log(2) + 0.01
    assert 0 <= _height_upper(QQ.from_rational(1)) <= 0.01
    Q3 = sqrt3_field()
    alpha = Q3.from_rational(2) + Q3.gen  # 2 + sqrt3, the large root of x^2-4x+1
    exact = 0.5 * math.log(2 + math.sqrt(3))
    h = _height_upper(alpha)
    assert exact <= h <= exact + 0.01


def test_weil_height_zero():
    # 0 has minimal polynomial x, of Mahler measure 1
    assert 0 <= _height_upper(QQ.zero) <= 0.01
