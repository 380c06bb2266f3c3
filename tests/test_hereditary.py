import collections
import functools
import math
import random
import signal
import sys
import time
from fractions import Fraction

import pytest

from helpers import (
    cyclotomic,
    element_norm_reference,
    gaussian_field,
    height_prime_bound_reference,
    pth_root_reference,
    qpoly,
    random_irreducible,
    residue_sieve_reference,
    sieve_fields,
    sqrt2_field,
    sqrtm3_field,
)
from qrank import hereditary, numfield, poly
from qrank.arith import factor_integer, primes_upto, rational_nth_root
from qrank.errors import (
    BudgetExceeded,
    NotIrreducible,
    RootOfUnity,
    ZeroConstantTerm,
    ZeroPolynomial,
)
from qrank.hereditary import (
    capelli_certificate,
    capelli_obstruction,
    has_root_of_unity_root,
    hereditary_factorization,
    oracle_factor_counts,
)
from qrank.numfield import (
    QQ,
    NFElement,
    Obstruction,
    factor_over_K,
    flatten,
    in_minus4_fourth_powers,
    minimal_polynomial,
    pth_root_in_field,
)
from qrank.poly import Poly, gcd, poly_key, substitute_power


def test_root_of_unity_examples():
    assert has_root_of_unity_root(QQ, qpoly(1, 1, 1))
    assert not has_root_of_unity_root(QQ, qpoly(-9, 1))
    assert not has_root_of_unity_root(QQ, qpoly(1, -4, 1))
    with pytest.raises(ZeroPolynomial):
        has_root_of_unity_root(QQ, Poly(()))


@functools.lru_cache(maxsize=None)
def _cyclotomic_over(K, n):
    return K.poly(cyclotomic(n).coeffs)


def _has_root_of_unity_reference(K, P):
    # gcd over K with every cyclotomic polynomial of admissible order
    D = P.degree * K.degree
    for n in range(1, 2 * D * D + 1):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        if phi <= D and gcd(P, _cyclotomic_over(K, n)).degree > 0:
            return True
    return False


def _cyclotomic_factors(K, orders):
    return [f for n in orders for f, _ in factor_over_K(K, cyclotomic(n))[1]]


def test_root_of_unity_matches_gcd_reference():
    rng = random.Random(5)
    fields = [QQ, gaussian_field(), sqrt2_field(), sqrtm3_field()]
    positives = 0
    for K in fields:
        # cyclotomic factors over K, split where K lies in Q(zeta_n)
        pieces = _cyclotomic_factors(K, (1, 2, 3, 4, 5, 6, 8, 12))
        for _ in range(24):
            factors, degree = [], rng.randint(1, 6 // K.degree)
            while sum(f.degree for f in factors) < degree:
                if rng.random() < 0.4:
                    factors.append(rng.choice(pieces))
                else:
                    coeffs = [K.from_rational(rng.randint(-3, 3)) + rng.randint(-1, 1) * K.gen
                              for _ in range(rng.randint(1, 2))]
                    factors.append(Poly(coeffs + [K.one]))
            P = Poly([K.from_rational(rng.choice([1, 2, -3]))])
            for f in factors:
                P = P * f * (f if rng.random() < 0.2 else Poly([K.one]))
            expected = _has_root_of_unity_reference(K, P)
            assert has_root_of_unity_root(K, P) == expected, f"{P!r} over {K!r}"
            positives += expected
    assert 20 <= positives <= 76


def test_root_of_unity_at_the_order_bound():
    # Phi_n or one of its factors over K with phi(n) = deg(P) * [K:Q]: the
    # largest admissible order for that degree
    Qi, Qs2, Qw = gaussian_field(), sqrt2_field(), sqrtm3_field()
    cases = [(QQ, 7, cyclotomic(7)), (QQ, 18, cyclotomic(18))]
    cases += [(K, n, f) for K, n in ((Qi, 8), (Qi, 12), (Qs2, 8), (Qs2, 16), (Qw, 9), (Qw, 12))
              for f in _cyclotomic_factors(K, (n,))]
    for K, n, f in cases:
        P = K.poly(f.coeffs)
        assert sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1) == P.degree * K.degree
        assert has_root_of_unity_root(K, P), f"{P!r} over {K!r}"
        # non-monic, squared, and next to a factor without roots of unity
        assert has_root_of_unity_root(K, Poly([K.from_rational(-5)]) * P * P)
        assert has_root_of_unity_root(K, P * K.poly(qpoly(-2, 0, 1).coeffs))
        shifted = Poly([c + K.one if i == 0 else c for i, c in enumerate(P.coeffs)])
        assert has_root_of_unity_root(K, shifted) == _has_root_of_unity_reference(K, shifted)


def test_orders_are_the_n_with_small_totient():
    # phi counted by gcd and capped at 65, up to the classical bound
    # n <= 2 * D**2
    phi = [0] * 8193
    for n in range(1, 8193):
        for k in range(1, n + 1):
            phi[n] += math.gcd(k, n) == 1
            if phi[n] == 65:
                break
    for D in range(1, 65):
        orders = hereditary._orders(D)
        assert sorted(n for n, _, _ in orders) == [n for n in range(1, 2 * D * D + 1) if phi[n] <= D]
        for n, phi_n, primes in orders:
            assert phi_n == phi[n]
            assert primes == tuple(p for p in primes_upto(n) if n % p == 0)
    orders = hereditary._orders(256)
    assert len(orders) == 505
    assert max(n for n, _, _ in orders) == 1050


def test_root_of_unity_at_large_orders():
    # Phi_n from sympy, and Phi_n + 1, whose roots of unity are its
    # common roots with its reciprocal Phi_n + x**D (n >= 2), that is,
    # with x**D - 1
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in [n for n in range(2, 200) if sympy.totient(n) <= 256] + [512, 840, 1050]:
        phi_n = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        shifted = phi_n + 1
        expected = sympy.gcd(shifted, sympy.Poly(x ** phi_n.degree() - 1, x)).degree() > 0
        assert has_root_of_unity_root(QQ, qpoly(*reversed(phi_n.all_coeffs()))), n
        assert has_root_of_unity_root(QQ, qpoly(*reversed(shifted.all_coeffs()))) == expected, n
    # the roots of x**64 - i are primitive 256-th roots of unity; x**64 - 2i has none
    Qi = gaussian_field()
    for c, expected in ((Qi.gen, True), (2 * Qi.gen, False)):
        assert has_root_of_unity_root(Qi, Poly([-c] + [Qi.zero] * 63 + [Qi.one])) == expected
    # x**256 + 2x + 2 at the degree cap scans all 505 orders, with no cache
    start = time.perf_counter()
    assert not has_root_of_unity_root(QQ, qpoly(2, 2, *[0] * 254, 1))
    assert time.perf_counter() - start < 1.0


def test_root_of_unity_over_extension():
    # cyclotomic factors that split over K
    Qi, Qw = gaussian_field(), sqrtm3_field()
    omega = (Qw.gen - Qw.one) * Qw.from_rational(Fraction(1, 2))  # (-1 + sqrt-3) / 2
    assert omega * omega + omega + Qw.one == Qw.zero
    assert has_root_of_unity_root(Qi, Poly([-Qi.gen, Qi.one]))  # x - i
    assert has_root_of_unity_root(Qw, Poly([-omega, Qw.one]))  # x - omega
    assert has_root_of_unity_root(Qw, Poly([Qw.from_rational(3), Qw.one]) * Poly([-omega, Qw.one]))
    # roots of absolute value 2, 2 and sqrt2
    assert not has_root_of_unity_root(Qi, Poly([-2 * Qi.gen, Qi.one]))
    assert not has_root_of_unity_root(Qw, Poly([-2 * omega, Qw.one]))
    assert not has_root_of_unity_root(Qi, Poly([-Qi.gen - Qi.one, Qi.one]))


def test_root_of_unity_needs_no_pow_mod_or_gcd(monkeypatch):
    Qi = gaussian_field()
    cases = [
        (QQ, cyclotomic(9), True),
        (QQ, qpoly(3, 1, 0, 0, -2, 0, 1), False),
        (Qi, Qi.poly(qpoly(-3, 1, 0, 1).coeffs), False),
        (Qi, Poly([Qi.gen, Qi.zero, Qi.zero, Qi.one]), True),  # x^3 + i
    ]
    calls = []
    for original in (poly.pow_mod, poly.gcd):
        def counting(*args, _original=original):
            calls.append(_original.__name__)
            return _original(*args)

        for name, module in list(sys.modules.items()):
            if name == "qrank" or name.startswith("qrank."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    for K, P, expected in cases:
        assert has_root_of_unity_root(K, P) == expected
    assert calls == []


def test_capelli_examples():
    assert capelli_obstruction(QQ, qpoly(-4, 1)) == Obstruction.pth_power(2)
    assert capelli_obstruction(QQ, qpoly(4, 1)) == Obstruction.minus_four()
    assert capelli_obstruction(QQ, qpoly(-12, 1)) is None
    assert capelli_obstruction(QQ, qpoly(1, -4, 1)) is None


def test_power_test_reads_the_generator_min_poly(monkeypatch):
    # flatten returns alpha = L.gen over Q and at Trager shift 0, whose
    # minimal polynomial is L's defining polynomial
    Qi = gaussian_field()
    over_q = qpoly(-3, 1, 1)
    shift0 = Poly([Qi.from_rational(3), -Qi.gen, Qi.one])  # x^2 - i x + 3
    shifted = Qi.poly(over_q.coeffs)  # rational coefficients: s = 0 fails
    for K, Q, s in ((QQ, over_q, 0), (Qi, shift0, 0), (Qi, shifted, 1)):
        ext = flatten(K, Q)
        assert ext.shift == s
        assert (ext.alpha == ext.field.gen) == (s == 0)
        assert minimal_polynomial(ext.field.gen) == ext.field.min_poly
    calls = []
    original = hereditary.minimal_polynomial

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(hereditary, "minimal_polynomial", counting)
    assert capelli_obstruction(QQ, over_q) is None
    assert capelli_obstruction(Qi, shift0) is None
    assert calls == []
    assert capelli_obstruction(Qi, shifted) is None
    assert len(calls) == 1


def test_power_test_takes_no_element_norm(monkeypatch):
    # the prefilter norms N(alpha) and N(-alpha/4) come from the minimal
    # polynomial of alpha
    calls = []
    original = NFElement.norm

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(NFElement, "norm", counting)
    Qi = gaussian_field()
    i = Qi.gen
    for K, Q, expected in (
        (QQ, qpoly(-8, 0, 1), Obstruction.pth_power(3)),  # (sqrt 2)**3
        (QQ, qpoly(16, 136, 1), Obstruction.minus_four()),  # -4(1 + sqrt 2)**4
        (QQ, qpoly(-3, 1, 1), None),
        (Qi, Poly([-(Qi.one + 2 * i), Qi.one]), None),
        (Qi, Poly([-2 * i, Qi.one]), Obstruction.pth_power(2)),  # (1 + i)**2
        (Qi, Qi.poly(qpoly(-3, 1, 1).coeffs), None),  # Trager shift 1
    ):
        assert capelli_obstruction(K, Q) == expected, Q
    assert calls == []


def test_capelli_cross_checked_by_oracle(monkeypatch):
    # absence of an obstruction means x**n substitutions never split
    monkeypatch.setenv("QRANK_MAX_DEGREE", "64")
    for p in (qpoly(-12, 1), qpoly(1, -4, 1)):
        counts = oracle_factor_counts(QQ, p, list(range(1, 25)))
        assert all(c == 1 for c in counts)


def test_capelli_preconditions():
    with pytest.raises(ZeroConstantTerm):
        capelli_obstruction(QQ, qpoly(0, 1))
    with pytest.raises(NotIrreducible):
        capelli_obstruction(QQ, qpoly(-9, 0, 1))
    with pytest.raises(RootOfUnity):
        capelli_obstruction(QQ, qpoly(1, 1, 1))


def test_hereditary_factorization_examples():
    hf = hereditary_factorization(QQ, qpoly(-9, 1))
    assert hf.N == 2
    assert hf.factors == (qpoly(-3, 1), qpoly(3, 1))

    hf = hereditary_factorization(QQ, qpoly(-12, 1))
    assert hf.N == 1 and hf.factors == (qpoly(-12, 1),)

    hf = hereditary_factorization(QQ, qpoly(4, 1))
    assert hf.N == 4
    assert hf.factors == (qpoly(2, -2, 1), qpoly(2, 2, 1))
    for c in hf.certificates:
        assert c.verdict == "hereditarily_irreducible"
        assert c.obstruction is None and c.witnessed_split is None


def test_hereditary_factorization_product_law(monkeypatch):
    monkeypatch.setenv("QRANK_MAX_DEGREE", "64")
    rng = random.Random(13)
    for _ in range(20):
        p = random_irreducible(rng, 2, 8)
        hf = hereditary_factorization(QQ, p)
        prod = Poly([QQ.one])
        for f in hf.factors:
            prod = prod * f
        assert prod == substitute_power(QQ.poly(p.coeffs), hf.N)


def test_hereditary_budget(monkeypatch):
    monkeypatch.setenv("QRANK_MAX_DEGREE", "4")
    with pytest.raises(BudgetExceeded):
        hereditary_factorization(QQ, qpoly(-16, 1))


class _Expired(BaseException):
    """Raised by the alarm."""


def _expire(signum, frame):
    raise _Expired


def test_capelli_certificate_degree_budget():
    # 2**257 is a 257-th power, so the witnessed split is that of
    # x**257 - 2**257, of degree 257, past the default cap of 256.  The
    # prime cap bounds only units: 3**257 * i = (3i)**257 over Q(i) is a
    # non-unit with e = 514, whose primes 2 and 257 need no cap to meet
    # the same degree cap
    G = gaussian_field()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        for K, alpha in ((QQ, QQ.from_rational(2**257)), (G, G.element([0, 3**257]))):
            start = time.perf_counter()
            with pytest.raises(BudgetExceeded, match=r"^degree 257 \(1 \* 257\) is past the cap 256$"):
                capelli_certificate(K, K.poly([-alpha, 1]))
            assert time.perf_counter() - start < 5.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_oracle_examples():
    assert oracle_factor_counts(QQ, qpoly(-9, 1), [1, 2, 4]) == [1, 2, 2]
    assert oracle_factor_counts(QQ, qpoly(-12, 1), [1, 2, 3, 4, 6]) == [1] * 5
    assert oracle_factor_counts(QQ, qpoly(-1, 1), [2]) == [2]


def test_oracle_matches_sympy_factor_counts():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    fields = [(QQ, sympy.S.One), (gaussian_field(), sympy.I), (sqrt2_field(), sympy.sqrt(2))]
    n_list = [1, 2, 3, 4, 6]
    for K, t in fields:
        extension = {"extension": t} if K.degree > 1 else {}
        # inputs that split under some x -> x**n, then random ones
        cases = [K.poly(qpoly(*c).coeffs) for c in ((-4, 1), (4, 1), (-2, 0, 1), (-9, 0, 1))]
        for _ in range(4):
            coeffs = [K.from_rational(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])))
                      + rng.randint(-1, 1) * K.gen
                      for _ in range(rng.randint(1, 2))]
            cases.append(Poly(coeffs + [K.from_rational(rng.choice([1, 1, 2]))]))
        for P in cases:
            expected = []
            for n in n_list:
                expr = sum(
                    sympy.Rational(a) * t**j * x ** (i * n)
                    for i, c in enumerate(P.coeffs)
                    for j, a in enumerate(c.coords)
                )
                _, ref = sympy.factor_list(sympy.expand(expr), x, **extension)
                expected.append(sum(m for _, m in ref))
            assert oracle_factor_counts(K, P, n_list) == expected, f"{P!r} over {K!r}"


def test_oracle_budget():
    with pytest.raises(BudgetExceeded):
        oracle_factor_counts(QQ, qpoly(-9, 1), [300])


def test_soundness_vs_oracle_random(monkeypatch):
    """Obstruction verdicts must match brute-force factor counts."""
    rng = random.Random(14)
    for _ in range(40):
        p = random_irreducible(rng, 3, 10)
        verdict = capelli_obstruction(QQ, p)
        if verdict is None:
            ns = [n for n in range(2, 13) if p.degree * n <= 36]
            monkeypatch.setenv("QRANK_MAX_DEGREE", "36")
            counts = oracle_factor_counts(QQ, p, ns)
            assert all(c == 1 for c in counts), (p, verdict, counts)
        elif verdict.kind == "pth_power":
            n = verdict.p
            monkeypatch.setenv("QRANK_MAX_DEGREE", "64")
            count = oracle_factor_counts(QQ, p, [n])[0]
            assert count > 1, (p, verdict)
        else:
            monkeypatch.setenv("QRANK_MAX_DEGREE", "64")
            count = oracle_factor_counts(QQ, p, [4])[0]
            assert count > 1, (p, verdict)


def test_stability_of_factor_counts(monkeypatch):
    monkeypatch.setenv("QRANK_MAX_DEGREE", "60")
    rng = random.Random(15)
    for _ in range(12):
        p = random_irreducible(rng, 2, 9)
        hf = hereditary_factorization(QQ, p)
        k = len(hf.factors)
        ns = [j * hf.N for j in (1, 2, 3) if p.degree * j * hf.N <= 60]
        counts = oracle_factor_counts(QQ, p, ns)
        assert counts == [k] * len(ns)


def test_divisibility_monotonicity(monkeypatch):
    monkeypatch.setenv("QRANK_MAX_DEGREE", "40")
    rng = random.Random(16)
    for _ in range(10):
        p = random_irreducible(rng, 2, 8)
        pairs = [(2, 4), (2, 6), (3, 6), (1, 5), (4, 8)]
        for a, b in pairs:
            if p.degree * b > 40:
                continue
            ca, cb = oracle_factor_counts(QQ, p, [a, b])
            assert ca <= cb


def test_certificates_replayable():
    for poly in (qpoly(-9, 1), qpoly(4, 1), qpoly(-12, 1), qpoly(1, -4, 1)):
        hf = hereditary_factorization(QQ, poly)
        for cert in hf.certificates:
            assert cert.verdict == "hereditarily_irreducible"
            ext = flatten(QQ, cert.base_factor)
            for p in cert.primes_tested:
                assert pth_root_in_field(ext.field, ext.alpha, p) is None
            assert not in_minus4_fourth_powers(ext.field, ext.alpha)
            assert substitute_power(cert.base_factor, cert.lift_exponent) == (
                cert.factor
            )


def test_obstructed_certificate_witnesses_split():
    cert = capelli_certificate(QQ, qpoly(-4, 1))
    assert cert.verdict == "obstructed"
    assert cert.obstruction == Obstruction.pth_power(2)
    prod = Poly([QQ.one])
    for w in cert.witnessed_split:
        prod = prod * w
    assert prod == substitute_power(cert.factor, 2)
    assert len(cert.witnessed_split) > 1

    cert = capelli_certificate(QQ, qpoly(4, 1))
    assert cert.obstruction == Obstruction.minus_four()
    assert len(cert.witnessed_split) == 2


def test_split_from_the_root_matches_factoring(monkeypatch):
    # x - beta**p splits through beta as x - beta times the cofactor
    # x**(p-1) + ... + beta**(p-1): the same factors as factoring
    # x**p - beta**p, with only the cofactor factored, and nothing for p = 2
    rng = random.Random(41)
    degrees = []
    original = hereditary.factor_over_K

    def counting(K, f):
        degrees.append(f.degree)
        return original(K, f)

    def random_element(K):
        coords = [Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.choice([1, 11, 13]))]
        coords += [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(K.degree - 1)]
        return K.element(coords)

    def split_and_check(K, cert, e):
        degrees.clear()
        monkeypatch.setattr(hereditary, "factor_over_K", counting)
        monkeypatch.setattr(numfield, "factor_over_K", counting)
        split = hereditary._split(K, cert)
        monkeypatch.setattr(hereditary, "factor_over_K", original)
        monkeypatch.setattr(numfield, "factor_over_K", original)
        _, want = factor_over_K(K, substitute_power(cert.factor, e))
        assert [poly_key(w) for w in split] == [
            poly_key(w) for w, m in want for _ in range(m)
        ], (K, cert.factor)
        return split

    Qi = gaussian_field()
    for K in (QQ, Qi, sqrt2_field(), sqrtm3_field()):
        for p in (2, 3, 5):
            for _ in range(3):
                alpha = random_element(K) ** p
                Q = K.poly([-alpha, 1])
                cert = hereditary._power_test(K, Q, p)
                assert cert.obstruction == Obstruction.pth_power(p)
                assert K.poly([cert.root]).coeffs[0] ** p == alpha
                split_and_check(K, cert, p)
                assert degrees == ([] if p == 2 else [p - 1])
        # x - alpha for alpha = -4*gamma**4 splits through gamma into two
        # quadratics with nothing factored, and over Q(i) into four linear
        # factors.  There -4 = (1 + i)**4 makes alpha a square, which the
        # power test finds first, so a minus-four certificate whose scan
        # skipped 2 stands in for one
        for _ in range(3):
            alpha = random_element(K) ** 4 * -4
            Q = K.poly([-alpha, 1])
            cert = hereditary._power_test(K, Q, 4)
            if K is Qi:
                assert cert.obstruction == Obstruction.pth_power(2)
                gamma = in_minus4_fourth_powers(K, alpha)
                cert = hereditary.HereditaryCertificate(
                    Q, 4, (), Q, Obstruction.minus_four(), root=gamma
                )
                shapes = [1, 1, 1, 1]
            else:
                assert cert.obstruction == Obstruction.minus_four()
                shapes = [2, 2]
            assert K.poly([cert.root]).coeffs[0] ** 4 * -4 == alpha
            split = split_and_check(K, cert, 4)
            assert degrees == []
            assert [w.degree for w in split] == shapes


@pytest.mark.parametrize(
    "r, verdict, bound, tested, minus_four, obstruction",
    [
        (-64, "obstructed", 6, (2, 3), False, Obstruction.pth_power(3)),
        (4096, "obstructed", 12, (2,), False, Obstruction.pth_power(2)),
        (-4, "obstructed", 2, (2,), True, Obstruction.minus_four()),
        (12, "hereditarily_irreducible", 1, (), True, None),
        (Fraction(-1, 8), "obstructed", 3, (3,), False, Obstruction.pth_power(3)),
        (-324, "obstructed", 2, (2,), True, Obstruction.minus_four()),
    ],
)
def test_rational_root_certificates(r, verdict, bound, tested, minus_four, obstruction):
    # a rational root r scans the primes dividing the perfect-power
    # exponent of |r|: 64 = 2**6, 4096 = 2**12, -324 = -4 * 3**4
    cert = capelli_certificate(QQ, qpoly(-r, 1))
    assert (
        cert.verdict,
        cert.prime_bound,
        cert.primes_tested,
        cert.minus_four_tested,
        cert.obstruction,
    ) == (verdict, bound, tested, minus_four, obstruction)


@pytest.mark.parametrize(
    "r, n, N",
    [(4096, 10, 2), (-4, 4, 4), (-4, 2, 1), (-64, 6, 3), (Fraction(-1, 8), 9, 3)],
)
def test_rational_root_worklist_aimed_at_n(r, n, N):
    P = qpoly(-r, 1)
    hf = hereditary._worklist(QQ, P, n)
    assert hf.N == N
    # every factor stays irreducible as F(x**(n/N))
    assert oracle_factor_counts(QQ, P, [n]) == [len(hf.factors)]
    if (r, n) == (-4, 2):
        # -4 is no square and 4 does not divide 2: x**2 + 4 is irreducible
        (cert,) = hf.certificates
        assert (cert.prime_bound, cert.primes_tested) == (2, (2,))


def _end_exponent(a: NFElement) -> int:
    """e of the power test's prime rule, the ends of a's primitive
    integer minimal polynomial factored: k = [L:Q(a)] times the gcd of
    the exponents in every end other than +-1, 0 for a unit."""
    ints = numfield._to_primitive_int(minimal_polynomial(a))
    k = a.field.degree // (len(ints) - 1)
    ends = (factor_integer(abs(c)).values() for c in (ints[0], ints[-1]))
    return k * math.gcd(*(v for exponents in ends for v in exponents))


def _first_obstruction_reference(L, a) -> Obstruction | None:
    """The obstruction a scan over every prime up to the old height bound
    finds: the first p at which pth_root_reference finds a p-th root of a
    in L, else minus-four when it finds a fourth root of -a/4.  A prime
    whose norm test or residue_sieve_reference, both exact, rules out a
    root is not factored."""
    norm = element_norm_reference(a)
    for p in primes_upto(height_prime_bound_reference(L, a)):
        if norm < 0 and p == 2 or rational_nth_root(abs(norm), p) is None:
            continue
        if not residue_sieve_reference(L, a, p) and pth_root_reference(L, a, p) is not None:
            return Obstruction.pth_power(p)
    if pth_root_reference(L, a * Fraction(-1, 4), 4) is not None:
        return Obstruction.minus_four()
    return None


def test_nonunit_primes_divide_the_end_exponent():
    # a non-unit is a p-th power only for p dividing e, and the scan over
    # those primes finds the obstruction that the old scan over every
    # prime up to the height bound found; x - 3 over Q(i) has
    # mp = x - 3 and k = 2, so e = 2 where the height bound listed 2, 3, 5
    G = gaussian_field()
    assert hereditary._power_test(G, G.poly([-3, 1])).primes_tested == (2,)
    rng = random.Random(26)
    cases = [(QQ, random_irreducible(rng, 3, 30)) for _ in range(10)]
    for L in sieve_fields():

        def draw(h):
            return L.element([Fraction(rng.randint(-h, h), rng.randint(1, 3)) for _ in range(L.degree)])

        alphas = [draw(6), draw(6), draw(2) ** 4 * -4]
        alphas += [draw(2) ** p for p in (2, 3, 5, 7)]
        alphas += [L.from_rational(Fraction(rng.randint(-40, 40), rng.randint(1, 9))) for _ in range(2)]
        alphas.append(L.from_rational(Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 7])) ** rng.choice([2, 3])))
        for a in alphas:
            if not a.is_zero():
                cases.append((L, L.poly([-a, 1])))
                if L.degree > 1 and not a.is_rational():
                    cases.append((QQ, minimal_polynomial(a)))
    kinds = collections.Counter()
    for K, Q in cases:
        ext = flatten(K, Q)
        e = _end_exponent(ext.alpha)
        if e == 0:
            continue  # a unit keeps the height bound
        cert = hereditary._power_test(K, Q)
        assert cert.prime_bound == e, (K, Q)
        assert all(e % p == 0 for p in cert.primes_tested), (K, Q)
        want = _first_obstruction_reference(ext.field, ext.alpha)
        assert cert.obstruction == want, (K, Q)
        kinds[want and (want.kind, want.p)] += 1
    assert set(kinds) == {None, ("minus_four", None), *(("pth_power", p) for p in (2, 3, 5, 7))}


def test_cyclotomics_detected():
    for n in range(1, 31):
        phi = cyclotomic(n)
        assert has_root_of_unity_root(QQ, phi), f"missed Phi_{n}"


def test_hereditary_over_extension_field():
    # over Q(i), x - 2i splits at p = 2 since (1+i)^2 = 2i
    Qi = gaussian_field()
    P = Poly([-2 * Qi.gen, Qi.one])
    hf = hereditary_factorization(Qi, P)
    assert hf.N >= 2
    prod = Poly([Qi.one])
    for f in hf.factors:
        prod = prod * f
    assert prod == substitute_power(P, hf.N)
    counts = oracle_factor_counts(Qi, P, [hf.N])
    assert counts == [len(hf.factors)]
