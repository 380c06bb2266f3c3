import random

import pytest

from helpers import cyclotomic, gaussian_field, qpoly, random_irreducible
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
    Obstruction,
    flatten,
    in_minus4_fourth_powers,
    is_pth_power,
)
from qrank.poly import Poly, substitute_power


def test_root_of_unity_examples():
    assert has_root_of_unity_root(QQ, qpoly(1, 1, 1))
    assert not has_root_of_unity_root(QQ, qpoly(-9, 1))
    assert not has_root_of_unity_root(QQ, qpoly(1, -4, 1))
    with pytest.raises(ZeroPolynomial):
        has_root_of_unity_root(QQ, Poly(()))


def test_root_of_unity_over_extension():
    Qi = gaussian_field()
    # x - i has the 4th root of unity as its root
    assert has_root_of_unity_root(Qi, Poly([-Qi.gen, Qi.one]))
    assert not has_root_of_unity_root(Qi, Poly([-2 * Qi.gen, Qi.one]))


def test_capelli_examples():
    assert capelli_obstruction(QQ, qpoly(-4, 1)) == Obstruction.pth_power(2)
    assert capelli_obstruction(QQ, qpoly(4, 1)) == Obstruction.minus_four()
    assert capelli_obstruction(QQ, qpoly(-12, 1)) is None
    assert capelli_obstruction(QQ, qpoly(1, -4, 1)) is None


def test_capelli_cross_checked_by_oracle():
    # absence of an obstruction means x**n substitutions never split
    for p in (qpoly(-12, 1), qpoly(1, -4, 1)):
        counts = oracle_factor_counts(QQ, p, list(range(1, 25)), degree_cap=64)
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


def test_hereditary_factorization_product_law():
    rng = random.Random(13)
    for _ in range(20):
        p = random_irreducible(rng, 2, 8)
        hf = hereditary_factorization(QQ, p, degree_cap=64)
        prod = Poly([QQ.one])
        for f in hf.factors:
            prod = prod * f
        assert prod == substitute_power(QQ.poly(p.coeffs), hf.N)


def test_hereditary_budget():
    with pytest.raises(BudgetExceeded):
        hereditary_factorization(QQ, qpoly(-16, 1), degree_cap=4)


def test_oracle_examples():
    assert oracle_factor_counts(QQ, qpoly(-9, 1), [1, 2, 4]) == [1, 2, 2]
    assert oracle_factor_counts(QQ, qpoly(-12, 1), [1, 2, 3, 4, 6]) == [1] * 5
    assert oracle_factor_counts(QQ, qpoly(-1, 1), [2]) == [2]


def test_oracle_budget():
    with pytest.raises(BudgetExceeded):
        oracle_factor_counts(QQ, qpoly(-9, 1), [300])


def test_soundness_vs_oracle_random():
    """Obstruction verdicts must match brute-force factor counts."""
    rng = random.Random(14)
    for _ in range(40):
        p = random_irreducible(rng, 3, 10)
        verdict = capelli_obstruction(QQ, p)
        if verdict is None:
            ns = [n for n in range(2, 13) if p.degree * n <= 36]
            counts = oracle_factor_counts(QQ, p, ns, degree_cap=36)
            assert all(c == 1 for c in counts), (p, verdict, counts)
        elif verdict.kind == "pth_power":
            n = verdict.p
            count = oracle_factor_counts(QQ, p, [n], degree_cap=64)[0]
            assert count > 1, (p, verdict)
        else:
            count = oracle_factor_counts(QQ, p, [4], degree_cap=64)[0]
            assert count > 1, (p, verdict)


def test_stability_of_factor_counts():
    rng = random.Random(15)
    for _ in range(12):
        p = random_irreducible(rng, 2, 9)
        hf = hereditary_factorization(QQ, p, degree_cap=60)
        k = len(hf.factors)
        ns = [j * hf.N for j in (1, 2, 3) if p.degree * j * hf.N <= 60]
        counts = oracle_factor_counts(QQ, p, ns, degree_cap=60)
        assert counts == [k] * len(ns)


def test_divisibility_monotonicity():
    rng = random.Random(16)
    for _ in range(10):
        p = random_irreducible(rng, 2, 8)
        pairs = [(2, 4), (2, 6), (3, 6), (1, 5), (4, 8)]
        for a, b in pairs:
            if p.degree * b > 40:
                continue
            ca, cb = oracle_factor_counts(QQ, p, [a, b], degree_cap=40)
            assert ca <= cb


def test_certificates_replayable():
    for poly in (qpoly(-9, 1), qpoly(4, 1), qpoly(-12, 1), qpoly(1, -4, 1)):
        hf = hereditary_factorization(QQ, poly)
        for cert in hf.certificates:
            assert cert.verdict == "hereditarily_irreducible"
            ext = flatten(QQ, cert.base_factor)
            for p in cert.primes_tested:
                assert not is_pth_power(ext.field, ext.alpha, p)
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
