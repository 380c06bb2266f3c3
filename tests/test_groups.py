import math
import random
from fractions import Fraction

import pytest

from helpers import (
    gaussian_field,
    qpoly,
    random_irreducible,
    reduct_spectrum_reference,
    sqrt2_field,
    sqrtm3_field,
)
from qrank import hereditary
from qrank.classify import rationality_exponent
from qrank.errors import (
    BudgetExceeded,
    NotIrreducible,
    NotMonic,
    RootOfUnity,
    ValidationFailed,
    ZeroConstantTerm,
    ZeroPolynomial,
)
from qrank.groups import (
    CompanionPresentation,
    eigenvalue_compatible,
    prolong,
    qacfa_rank,
    rank_in_reduct,
    subgroup_degree_spectrum,
    validate,
)
from qrank.numfield import QQ, factor_over_Q
from qrank.poly import Poly, charpoly_of, companion_of, substitute_power


def pres(*coeffs) -> CompanionPresentation:
    return CompanionPresentation(QQ, qpoly(*coeffs))


def test_presentation_invariants():
    with pytest.raises(ZeroConstantTerm):
        pres(0, 1)
    with pytest.raises(NotMonic):
        pres(1, 2)
    with pytest.raises(NotMonic):
        pres(7)
    g = pres(-9, 1)
    assert g.size == 1


def test_from_last_row_round_trip():
    g = CompanionPresentation.from_last_row(QQ, [9])
    assert g.char_poly == QQ.poly([-9, 1])
    g2 = CompanionPresentation.from_last_row(QQ, [-1, 4])
    assert g2.char_poly == QQ.poly([1, -4, 1])


def test_validate_examples():
    r = validate(pres(-1, 1))  # x - 1: the fixed field, not one-based
    assert r.root_of_unity_eigenvalue and not r.one_based_necessary

    r = validate(pres(-1, 0, 1))  # x^2 - 1 splits
    assert not r.irreducible_over_R and not r.minimal_necessary

    r = validate(pres(1, -4, 1))
    assert r.irreducible_over_R and not r.root_of_unity_eigenvalue
    assert r.passes


def _entry_point_inputs(rng, K):
    """Monic P over K: random of degree 1-4 with small coordinates and
    P(0) != 0, products of two such, products with a cyclotomic factor,
    cyclotomics alone, and three of the random ones multiplied by x."""
    def random_monic(deg):
        while True:
            coeffs = [K.element([rng.randint(-3, 3) for _ in range(K.degree)]) for _ in range(deg)]
            if coeffs[0]:
                return K.poly([*coeffs, 1])

    cyclotomics = [K.poly(c) for c in ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1])]
    inputs = [random_monic(rng.randint(1, 4)) for _ in range(8)]
    inputs += [random_monic(rng.randint(1, 2)) * random_monic(rng.randint(1, 2)) for _ in range(4)]
    inputs += [P * rng.choice(cyclotomics) for P in inputs[:4]] + cyclotomics
    return inputs + [Poly([K.zero, *P.coeffs]) for P in inputs[:3]]


def _outcome(run):
    try:
        run()
    except (NotIrreducible, RootOfUnity, ZeroConstantTerm) as exc:
        return type(exc)
    return None


def test_every_entry_point_gets_the_one_verdict(monkeypatch):
    # validate against hereditary_factorization and capelli_certificate:
    # a passing report means no exception, a reducible P NotIrreducible
    # (checked first), an irreducible P with a root-of-unity root
    # RootOfUnity, and where both pass the worklist's root is flattened
    # at the shift that validate proved P irreducible at
    shifts = []
    original = hereditary._power_test

    def recording(K, Q, m=0, shift=None):
        shifts.append(shift)
        return original(K, Q, m, shift)

    monkeypatch.setattr(hereditary, "_power_test", recording)
    rng = random.Random(34)
    seen = set()
    for K in (QQ, gaussian_field(), sqrt2_field(), sqrtm3_field()):
        for P in _entry_point_inputs(rng, K):
            if P.coeffs[0] == 0:
                expected, report = ZeroConstantTerm, None
                assert _outcome(lambda: CompanionPresentation(K, P)) is ZeroConstantTerm
            else:
                report = validate(CompanionPresentation(K, P))
                expected = (
                    NotIrreducible if not report.irreducible_over_R
                    else RootOfUnity if report.root_of_unity_eigenvalue
                    else None
                )
            seen.add(expected)
            for entry in (hereditary.hereditary_factorization, hereditary.capelli_certificate):
                shifts.clear()
                assert _outcome(lambda: entry(K, P)) is expected, (K, P, entry)
                if expected is None:
                    assert shifts[0] == report.shift, (K, P, entry)
    assert seen == {None, NotIrreducible, RootOfUnity, ZeroConstantTerm}
    # QQ, shared by every request, keeps no simple roots mod l
    assert QQ._roots == {}


def test_prolong_examples():
    g = prolong(pres(-9, 1), 2)
    assert g.size == 2
    assert tuple(c.coords[0] for c in g.matrix().last_row) == (9, 0)

    g = prolong(pres(1, -4, 1), 2)
    assert g.char_poly == QQ.poly([1, 0, -4, 0, 1])
    assert tuple(c.coords[0] for c in g.matrix().last_row) == (-1, 0, 4, 0)

    g0 = pres(3, -4, 1)  # x^2-4x+3 reducible but prolong needs no validation
    assert prolong(g0, 1) is g0


def test_prolong_entry_law_random():
    rng = random.Random(17)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 24 // m)
        row = [Fraction(rng.randint(-9, 9)) for _ in range(m)]
        if row[0] == 0:
            row[0] = Fraction(1)
        g = CompanionPresentation.from_last_row(QQ, row)
        gp = prolong(g, n)
        # independent reconstruction of the prolonged matrix
        assert gp.char_poly == substitute_power(g.char_poly, n)
        big = companion_of(gp.char_poly)
        for k in range(1, m * n + 1):
            expected = row[(k - 1) // n] if (k - 1) % n == 0 else Fraction(0)
            assert big.entry(m * n, k) == expected
        # charpoly round trip
        assert charpoly_of(big) == gp.char_poly


def test_prolong_composes():
    rng = random.Random(18)
    for _ in range(30):
        m = rng.randint(1, 3)
        row = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
        if row[0] == 0:
            row[0] = Fraction(2)
        g = CompanionPresentation.from_last_row(QQ, row)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        assert (
            prolong(g, a * b).char_poly == prolong(prolong(g, a), b).char_poly
        )


def test_rank_in_reduct_examples():
    g = pres(-9, 1)
    assert rank_in_reduct(g, 2) == 2
    assert rank_in_reduct(g, 3) == 1
    assert rank_in_reduct(pres(-12, 1), 6) == 1


def test_rank_in_reduct_validation():
    with pytest.raises(ValidationFailed):
        rank_in_reduct(pres(-1, 1), 2)
    with pytest.raises(BudgetExceeded):
        rank_in_reduct(pres(-9, 1), 500)
    # validation comes before the degree cap, so it wins at any n
    with pytest.raises(ValidationFailed):
        rank_in_reduct(pres(-1, 1), 10**6)


def test_qacfa_rank_paper_groups():
    r = qacfa_rank(pres(-9, 1))  # sigma(x) = x^9
    assert r.rank == 2
    assert r.method == "hereditary_factor_count"
    assert r.witness.N == 2
    assert r.witness.factors == (qpoly(-3, 1), qpoly(3, 1))

    r = qacfa_rank(pres(-4, 1))  # sigma(x) = x^4
    assert r.rank == 2
    assert r.witness.factors == (qpoly(-2, 1), qpoly(2, 1))

    r = qacfa_rank(pres(1, -4, 1))  # sigma^2(x) = sigma(x)^4 / x
    assert r.rank == 1
    assert r.witness.N == 1


def test_qacfa_rank_matches_reduct_at_witness():
    for g in (pres(-9, 1), pres(-4, 1), pres(1, -4, 1), pres(-16, 1)):
        r = qacfa_rank(g)
        n = r.witness.N
        assert r.rank == rank_in_reduct(g, n)
        # and is the maximum over tested reducts up to N
        assert r.rank == max(rank_in_reduct(g, k) for k in range(1, n + 1))


def test_eigenvalue_compatible_examples():
    g = pres(-9, 1)
    assert eigenvalue_compatible(qpoly(-3, 1), g, 2)
    assert not eigenvalue_compatible(qpoly(-2, 1), g, 2)
    assert not eigenvalue_compatible(qpoly(-3, 0, 1), g, 2)
    with pytest.raises(ZeroPolynomial):
        eigenvalue_compatible(Poly(()), g, 2)


def test_eigenvalue_compatible_degree_budget():
    # P(x**300) has degree 300, past the default cap of 256
    g = pres(-2, 1)
    assert eigenvalue_compatible(qpoly(-2, 1), g, 1)
    with pytest.raises(BudgetExceeded):
        eigenvalue_compatible(qpoly(-2, 1), g, 300)


def test_eigenvalue_compatible_squarefree_normalization():
    g = pres(-9, 1)
    # (x-3)^2 has the same root set as x-3
    assert eigenvalue_compatible(qpoly(-3, 1) * qpoly(-3, 1), g, 2)


def test_eigenvalue_compatibility_invariant():
    rng = random.Random(19)
    g = pres(-36, 1)
    for n in (2, 3, 4, 6):
        _, factors = factor_over_Q(substitute_power(qpoly(-36, 1), n))
        for f, _ in factors:
            assert eigenvalue_compatible(f, g, n)
    misses = 0
    trials = 0
    while trials < 100:
        q = random_irreducible(rng, 2, 12)
        n = rng.randint(1, 6)
        _, factors = factor_over_Q(substitute_power(qpoly(-36, 1), n))
        if any(f == q for f, _ in factors):
            continue
        trials += 1
        if eigenvalue_compatible(q, g, n):
            misses += 1
    assert misses == 0


def test_subgroup_degree_spectrum_examples():
    assert subgroup_degree_spectrum(pres(-9, 1), 2) == [1, 1]
    assert subgroup_degree_spectrum(pres(-12, 1), 2) == [2]
    assert subgroup_degree_spectrum(pres(4, 1), 4) == [2, 2]


def _spectra_match_reference(g: CompanionPresentation) -> int:
    """Compare the spectrum with direct factoring for every n <= 24 with
    deg P * n * [K:Q] <= 72; returns the hereditary N of P."""
    K, P = g.ring, g.char_poly
    for n in range(1, 25):
        if P.degree * n * K.degree > 72:
            break
        assert subgroup_degree_spectrum(g, n) == reduct_spectrum_reference(
            K, P, n
        ), (P, n)
    return qacfa_rank(g).witness.N


def test_subgroup_degree_spectrum_matches_direct_factoring():
    # random P of criterion 6's shape; most have N = 1
    rng = random.Random(18)
    checked = 0
    while checked < 12:
        g = CompanionPresentation(QQ, random_irreducible(rng, 3, 10))
        if validate(g).passes:
            _spectra_match_reference(g)
            checked += 1
    # x - r with r = +-b**k: N > 1, and 1 < gcd(n, N) < N at some n
    partial = False
    for b in (2, 3):
        for k in (2, 3, 4, 6, 8):
            for sign in (1, -1):
                N = _spectra_match_reference(pres(-sign * b**k, 1))
                partial |= any(1 < math.gcd(n, N) < N for n in range(1, 25))
    assert partial
    # one valid input over each field, each with N > 1: 3+4i = (2+i)**2,
    # 3+2*sqrt2 = (1+sqrt2)**2, 2+2*sqrt-3 = 4 times a sixth root of unity
    for K, a in (
        (gaussian_field(), (3, 4)),
        (sqrt2_field(), (3, 2)),
        (sqrtm3_field(), (2, 2)),
    ):
        g = CompanionPresentation(K, K.poly([-K.element(a), K.one]))
        assert _spectra_match_reference(g) > 1


def test_rank_monotone_in_reduct_divisibility():
    rng = random.Random(20)
    for _ in range(15):
        p = random_irreducible(rng, 2, 9)
        g = CompanionPresentation(QQ, p)
        if not validate(g).passes:
            continue
        for a, b in ((1, 2), (2, 4), (2, 6), (3, 6)):
            if p.degree * b > 24:
                continue
            assert rank_in_reduct(g, a) <= rank_in_reduct(g, b)


def test_degree_ratio_bound_consistency(monkeypatch):
    monkeypatch.setenv("QRANK_MAX_DEGREE", "60")
    rng = random.Random(21)
    checked = 0
    while checked < 25:
        p = random_irreducible(rng, 2, 9)
        g = CompanionPresentation(QQ, p)
        det = abs(p.coeffs[0])
        if det == 1 or not validate(g).passes:
            continue
        rank = qacfa_rank(g).rank
        assert rank <= rationality_exponent(det)
        checked += 1


def test_qacfa_rank_over_extension_ring():
    K = sqrt2_field()
    # sigma(x) = x^(3+2*sqrt2)-ish: the quasiendomorphism 3+2*sqrt2 is the
    # square of 1+sqrt2, so the rank doubles once
    alpha = (K.one + K.gen) ** 2
    g = CompanionPresentation(K, Poly([-alpha, K.one]))
    r = qacfa_rank(g)
    assert r.rank == 2
    assert r.witness.N == 2
