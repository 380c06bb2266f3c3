"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its stated runtime budget."""

import random
import time
from fractions import Fraction

from helpers import (
    cyclotomic,
    gaussian_field,
    qpoly,
    random_irreducible,
    sqrt2_field,
    sqrtm3_field,
)
from qrank.classify import (
    FixedFieldQuery,
    fixed_field_rank,
    rank_bound_from_ratio,
    rationality_exponent,
)
from qrank.groups import (
    UNDEFINED,
    CompanionPresentation,
    eigenvalue_compatible,
    prolong,
    qacfa_rank,
    validate,
)
from qrank.hereditary import (
    capelli_obstruction,
    has_root_of_unity_root,
    hereditary_factorization,
    oracle_factor_counts,
)
from qrank.numfield import QQ, factor_over_K, factor_over_Q
from qrank.poly import Poly, charpoly_of, companion_of, substitute_power


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_endomorphism_x9():
    with Timer() as t:
        g = CompanionPresentation(QQ, qpoly(-9, 1))
        r = qacfa_rank(g)
        counts = oracle_factor_counts(QQ, qpoly(-9, 1), [2 * j for j in range(1, 6)])
    ok = (
        r.rank == 2
        and r.witness.N == 2
        and r.witness.factors == (qpoly(-3, 1), qpoly(3, 1))
        and counts == [2, 2, 2, 2, 2]
        and t.elapsed < 1.0
    )
    _report(1, ok, f"rank={r.rank} N={r.witness.N} oracle={counts} "
                   f"time={t.elapsed:.3f}s")
    assert r.rank == 2
    assert r.witness.N == 2
    assert r.witness.factors == (qpoly(-3, 1), qpoly(3, 1))
    assert counts == [2] * 5
    assert t.elapsed < 1.0


def test_criterion_02_endomorphism_x4():
    with Timer() as t:
        r = qacfa_rank(CompanionPresentation(QQ, qpoly(-4, 1)))
    ok = (
        r.rank == 2
        and r.witness.factors == (qpoly(-2, 1), qpoly(2, 1))
        and t.elapsed < 1.0
    )
    _report(2, ok, f"rank={r.rank} factors=x-2,x+2 time={t.elapsed:.3f}s")
    assert r.rank == 2
    assert r.witness.factors == (qpoly(-2, 1), qpoly(2, 1))
    assert t.elapsed < 1.0


def test_criterion_03_bijection_correspondence(monkeypatch):
    with Timer() as t:
        P = qpoly(1, -4, 1)
        g = CompanionPresentation(QQ, P)
        rep = validate(g)
        det = abs(Fraction(1))  # |P(0)| = 1
        bound = rank_bound_from_ratio(det)
        r = qacfa_rank(g)
        monkeypatch.setenv("QRANK_MAX_DEGREE", "24")
        counts = oracle_factor_counts(QQ, P, list(range(1, 13)))
    ok = (
        rep.passes
        and bound is None
        and r.rank == 1
        and counts == [1] * 12
        and t.elapsed < 10.0
    )
    _report(3, ok, f"validate={rep.passes} bound={bound} rank={r.rank} "
                   f"oracle_irreducible={all(c == 1 for c in counts)} "
                   f"time={t.elapsed:.3f}s")
    assert rep.passes
    assert bound is None
    assert r.rank == 1
    assert counts == [1] * 12
    assert t.elapsed < 10.0


def test_criterion_04_fixed_field_ranks():
    with Timer() as t:
        bad = []
        for q0 in (Fraction(1), Fraction(1, 2), Fraction(3, 7)):
            for p in (2, 5, 97):
                for m in range(1, 101):
                    for sign in (1, -1):
                        r = fixed_field_rank(FixedFieldQuery(q0, sign * m, p))
                        if r.rank != m:
                            bad.append((q0, sign * m, p, r.rank))
                r0 = fixed_field_rank(FixedFieldQuery(q0, 0, p))
                if r0.rank != UNDEFINED:
                    bad.append((q0, 0, p, r0.rank))
    ok = not bad
    _report(4, ok, f"1800 Frobenius queries exact, undefined at m=0, "
                   f"time={t.elapsed:.3f}s")
    assert not bad, bad[:5]


def test_criterion_05_degree_ratio_bound():
    with Timer() as t:
        ds = [d for a in range(2, 51) for d in (a, -a)]
        ranks = {}
        for d in ds:
            ranks[d] = qacfa_rank(
                CompanionPresentation(QQ, qpoly(-d, 1))
            ).rank
        bounds = {d: rationality_exponent(abs(d)) for d in ds}
        violations = [d for d in ds if ranks[d] > bounds[d]]
        forced = [d for d in ds if bounds[d] == 1 and ranks[d] != 1]
        eq_actual = {d: (ranks[d], bounds[d]) for d in (4, 9, 16)}
        # The bound is strict at 64: for every k,
        #   x^(6k) - 64 = (x^k - 2)(x^k + 2)
        #                 * (x^(2k) + 2x^k + 4)(x^(2k) - 2x^k + 4).
        # Each factor is irreducible iff x^k - alpha is over Q(alpha), with
        # alpha = +-2 over Q or alpha = +-2*omega^(+-1) over Q(sqrt(-3)).
        # 2 is inert there, so v_2(alpha) = 1: alpha is no p-th power and
        # not -4c^4, and by Capelli none splits.  Rank 4, while S(64) = 6.
        r64 = qacfa_rank(CompanionPresentation(QQ, qpoly(-64, 1)))
        s64 = rationality_exponent(64)
        witness_64 = (
            qpoly(-2, 1), qpoly(2, 1), qpoly(4, -2, 1), qpoly(4, 2, 1)
        )
    ok = (
        not violations
        and not forced
        and all(r == s for r, s in eq_actual.values())
        and (r64.rank, s64) == (4, 6)
        and r64.witness.N == 6
        and r64.witness.factors == witness_64
        and t.elapsed < 60.0
    )
    _report(
        5,
        ok,
        f"bound holds on all {len(ds)} values, equality map "
        f"{ {d: f'{r}/{s}' for d, (r, s) in eq_actual.items()} }, "
        f"strict bound 64: {r64.rank}{'<' if r64.rank < s64 else '!<'}{s64} "
        f"N={r64.witness.N} "
        f"time={t.elapsed:.1f}s",
    )
    assert not violations, violations
    assert not forced, forced
    assert t.elapsed < 60.0
    for d, (rank, s) in eq_actual.items():
        assert rank == s, f"equality fails at d={d}: rank {rank} != S {s}"
    assert (r64.rank, s64) == (4, 6), (
        f"strict bound fails at d=64: rank {r64.rank}, S {s64}; "
        f"expected rank 4 < S 6"
    )
    assert r64.witness.N == 6, f"d=64 witness N={r64.witness.N}, expected 6"
    assert r64.witness.factors == witness_64, r64.witness.factors


def test_criterion_06_oracle_equivalence_suite(monkeypatch):
    rng = random.Random(2026)
    with Timer() as t:
        disagreements = []
        for idx in range(200):
            P = random_irreducible(rng, 3, 10)
            monkeypatch.setenv("QRANK_MAX_DEGREE", "60")
            hf = hereditary_factorization(QQ, P)
            k = len(hf.factors)
            ns = [j * hf.N for j in (1, 2, 3) if P.degree * j * hf.N <= 60]
            counts = oracle_factor_counts(QQ, P, ns)
            if counts != [k] * len(ns):
                disagreements.append((P, "stability", hf.N, k, counts))
            verdict = capelli_obstruction(QQ, P)
            monkeypatch.setenv("QRANK_MAX_DEGREE", "72")
            brute = oracle_factor_counts(QQ, P, list(range(1, 25)))
            if verdict is None:
                if any(c != 1 for c in brute):
                    disagreements.append((P, "missed split", brute))
            elif verdict.kind == "pth_power":
                if brute[verdict.p - 1] == 1:
                    disagreements.append((P, "false pth_power", verdict.p))
            else:
                if brute[3] == 1:
                    disagreements.append((P, "false minus_four"))
    ok = not disagreements and t.elapsed < 600.0
    _report(6, ok, f"200 random polynomials, 0 disagreements expected, got "
                   f"{len(disagreements)}, time={t.elapsed:.1f}s")
    assert not disagreements, disagreements[:3]
    assert t.elapsed < 600.0


def test_criterion_07_cyclotomic_detection():
    with Timer() as t:
        missed = [n for n in range(1, 31) if not has_root_of_unity_root(QQ, cyclotomic(n))]
        # independent classification: an irreducible polynomial has a root
        # of unity among its roots exactly when it IS a cyclotomic polynomial
        false_hits = []
        rng = random.Random(2027)
        cyclo_by_deg: dict[int, set] = {}
        for n in range(1, 2 * 8 * 8 + 1):
            phi = cyclotomic(n)
            if phi.degree <= 8:
                cyclo_by_deg.setdefault(phi.degree, set()).add(phi.coeffs)
        checked = 0
        while checked < 200:
            p = random_irreducible(rng, 4, 10, forbid_root_of_unity=False)
            is_cyclo = p.coeffs in cyclo_by_deg.get(p.degree, set())
            if is_cyclo:
                continue  # vanishingly rare; criterion wants non-cyclotomic
            checked += 1
            if has_root_of_unity_root(QQ, p):
                false_hits.append(p)
    ok = not missed and not false_hits
    _report(7, ok, f"Phi_n detected for n<=30, 200 non-cyclotomic clean, "
                   f"time={t.elapsed:.1f}s")
    assert not missed, missed
    assert not false_hits, false_hits


def _known_irreducibles(K, tag, rng):
    """Hand-verified irreducible pool plus random linear factors."""
    if tag == "Q":
        quads = [qpoly(-2, 0, 1), qpoly(-3, 0, 1), qpoly(1, 0, 1), qpoly(1, 1, 1)]
    elif tag == "Qi":
        # x^2 - d irreducible over Q(i) for d in {2, 3, 7}: (a+bi)^2 = d
        # forces ab = 0, and neither a^2 = d nor -b^2 = d has a solution
        quads = [K.poly([-2, 0, 1]), K.poly([-3, 0, 1]), K.poly([-7, 0, 1])]
    elif tag == "Qsqrt2":
        # (a+b*sqrt2)^2 = d needs ab = 0, a^2 = d or 2b^2 = d: none for 3, 5
        quads = [
            K.poly([-3, 0, 1]),
            K.poly([-5, 0, 1]),
            Poly([-K.gen, K.zero, K.one]),  # x^2 - sqrt2: norm -2 not a square
        ]
    else:  # Q(sqrt-3)
        quads = [K.poly([-2, 0, 1]), K.poly([-5, 0, 1])]
    pool = [(q if isinstance(q.coeffs[0], type(K.zero)) else K.poly(q.coeffs)) for q in quads]
    lin = Poly(
        [
            K.element([Fraction(rng.randint(-5, 5)) for _ in range(K.degree)]),
            K.one,
        ]
    )
    return pool + [lin]


def test_criterion_08_factorization_self_consistency():
    rng = random.Random(2028)
    fields = [
        (QQ, "Q"),
        (gaussian_field(), "Qi"),
        (sqrt2_field(), "Qsqrt2"),
        (sqrtm3_field(), "Qm3"),
    ]
    with Timer() as t:
        bad = 0
        for trial in range(500):
            K, tag = fields[trial % 4]
            pool = _known_irreducibles(K, tag, rng)
            picks = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 3))]
            prod = Poly([K.one])
            expected: dict = {}
            for q in picks:
                prod = prod * q
                expected[q.coeffs] = expected.get(q.coeffs, 0) + 1
            _, factors = factor_over_K(K, prod)
            got = {f.coeffs: m for f, m in factors}
            if got != expected:
                bad += 1
    ok = bad == 0
    _report(8, ok, f"500 products re-factored exactly over 4 fields, "
                   f"time={t.elapsed:.1f}s")
    assert bad == 0


def test_criterion_09_prolongation_structure():
    rng = random.Random(2029)
    with Timer() as t:
        bad = []
        for _ in range(100):
            m = rng.randint(1, 6)
            n = rng.randint(1, 24 // m)
            row = [Fraction(rng.randint(-9, 9)) for _ in range(m)]
            if row[0] == 0:
                row[0] = Fraction(3)
            g = CompanionPresentation.from_last_row(QQ, row)
            gp = prolong(g, n)
            big = companion_of(gp.char_poly)
            for k in range(1, m * n + 1):
                expected = row[(k - 1) // n] if (k - 1) % n == 0 else Fraction(0)
                if big.entry(m * n, k) != expected:
                    bad.append((row, n, k))
            if charpoly_of(big) != substitute_power(g.char_poly, n):
                bad.append((row, n, "charpoly"))
    ok = not bad
    _report(9, ok, f"entry law verified for 100 random prolongations, "
                   f"time={t.elapsed:.1f}s")
    assert not bad, bad[:3]


def test_criterion_10_eigenvalue_bookkeeping():
    rng = random.Random(2030)
    with Timer() as t:
        g = CompanionPresentation(QQ, qpoly(-36, 1))
        bad = []
        for n in (1, 2, 3, 4, 6):
            _, factors = factor_over_Q(substitute_power(qpoly(-36, 1), n))
            for f, _ in factors:
                if not eigenvalue_compatible(f, g, n):
                    bad.append(("factor rejected", f, n))
        rejected = 0
        trials = 0
        while trials < 100:
            q = random_irreducible(rng, 2, 12)
            n = rng.randint(1, 6)
            _, factors = factor_over_Q(substitute_power(qpoly(-36, 1), n))
            if any(f == q for f, _ in factors):
                continue
            trials += 1
            if eigenvalue_compatible(q, g, n):
                bad.append(("non-factor accepted", q, n))
            else:
                rejected += 1
    ok = not bad and rejected == 100
    _report(10, ok, f"all factors compatible, {rejected}/100 non-factors "
                    f"rejected, time={t.elapsed:.1f}s")
    assert not bad, bad[:3]
    assert rejected == 100
