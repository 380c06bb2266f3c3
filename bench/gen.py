"""Seeded task generators for the benchmark workloads.

Each generator returns a list of qrank batch tasks
({"command": ..., "payload": ...}); the same (workload, seed) always gives
the same list.  Random draws are stratified by the input properties the
engine's cost depends on (degree, whether the preconditions hold, whether
the constant term is a unit), with fixed counts per stratum, so that the
cost of a list varies little from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from sympy import Poly, isprime, symbols
from sympy.polys.numberfields.galoisgroups import galois_group

from ref import norm_factors, poly_key, valid

# the quadratic fields Q(t), t**2 = D, of the rank-ext workload
FIELDS = (-1, 2, -3)

# highly composite substitution exponents for the heavily splitting half
_HC = (24, 36, 48, 60, 72)

_x = symbols("x")


def rat(r) -> str:
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def field_json(D: int) -> dict:
    return {"min_poly": {"coeffs": [rat(-D), "0", "1"]}}


def _coeff_json(c):
    """A rational, or a pair (a, b) meaning a + b*t."""
    return [rat(a) for a in c] if isinstance(c, tuple) else rat(c)


def _key(coeffs) -> tuple:
    return poly_key([_coeff_json(c) for c in coeffs])


def _task(command: str, D: int | None, coeffs, **extra) -> dict:
    field = "Q" if D is None else field_json(D)
    poly = {"coeffs": [_coeff_json(c) for c in coeffs]}
    if command in ("rank", "reduct-rank"):
        payload = {"ring": field, "char_poly": poly}
    else:
        payload = {"field": field, "poly": poly}
    payload.update(extra)
    return {"command": command, "payload": payload}


def _norm(D: int | None, c) -> int:
    return c if D is None else c[0] ** 2 - D * c[1] ** 2


def reciprocal_unit(D: int | None, coeffs) -> bool:
    """Whether a root of P has a self-reciprocal minimal polynomial of even
    degree >= 4 over Q.  Such a root is a unit, so the power test's norm
    filter passes every odd prime, and the test factors x**p - alpha for
    every prime p up to a bound that the Voutier height floor makes large:
    on the seed one such quartic runs for more than 300 s."""
    for f in norm_factors(D, _key(coeffs)):
        c = f.all_coeffs()
        if f.degree() >= 4 and f.degree() % 2 == 0 and c[::-1] in (c, [-v for v in c]):
            return True
    return False


def symmetric_galois(coeffs: list[int]) -> bool:
    """Whether the Galois group of P over Q is the full symmetric group.
    Smaller groups (cyclic cubics, say) make P(x**n) split into many
    factors modulo every prime, and Zassenhaus recombination then takes
    from 0.5 s to over 10 s on the seed at degree 120."""
    f = Poly(coeffs[::-1], _x)
    return galois_group(f, by_name=True)[0].name == f"S{f.degree()}"


def _draw(draw, D: int | None, unit: int = 0, other: int = 0, invalid: int = 0) -> list:
    """Coefficient lists from draw(): `unit` and `other` meeting the
    engine's preconditions (by the sympy reference) with a unit and a
    non-unit constant term, and `invalid` not meeting them.  Draws with a
    reciprocal unit root are skipped; the cliffs workload holds them."""
    want = {"unit": unit, "other": other, "invalid": invalid}
    out = []
    while any(want.values()):
        coeffs = draw()
        if reciprocal_unit(D, coeffs):
            continue
        if not valid(D, _key(coeffs)):
            kind = "invalid"
        else:
            kind = "unit" if abs(_norm(D, coeffs[0])) == 1 else "other"
        if want[kind]:
            want[kind] -= 1
            out.append(coeffs)
    return out


def _draw_until(draw, accept):
    while True:
        coeffs = draw()
        if accept(coeffs):
            return coeffs


def _random_monic(rng: random.Random, degree: int, height: int) -> list[int]:
    coeffs = [rng.randint(-height, height) for _ in range(degree)] + [1]
    while coeffs[0] == 0:  # P(0) != 0: the companion matrix is invertible
        coeffs[0] = rng.randint(-height, height)
    return coeffs


def _random_prime(rng: random.Random, digits: int) -> int:
    return _draw_until(lambda: rng.randrange(10 ** (digits - 1), 10**digits) | 1, isprime)


def _k_pow(D: int, u: tuple, e: int) -> tuple:
    out = (1, 0)
    for _ in range(e):
        out = (out[0] * u[0] + D * out[1] * u[1], out[0] * u[1] + out[1] * u[0])
    return out


def rank_q(rng: random.Random) -> list[dict]:
    tasks = []
    # everyday inputs; reducible and cyclotomic draws expect validation_failed
    for degree in range(1, 7):
        draw = lambda: _random_monic(rng, degree, 3)
        # x - 1 and x + 1 are the only degree-1 draws with a unit constant.
        # Degrees 2 and 3 are drawn more often: the median latency falls
        # among them, and more samples there steady it.
        if degree == 1:
            strata = dict(other=75, invalid=8)
        else:
            strata = dict(unit=33, other=67, invalid=15) if degree <= 3 else dict(unit=22, other=45, invalid=15)
        tasks += [_task("rank", None, c) for c in _draw(draw, None, **strata)]
    # x - r, r a signed perfect power: multi-step worklists.  a and c are
    # squarefree and coprime, so e alone fixes the exponent structure.
    for e in (2, 3, 4, 6, 8, 12):
        for _ in range(15):
            a, c = _draw_until(lambda: rng.sample((1, 2, 3, 5, 6, 7), 2), lambda ac: math.gcd(*ac) == 1)
            r = Fraction(a, c) ** e * rng.choice((1, -1))
            tasks.append(_task("rank", None, [-r, 1]))
    # x - p*q with 7-8 digit primes: Pollard rho finishes quickly
    for _ in range(15):
        r = _random_prime(rng, rng.randint(7, 8)) * _random_prime(rng, 8)
        tasks.append(_task("rank", None, [-r, 1]))
    rng.shuffle(tasks)
    return tasks


def rank_ext(rng: random.Random) -> list[dict]:
    tasks = []
    small = lambda: (rng.randint(-2, 2), rng.randint(-2, 2))
    for D in FIELDS:
        for command in ("rank", "hereditary"):
            # the median latency falls between degree-2 `hereditary` draws
            # (below it) and degree-2 `rank` draws (above it); more of the
            # former put it inside their cluster, where it moves less
            other2 = 32 if command == "hereditary" else 24
            for degree, strata in (
                (1, dict(other=14, invalid=4)),
                (2, dict(unit=4, other=other2, invalid=5)),
                (3, dict(unit=5, other=7, invalid=5)),
            ):
                draw = lambda: [_draw_until(small, any)] + [small() for _ in range(degree - 1)] + [(1, 0)]
                tasks += [_task(command, D, c) for c in _draw(draw, D, **strata)]
            # obstructed: x - beta**p and x + 4*beta**4, beta neither 0 nor a unit
            for p in (2, 3, 4) * 4:
                beta = _draw_until(small, lambda b: abs(_norm(D, b)) > 1)
                root = _k_pow(D, beta, p)
                if p == 4:
                    root = (-4 * root[0], -4 * root[1])
                tasks.append(_task(command, D, [(-root[0], -root[1]), (1, 0)]))
    rng.shuffle(tasks)
    return tasks


def substitute_q(rng: random.Random) -> list[dict]:
    # heavy splitting: x**n - 1 (cyclotomic factors), then x**n - r with
    # r = sign * b**k, two for each command, n, k and sign
    tasks = [_task("oracle", None, [-1, 1], n_list=[n]) for n in _HC + (120,)]
    for n in _HC:
        for command, k, sign, _ in itertools.product(("oracle", "reduct-rank"), (2, 3, 4, 6), (1, -1), range(2)):
            r = sign * rng.choice((2, 3, 5, 6, 7)) ** k
            extra = {"n_list": [n]} if command == "oracle" else {"n": n}
            tasks.append(_task(command, None, [-r, 1], **extra))
    # few factors: irreducible P of degree 2-4 with symmetric Galois group,
    # P(x**n) of degree 24-48 in equal steps.  Kept below the heavy half,
    # whose structured cost then sets the tail; sympy's reference also
    # takes 0.1-0.4 s at degree 96-120, more than the engine.
    for degree in (2, 3, 4):
        targets = [24 + 24 * j // 15 for j in range(16)] * 8
        draw = lambda: _random_monic(rng, degree, 3)
        for i, target in enumerate(targets):
            coeffs = _draw_until(lambda: _draw(draw, None, other=1)[0], symmetric_galois)
            n = max(round(target / degree), -(-24 // degree))
            if i % 2:
                tasks.append(_task("oracle", None, coeffs, n_list=[n]))
            else:
                tasks.append(_task("reduct-rank", None, coeffs, n=n))
    rng.shuffle(tasks)
    return tasks


def cliffs(rng: random.Random) -> list[dict]:
    """Inputs on which the seed engine's time is unbounded or swings by
    seconds: most pass the per-task time limit.  Not in BENCHMARK.json,
    whose workloads must run without failures."""
    tasks = []
    # x - p*q with >= 24-digit primes: factor_integer runs Pollard rho unbounded
    for _ in range(3):
        r = _random_prime(rng, 24) * _random_prime(rng, 25)
        tasks.append(_task("rank", None, [-r, 1]))
    # reciprocal units: the power test factors x**p - alpha for many primes
    for degree in (4, 4, 6):
        coeffs = _draw_until(lambda: _random_monic(rng, degree, 3), lambda c: reciprocal_unit(None, c))
        tasks.append(_task("rank", None, coeffs))
    # irreducible cubics with a cyclic Galois group, at degree 120
    for _ in range(3):
        coeffs = _draw_until(
            lambda: _random_monic(rng, 3, 3),
            lambda c: valid(None, _key(c)) and not symmetric_galois(c),
        )
        tasks.append(_task("oracle", None, coeffs, n_list=[40]))
    return tasks


WORKLOADS = {"rank-q": rank_q, "rank-ext": rank_ext, "substitute-q": substitute_q, "cliffs": cliffs}


def tasks_for(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
