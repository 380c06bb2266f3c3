"""Independent reference verdicts from sympy, and the report checker.

Runs only in the benchmark's parent process; the engine's child process
never imports this module.  Factorizations are memoized per
(field, polynomial, substitution exponent), so each distinct question is
put to sympy once per run, and the factor degrees can be kept from run to
run in a file (load, save): sympy's answer does not depend on the engine,
and many questions recur from seed to seed.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache

from sympy import Integer, Poly, sqrt, symbols
from sympy.polys.domains import QQ

_x = symbols("x")


def field_key(field) -> int | None:
    """None for Q, else D for Q(t) with t**2 = D (the generators' fields)."""
    if field in ("Q", "QQ", None):
        return None
    m0, m1, m2 = field["min_poly"]["coeffs"]
    if (m1, m2) != ("0", "1"):
        raise ValueError(f"unsupported field {field!r}")
    return -int(m0)


def poly_key(coeffs) -> tuple:
    """Hashable form of a payload polynomial, low-to-high."""
    return tuple(tuple(c) if isinstance(c, list) else (c,) for c in coeffs)


@lru_cache(maxsize=None)
def _domain(D: int | None):
    return QQ if D is None else QQ.algebraic_field(sqrt(Integer(D)))


def _element(D: int | None, c: tuple):
    """c = (a,) or (a, b) as rational strings, meaning a + b*sqrt(D)."""
    a, b = (Fraction(v) for v in (c + ("0",))[:2])
    if D is None:
        return QQ(a.numerator, a.denominator)
    return _domain(D)([QQ(b.numerator, b.denominator), QQ(a.numerator, a.denominator)])


def _sympy_poly(D: int | None, coeffs: tuple, n: int) -> Poly:
    dom = _domain(D)
    high_to_low = []
    for c in reversed(coeffs):
        high_to_low.append(_element(D, c))
        high_to_low.extend([dom.zero] * (n - 1))
    return Poly.from_list(high_to_low[: len(high_to_low) - (n - 1)], _x, domain=dom)


_degrees: dict[str, tuple[int, ...]] = {}


def factor_degrees(D: int | None, coeffs: tuple, n: int) -> tuple[int, ...]:
    """Sorted degrees, with multiplicity, of the irreducible factors of
    P(x**n) over the field."""
    key = json.dumps([D, coeffs, n])
    if key not in _degrees:
        _, factors = _sympy_poly(D, coeffs, n).factor_list()
        _degrees[key] = tuple(sorted(f.degree() for f, m in factors for _ in range(m)))
    return _degrees[key]


def load(path) -> None:
    """Take the factor degrees that an earlier run saved to path, if any."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            _degrees.update((k, tuple(v)) for k, v in json.load(fh).items())


def save(path) -> None:
    with open(f"{path}.tmp", "w", encoding="utf-8") as fh:
        json.dump(_degrees, fh)
    os.replace(f"{path}.tmp", path)


@lru_cache(maxsize=None)
def norm_factors(D: int | None, coeffs: tuple) -> tuple[Poly, ...]:
    """Irreducible factors over Q of the norm of P from the field to Q;
    their roots are the roots of P and all their conjugates."""
    P = _sympy_poly(D, coeffs, 1)
    norm = P if D is None else P.norm()
    return tuple(f for f, _ in norm.factor_list()[1])


def valid(D: int | None, coeffs: tuple) -> bool:
    """Whether P meets the engine's preconditions: P(0) != 0, P
    irreducible over the field, and no root of P a root of unity."""
    if not any(Fraction(v) for v in coeffs[0]):
        return False
    if len(factor_degrees(D, coeffs, 1)) != 1:
        return False
    return not any(f.is_cyclotomic for f in norm_factors(D, coeffs))


def check(task: dict, report: dict) -> str | None:
    """None if the report agrees with sympy, else what differs."""
    command, payload = task["command"], task["payload"]
    if command in ("rank", "reduct-rank"):
        D, coeffs = field_key(payload["ring"]), payload["char_poly"]["coeffs"]
    else:
        D, coeffs = field_key(payload["field"]), payload["poly"]["coeffs"]
    key = poly_key(coeffs)
    status = report.get("status")
    if command != "oracle" and not valid(D, key):
        return None if status == "validation_failed" else f"status {status}, expected validation_failed"
    if status != "ok":
        return f"status {status}, expected ok"
    result = report["result"]
    if command == "oracle":
        want = [len(factor_degrees(D, key, n)) for n in payload["n_list"]]
        return None if result["counts"] == want else f"counts {result['counts']}, expected {want}"
    if command == "reduct-rank":
        want = list(factor_degrees(D, key, payload["n"]))
        got = result["degree_spectrum"]
        if result["rank"] != len(want) or got != want:
            return f"rank {result['rank']} spectrum {got}, expected {len(want)} {want}"
        return None
    hf = result["witness"] if command == "rank" else result
    rank = result["rank"] if command == "rank" else len(result["factors"])
    want = [len(factor_degrees(D, key, k * hf["N"])) for k in (1, 2)]
    if want != [rank, rank]:
        return f"rank {rank} at N={hf['N']}, factor counts at N and 2N are {want}"
    return None
