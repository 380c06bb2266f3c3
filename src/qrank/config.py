"""Runtime budgets, set through environment variables.

QRANK_MAX_DEGREE caps the degree of every polynomial the engine factors
or builds: the defining polynomial of an input ring, before its
irreducibility check; P itself, before its first factorization
(validation, hereditary search); and every P(x**n), which
poly.substitute_power checks before it builds it (hereditary search,
power test, prolongation, oracles, eigenvalue compatibility).  The
hereditary worklist also bounds P(x**acc) before each split and before
its lift, and the power test bounds x**p - alpha and, before it factors
that over L = K(alpha), its Trager norm of degree p * [L:Q].  Reduct
ranks check deg P * n, though they build at most P(x**N) with N
dividing n.  check_degree is the one place that reads it.
QRANK_MAX_PRIME caps the height bound of the power-obstruction test in
the hereditary search, which only a unit root needs; a non-unit tests
only the primes dividing the exponent read off its minimal polynomial,
and reduct ranks only the primes dividing n, with no cap.
Exceeding either is always a loud BudgetExceeded, never a silent pass; a
value that is not an integer >= 1 is a ParseError naming the variable.
"""

import os

from .errors import BudgetExceeded, ParseError

DEFAULT_MAX_DEGREE = 256
DEFAULT_MAX_PRIME = 10000


def _positive_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(f"{name} must be an integer >= 1, got {raw!r}")
    return value


def max_degree() -> int:
    return _positive_int("QRANK_MAX_DEGREE", DEFAULT_MAX_DEGREE)


def max_prime() -> int:
    return _positive_int("QRANK_MAX_PRIME", DEFAULT_MAX_PRIME)


def check_degree(m: int, n: int) -> None:
    """BudgetExceeded when f(x**n), for f of degree m, would pass the
    degree cap; n = 1 checks f itself.  The message names the degrees,
    not f, which may be P or the x**n - b of the power test."""
    cap = max_degree()
    if m * n > cap:
        raise BudgetExceeded(f"degree {m * n} ({m} * {n}) is past the cap {cap}")
