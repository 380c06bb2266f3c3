"""Runtime budgets, overridable through environment variables.

QRANK_MAX_DEGREE caps the degree of any substituted polynomial the engine
will factor (hereditary search, reduct ranks, oracles).  QRANK_MAX_PRIME
caps the prime search of the power-obstruction test.  Exceeding either is
always a loud BudgetExceeded, never a silent pass.
"""

import os

DEFAULT_MAX_DEGREE = 256
DEFAULT_MAX_PRIME = 10000


def max_degree(override: int | None = None) -> int:
    if override is not None:
        return override
    return int(os.environ.get("QRANK_MAX_DEGREE", DEFAULT_MAX_DEGREE))


def max_prime() -> int:
    return int(os.environ.get("QRANK_MAX_PRIME", DEFAULT_MAX_PRIME))
