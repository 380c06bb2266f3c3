"""Degree-ratio algebra for algebraic group correspondences and the
rank rules for fixed fields of the named automorphisms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, perfect_power_exponent
from .errors import (
    FrobeniusInCharZero,
    NonPositive,
    RatioOne,
    ZeroIndex,
)
from .groups import UNDEFINED, RankReport


@dataclass(frozen=True)
class CorrespondenceDegrees:
    """Degrees of the two finite dominant projections of a group
    correspondence; the ratio deg_rho/deg_pi is the multiplicative
    invariant everything else is built from."""

    deg_pi: int
    deg_rho: int

    def __post_init__(self):
        if self.deg_pi < 1 or self.deg_rho < 1:
            raise NonPositive("projection degrees must be >= 1")


@dataclass(frozen=True)
class FixedFieldQuery:
    """Fixed field of sigma_{q0} composed with the m-th inverse
    Frobenius power, in the given characteristic (0 or a prime)."""

    q0: Fraction
    m: int
    characteristic: int

    def __post_init__(self):
        object.__setattr__(self, "q0", Fraction(self.q0))
        if self.q0 == 0:
            raise ZeroIndex("automorphism index q0 must be nonzero")
        if self.characteristic != 0 and not is_prime(self.characteristic):
            raise NonPositive(
                f"characteristic must be 0 or prime, got {self.characteristic}"
            )


def degree_ratio(d: CorrespondenceDegrees) -> Fraction:
    return Fraction(d.deg_rho, d.deg_pi)


def combine(r: Fraction, s: Fraction) -> Fraction:
    """Degree ratio of a product or composition of correspondences."""
    r, s = Fraction(r), Fraction(s)
    if r <= 0 or s <= 0:
        raise NonPositive("degree ratios must be positive")
    return r * s


def subgroup_constraint(x: Fraction, m: int, y: Fraction, n: int) -> bool:
    """Whether ratios x (sigma-degree m) and y (tau-degree n) can belong
    to a subgroup pair: exactly when x**m = y**n."""
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise NonPositive("degree ratios must be positive")
    if m < 1 or n < 1:
        raise NonPositive("degrees must be >= 1")
    return x**m == y**n


def rationality_exponent(x0: Fraction) -> int:
    """The greatest S for which the S-th root of x0 is rational (the gcd
    of the prime exponents of x0, found without factoring)."""
    x0 = Fraction(x0)
    if x0 <= 0:
        raise NonPositive(f"need x0 > 0, got {x0}")
    if x0 == 1:
        raise RatioOne("x0 = 1 has rational roots of every order")
    return perfect_power_exponent(x0)


def rank_bound_from_ratio(x0: Fraction) -> int | None:
    """Upper bound on the full-signature rank from the degree ratio;
    absent when the ratio is 1 and the bound does not apply.

    The bound need not be attained: x - 64 has rank 4, while the bound
    for x0 = 64 is 6.  x**6 - 64 = (x - 2)(x + 2)(x**2 - 2x + 4)
    (x**2 + 2x + 4), and x**N - 64 has at most 4 factors at every N."""
    x0 = Fraction(x0)
    if x0 <= 0:
        raise NonPositive(f"need x0 > 0, got {x0}")
    if x0 == 1:
        return None
    return rationality_exponent(x0)


def fixed_field_rank(q: FixedFieldQuery) -> RankReport:
    """Rank of the fixed field of sigma_{q0} * Phi^{-m}.

    m = 0 names the plain fixed field, whose rank is undefined (an
    infinite forking chain runs through the lattice of named fixed
    fields); m != 0 needs positive characteristic and has rank |m|.
    """
    if q.m == 0:
        return RankReport(rank=UNDEFINED, method="fixed_field_rule")
    if q.characteristic == 0:
        raise FrobeniusInCharZero(
            "Frobenius powers need positive characteristic"
        )
    return RankReport(rank=abs(q.m), method="fixed_field_rule")


def fixed_field_subfield(q: Fraction, q_prime: Fraction) -> bool:
    """Whether the fixed field of sigma_q sits inside that of
    sigma_{q'}: exactly when q'/q is a nonzero integer."""
    q, q_prime = Fraction(q), Fraction(q_prime)
    if q == 0 or q_prime == 0:
        raise ZeroIndex("automorphism indices must be nonzero")
    return (q_prime / q).denominator == 1


def intersection_degree(q: Fraction, m: int) -> int:
    """Degree of the intersection of the algebraic closure of the fixed
    field of sigma_q with that of sigma_{mq}: the unique degree-m
    extension, so the answer is m itself."""
    q = Fraction(q)
    if q == 0:
        raise ZeroIndex("automorphism index must be nonzero")
    if m < 1:
        raise NonPositive(f"extension degree must be >= 1, got {m}")
    return m
