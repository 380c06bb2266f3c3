"""Definable-group presentations by companion matrices over the
quasiendomorphism field: validation, prolongation to compositional
roots, reduct ranks, and the full-signature rank via hereditary
factor counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config
from .errors import (
    BudgetExceeded,
    NotMonic,
    ValidationFailed,
    ZeroConstantTerm,
    ZeroPolynomial,
)
from .hereditary import has_root_of_unity_root, hereditary_factorization
from .numfield import NFElement, NumberField, factor_over_K, is_irreducible
from .poly import (
    CompanionMatrix,
    Poly,
    charpoly_of,
    companion_of,
    divides,
    squarefree_part,
    substitute_power,
)

AMBIENTS = ("multiplicative", "cm_elliptic")

UNDEFINED = "undefined"
INFINITE = "infinite"


@dataclass(frozen=True)
class CompanionPresentation:
    """A group cut out by (sigma g, ..., sigma^m g) = M * (g, ..., sigma^(m-1) g)
    for the companion matrix M of char_poly over the coefficient field.

    The ambient tag records whether the group lives in the multiplicative
    group or a CM elliptic curve; the computation depends only on the
    ring and the characteristic polynomial.
    """

    ring: NumberField
    char_poly: Poly
    ambient: str = "multiplicative"

    def __post_init__(self):
        P = self.char_poly
        if P.is_zero() or P.degree < 1:
            raise NotMonic("characteristic polynomial must have degree >= 1")
        if not all(isinstance(c, NFElement) for c in P.coeffs):
            P = self.ring.poly(P.coeffs)
            object.__setattr__(self, "char_poly", P)
        if not P.is_monic():
            raise NotMonic("characteristic polynomial must be monic")
        if P.coeffs[0] == 0:
            raise ZeroConstantTerm(
                "P(0) = 0: the companion matrix is not invertible"
            )
        if self.ambient not in AMBIENTS:
            raise ValueError(f"unknown ambient tag {self.ambient!r}")

    @property
    def size(self) -> int:
        return self.char_poly.degree

    @property
    def sigma_degree(self) -> int:
        return self.char_poly.degree

    def matrix(self) -> CompanionMatrix:
        return companion_of(self.char_poly)

    @staticmethod
    def from_last_row(
        ring: NumberField, last_row, ambient: str = "multiplicative"
    ) -> "CompanionPresentation":
        row = tuple(
            c if isinstance(c, NFElement) else ring.from_rational(c)
            for c in last_row
        )
        P = charpoly_of(CompanionMatrix(len(row), row))
        return CompanionPresentation(ring, P, ambient)


@dataclass(frozen=True)
class ValidationReport:
    """Necessary conditions for minimality and one-basedness; the
    underlying facts are one-directional, so no sufficiency is claimed."""

    irreducible_over_R: bool
    root_of_unity_eigenvalue: bool

    @property
    def minimal_necessary(self) -> bool:
        return self.irreducible_over_R

    @property
    def one_based_necessary(self) -> bool:
        return not self.root_of_unity_eigenvalue

    @property
    def passes(self) -> bool:
        return self.minimal_necessary and self.one_based_necessary


@dataclass(frozen=True)
class RankReport:
    rank: int | str  # a natural number, UNDEFINED, or INFINITE
    method: str  # hereditary_factor_count | fixed_field_rule | degree_ratio_bound_only
    witness: object = None


def validate(g: CompanionPresentation) -> ValidationReport:
    """Check the eigenvalue conditions: characteristic polynomial
    irreducible over the ring, and no root-of-unity eigenvalue."""
    R, P = g.ring, g.char_poly
    return ValidationReport(
        irreducible_over_R=is_irreducible(R, P),
        root_of_unity_eigenvalue=has_root_of_unity_root(R, P),
    )


def prolong(g: CompanionPresentation, n: int) -> CompanionPresentation:
    """Presentation of the same group for the n-th compositional root:
    the companion matrix of P(x**n), with the structural law that entry
    (mn, (j-1)n+1) is the original last-row entry c_j and the rest of
    the last row vanishes."""
    if n < 1:
        raise ValueError(f"prolongation exponent must be >= 1, got {n}")
    if n == 1:
        return g
    m = g.size
    new_poly = substitute_power(g.char_poly, n)
    out = CompanionPresentation(g.ring, new_poly, g.ambient)
    old_row = g.matrix().last_row
    new_row = out.matrix().last_row
    for k in range(m * n):
        j, r = divmod(k, n)
        expected = old_row[j] if r == 0 else g.ring.zero
        if new_row[k] != expected:
            raise RuntimeError(
                f"prolongation entry law violated at column {k + 1}"
            )
    return out


def _require_valid(g: CompanionPresentation) -> ValidationReport:
    report = validate(g)
    if not report.passes:
        reasons = []
        if not report.irreducible_over_R:
            reasons.append("characteristic polynomial reducible over the ring")
        if report.root_of_unity_eigenvalue:
            reasons.append("a root of unity is an eigenvalue")
        raise ValidationFailed("; ".join(reasons))
    return report


def rank_in_reduct(
    g: CompanionPresentation, n: int, degree_cap: int | None = None
) -> int:
    """Lascar rank of the group in the signature of the n-th
    compositional root: the number of irreducible factors (with
    multiplicity) of P(x**n) over the ring, which is the length of
    subgroup_degree_spectrum(g, n)."""
    return len(subgroup_degree_spectrum(g, n, degree_cap))


def qacfa_rank(
    g: CompanionPresentation, degree_cap: int | None = None
) -> RankReport:
    """Full-signature Lascar rank: the number of hereditarily
    irreducible hereditary factors of the characteristic polynomial,
    with the hereditary factorization attached as witness."""
    _require_valid(g)
    witness = hereditary_factorization(
        g.ring, g.char_poly, degree_cap=degree_cap
    )
    return RankReport(
        rank=len(witness.factors),
        method="hereditary_factor_count",
        witness=witness,
    )


def eigenvalue_compatible(
    candidate: Poly, g: CompanionPresentation, n: int
) -> bool:
    """Whether every eigenvalue of a size-r matrix with characteristic
    polynomial `candidate` powers (by n) into an eigenvalue of M:
    equivalently squarefree_part(candidate) divides P(x**n)."""
    if candidate.is_zero():
        raise ZeroPolynomial("candidate characteristic polynomial is zero")
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if not all(isinstance(c, NFElement) for c in candidate.coeffs):
        candidate = g.ring.poly(candidate.coeffs)
    sqf = squarefree_part(candidate)
    return divides(sqf, substitute_power(g.char_poly, n))


def subgroup_degree_spectrum(
    g: CompanionPresentation, n: int, degree_cap: int | None = None
) -> list[int]:
    """Degrees (with multiplicity, sorted) of the irreducible factors of
    P(x**n) over the ring: the possible dimensions of minimal
    subgroups definable in the n-th root signature.  The singleton
    {m*n} means no proper minimal subgroup exists at this n."""
    if n < 1:
        raise ValueError(f"reduct index must be >= 1, got {n}")
    _require_valid(g)
    max_deg = config.max_degree(degree_cap)
    if g.size * n > max_deg:
        raise BudgetExceeded(
            f"P(x**{n}) would have degree {g.size * n}, cap is {max_deg}"
        )
    _, factors = factor_over_K(g.ring, substitute_power(g.char_poly, n))
    out: list[int] = []
    for f, m in factors:
        out.extend([f.degree] * m)
    return sorted(out)
