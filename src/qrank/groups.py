"""Definable-group presentations by companion matrices over the
quasiendomorphism field: validation, prolongation to compositional
roots, reduct ranks, and the full-signature rank via hereditary
factor counts.
"""

from __future__ import annotations

from . import config
from ._record import Record, set_field
from .errors import (
    NotMonic,
    ValidationFailed,
    ZeroConstantTerm,
    ZeroPolynomial,
)
from .hereditary import _check, _worklist, hereditary_factorization
from .numfield import NFElement, NumberField
from .poly import (
    CompanionMatrix,
    Poly,
    charpoly_of,
    companion_of,
    divides,
    divrem,
    gcd,
    substitute_power,
)

AMBIENTS = ("multiplicative", "cm_elliptic")

UNDEFINED = "undefined"


class CompanionPresentation(Record):
    """A group cut out by (sigma g, ..., sigma^m g) = M * (g, ..., sigma^(m-1) g)
    for the companion matrix M of char_poly over the coefficient field.

    The ambient tag records whether the group lives in the multiplicative
    group or a CM elliptic curve; the computation depends only on the
    ring and the characteristic polynomial.
    """

    __slots__ = ("ring", "char_poly", "ambient")

    def __init__(
        self, ring: NumberField, char_poly: Poly, ambient: str = "multiplicative"
    ):
        P = char_poly
        if P.is_zero() or P.degree < 1:
            raise NotMonic("characteristic polynomial must have degree >= 1")
        if not all(isinstance(c, NFElement) for c in P.coeffs):
            P = ring.poly(P.coeffs)
        if not P.is_monic():
            raise NotMonic("characteristic polynomial must be monic")
        if P.coeffs[0] == 0:
            raise ZeroConstantTerm(
                "P(0) = 0: the companion matrix is not invertible"
            )
        if ambient not in AMBIENTS:
            raise ValueError(f"unknown ambient tag {ambient!r}")
        set_field(self, "ring", ring)
        set_field(self, "char_poly", P)
        set_field(self, "ambient", ambient)

    @property
    def size(self) -> int:
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


class ValidationReport(Record, hidden=("shift",)):
    """Necessary conditions for minimality and one-basedness; the
    underlying facts are one-directional, so no sufficiency is claimed.
    shift is the (s, shifted P, norm) at which the Trager shift proved P,
    of degree >= 2, irreducible, for the worklist's root to flatten at;
    None otherwise.  It is neither compared, printed nor serialized."""

    __slots__ = ("irreducible_over_R", "root_of_unity_eigenvalue", "shift")

    def __init__(
        self,
        irreducible_over_R: bool,
        root_of_unity_eigenvalue: bool,
        shift: tuple[int, Poly, Poly] | None = None,
    ):
        set_field(self, "irreducible_over_R", irreducible_over_R)
        set_field(self, "root_of_unity_eigenvalue", root_of_unity_eigenvalue)
        set_field(self, "shift", shift)

    @property
    def minimal_necessary(self) -> bool:
        return self.irreducible_over_R

    @property
    def one_based_necessary(self) -> bool:
        return not self.root_of_unity_eigenvalue

    @property
    def passes(self) -> bool:
        return self.minimal_necessary and self.one_based_necessary


class RankReport(Record):
    __slots__ = ("rank", "method", "witness")

    def __init__(self, rank: int | str, method: str, witness: object = None):
        set_field(self, "rank", rank)  # a natural number, or UNDEFINED
        set_field(self, "method", method)  # hereditary_factor_count | fixed_field_rule
        set_field(self, "witness", witness)


def validate(g: CompanionPresentation) -> ValidationReport:
    """Check the eigenvalue conditions: characteristic polynomial
    irreducible over the ring, and no root-of-unity eigenvalue.  The
    check is hereditary._check, the one the hereditary entry points run:
    P is held to the degree cap before it is factored, both tests read
    one norm of P at shift 0, and the shift that proves P irreducible is
    kept in the report."""
    return ValidationReport(*_check(g.ring, g.char_poly))


def prolong(g: CompanionPresentation, n: int) -> CompanionPresentation:
    """Presentation of the same group for the n-th compositional root:
    the companion matrix of P(x**n), with the structural law that entry
    (mn, (j-1)n+1) is the original last-row entry c_j and the rest of
    the last row vanishes.  substitute_power holds the degree m*n to the
    degree cap before P(x**n) is built."""
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


def rank_in_reduct(g: CompanionPresentation, n: int) -> int:
    """Lascar rank of the group in the signature of the n-th
    compositional root: the number of irreducible factors (with
    multiplicity) of P(x**n) over the ring, which is the length of
    subgroup_degree_spectrum(g, n)."""
    return len(subgroup_degree_spectrum(g, n))


def qacfa_rank(g: CompanionPresentation) -> RankReport:
    """Full-signature Lascar rank: the number of hereditarily
    irreducible hereditary factors of the characteristic polynomial,
    with the hereditary factorization attached as witness."""
    _require_valid(g)
    witness = hereditary_factorization(g.ring, g.char_poly)
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
    equivalently the squarefree part of candidate, candidate divided by
    gcd(candidate, candidate'), divides P(x**n), which substitute_power
    holds to the degree cap."""
    if candidate.is_zero():
        raise ZeroPolynomial("candidate characteristic polynomial is zero")
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if not all(isinstance(c, NFElement) for c in candidate.coeffs):
        candidate = g.ring.poly(candidate.coeffs)
    candidate = candidate.monic()
    sqf = divrem(candidate, gcd(candidate, candidate.derivative()))[0]
    return divides(sqf, substitute_power(g.char_poly, n))


def subgroup_degree_spectrum(g: CompanionPresentation, n: int) -> list[int]:
    """Degrees (with multiplicity, sorted) of the irreducible factors of
    P(x**n) over the ring: the possible dimensions of minimal
    subgroups definable in the n-th root signature.  The singleton
    [deg P * n] means no proper minimal subgroup exists at this n.

    They come from the hereditary worklist aimed at n.  By Capelli's
    criterion (Lang, Algebra, VI section 9; Schinzel, Polynomials with
    special regard to reducibility, section 2.1), for Q irreducible over
    K with a root alpha, Q(x**m) is reducible exactly when alpha is a
    p-th power in K(alpha) for some prime p dividing m, or 4 divides m
    and alpha lies in -4*K(alpha)**4.  The worklist splits a factor Q
    reached at acc only through such an obstruction for m = n/acc, so
    it stops at a factorization P(x**N) = prod F_i with N dividing n in
    which every F_i(x**(n/N)) is irreducible, and the spectrum is the
    degrees of the F_i times n/N.

    P is validated first (validate holds it to the degree cap), then
    deg P * n is held to the cap, although at most P(x**N) is built.
    The worklist's root is flattened at the shift that validation proved
    P irreducible at.  No prime cap is read: only the primes dividing n
    are tested."""
    if n < 1:
        raise ValueError(f"reduct index must be >= 1, got {n}")
    report = _require_valid(g)
    P = g.char_poly
    config.check_degree(P.degree, n)
    hf = _worklist(g.ring, P, n, report.shift)
    return sorted(f.degree * (n // hf.N) for f in hf.factors)
