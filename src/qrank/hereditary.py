"""Hereditary irreducibility: root-of-unity detection, the power
obstruction test, and the worklist that factors P(x**N) into factors
that stay irreducible under every further substitution x -> x**n.

The obstruction test decides whether x**n - alpha can ever become
reducible (alpha a root of the factor under test): by the radical
irreducibility criterion this happens only if alpha is a p-th power in
K(alpha) for some prime p, or alpha lies in -4*K(alpha)**4.  The primes
that need testing are bounded by height(alpha) / h_min, where h_min is
a proven lower bound for heights of candidate roots; elements of
degree 1 are handled by exact integer exponent arithmetic instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .arith import (
    perfect_power_exponent,
    primes_upto,
    rational_nth_root,
    totients_upto,
)
from .errors import (
    BudgetExceeded,
    NotIrreducible,
    RootOfUnity,
    ZeroConstantTerm,
    ZeroPolynomial,
)
from .numfield import (
    NumberField,
    Obstruction,
    factor_over_K,
    flatten,
    in_minus4_fourth_powers,
    is_irreducible,
    minimal_polynomial,
    pth_root_in_field,
    _to_primitive_int,
    mahler_measure_upper,
)
from .poly import Poly, gcd, poly_key, pow_mod, substitute_power

# Height floor constants, all rounded down so prime bounds round up.
_LOG_2_DOWN = 0.6931  # heights of rationals other than 0, +-1
_HALF_LOG_GOLDEN_DOWN = 0.2406  # degree-2 minimum: (1/2) log((1+sqrt5)/2)
_LOG_SMYTH_DOWN = 0.2811  # log of the real root of x^3 - x - 1


def has_root_of_unity_root(K: NumberField, P: Poly) -> bool:
    """Whether some root of P is a root of unity.

    A root of unity of order n among the roots forces
    phi(n) <= deg(P) * [K:Q], hence n <= 2 * (deg * [K:Q])**2; each
    candidate order is tested by gcd(P, x**n - 1) over K.
    """
    if P.is_zero():
        raise ZeroPolynomial("root-of-unity test on the zero polynomial")
    if P.degree <= 0:
        return False
    D = P.degree * K.degree
    Pm = P.monic()
    x = K.poly([0, 1])
    one = Poly([K.one])
    phi = totients_upto(2 * D * D)
    for n in range(1, 2 * D * D + 1):
        if phi[n] > D:
            continue
        h = pow_mod(x, n, Pm) - one
        if h.is_zero():
            return True
        if gcd(Pm, h).degree > 0:
            return True
    return False


@dataclass(frozen=True)
class PowerTestRecord:
    """Outcome of the full obstruction scan for one irreducible factor."""

    prime_bound: int
    primes_tested: tuple[int, ...]
    minus_four_tested: bool
    obstruction: Obstruction | None


@dataclass(frozen=True)
class HereditaryCertificate:
    """Per-factor evidence.

    For an irreducible verdict: every prime up to prime_bound was tested
    (the listed ones needed a field computation) and the minus-four test
    failed.  For an obstructed verdict the witnessed split of
    factor(x**e) is stored.  The lift exponent says which power of x
    turned the tested base factor into the reported one; heredity is
    preserved by that substitution.
    """

    factor: Poly
    verdict: str  # "hereditarily_irreducible" | "obstructed"
    prime_bound: int
    primes_tested: tuple[int, ...]
    minus_four_tested: bool = True
    obstruction: Obstruction | None = None
    witnessed_split: tuple[Poly, ...] | None = None
    base_factor: Poly | None = None
    lift_exponent: int = 1


@dataclass(frozen=True)
class HereditaryFactorization:
    """P(x**N) = product of hereditarily irreducible factors over K."""

    field: NumberField
    input: Poly
    N: int
    factors: tuple[Poly, ...]
    certificates: tuple[HereditaryCertificate, ...]


def _reciprocal_int_poly(ints: list[int]) -> bool:
    rev = list(reversed(ints))
    return rev == ints or rev == [-c for c in ints]


def _voutier_floor(d: int) -> float:
    v = (math.log(math.log(d)) / math.log(d)) ** 3 / (4 * d)
    return v * (1 - 1e-9)


def _height_floor(dL: int, deg_alpha: int, alpha_reciprocal: bool) -> float:
    """Lower bound for the height of any non-torsion beta in L whose
    p-th power could be alpha.

    Such beta generates a field between Q(alpha) and L, so its degree is
    a multiple of deg(alpha) dividing [L:Q].  Degree 1 gives log 2,
    degree 2 the golden-ratio minimum.  An irreducible polynomial of odd
    degree >= 3 is never self-reciprocal, and a reciprocal beta would
    force alpha reciprocal, so Smyth's nonreciprocal minimum applies to
    every remaining degree unless alpha is reciprocal and the degree is
    even; only that case falls back to the generic Lehmer-type floor.
    """
    best = math.inf
    for j in range(1, dL // deg_alpha + 1):
        d = deg_alpha * j
        if dL % d:
            continue
        if d == 1:
            b = _LOG_2_DOWN
        elif d == 2:
            b = _HALF_LOG_GOLDEN_DOWN
        elif d % 2 == 1 or not alpha_reciprocal:
            b = _LOG_SMYTH_DOWN / d
        else:
            b = _voutier_floor(d)
        best = min(best, b)
    return best


def _rational_power_record(r: Fraction) -> PowerTestRecord:
    """Exact obstruction scan for a rational root: r can be a p-th power
    only for primes p dividing the perfect-power exponent g of |r|."""
    assert r not in (0, 1, -1)
    g = perfect_power_exponent(abs(r))
    tested = []
    for p in primes_upto(g):
        if g % p:
            continue
        tested.append(p)
        if r < 0 and p % 2 == 0:
            continue
        if rational_nth_root(r, p) is not None:
            return PowerTestRecord(g, tuple(tested), False, Obstruction.pth_power(p))
    obstruction = None
    if r < 0 and rational_nth_root(-r / 4, 4) is not None:
        obstruction = Obstruction.minus_four()
    return PowerTestRecord(g, tuple(tested), True, obstruction)


def _power_test(K: NumberField, Q: Poly) -> PowerTestRecord:
    """Obstruction scan for an irreducible factor Q over K; preconditions
    (irreducible, Q(0) != 0, no root-of-unity roots) are the caller's."""
    cap = config.max_prime()
    ext = flatten(K, Q, trusted=True)
    L, alpha = ext.field, ext.alpha
    if L.degree == 1:
        return _rational_power_record(alpha.as_rational())

    mp = minimal_polynomial(alpha)
    ints = _to_primitive_int(mp)
    h_up = mahler_measure_upper(ints) / mp.degree
    h_min = _height_floor(L.degree, mp.degree, _reciprocal_int_poly(ints))
    bound = max(1, math.ceil(h_up / h_min))
    if bound > cap:
        raise BudgetExceeded(
            f"power test needs primes up to {bound}, cap is {cap}"
        )

    norm_alpha = alpha.norm()
    tested = []
    for p in primes_upto(bound):
        tested.append(p)
        # norm pre-filter: beta**p = alpha forces N(beta)**p = N(alpha)
        if norm_alpha < 0 and p % 2 == 0:
            continue
        if rational_nth_root(norm_alpha, p) is None:
            continue
        if pth_root_in_field(L, alpha, p) is not None:
            return PowerTestRecord(
                bound, tuple(tested), False, Obstruction.pth_power(p)
            )
    obstruction = None
    # gamma**4 = -alpha/4 forces N(gamma)**4 = N(-alpha/4) > 0
    norm_m4 = (-alpha * Fraction(1, 4)).norm()
    if norm_m4 > 0 and rational_nth_root(norm_m4, 4) is not None:
        if in_minus4_fourth_powers(L, alpha):
            obstruction = Obstruction.minus_four()
    return PowerTestRecord(bound, tuple(tested), True, obstruction)


def _check_preconditions(K: NumberField, Q: Poly) -> None:
    if Q.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if Q.degree < 1:
        raise NotIrreducible("constant polynomial")
    if Q.coeffs[0] == 0:
        raise ZeroConstantTerm("zero constant term: x divides the input")
    if not is_irreducible(K, Q):
        raise NotIrreducible(f"{Q!r} is reducible over the base field")
    if has_root_of_unity_root(K, Q):
        raise RootOfUnity("some root is a root of unity")


def capelli_obstruction(K: NumberField, Q: Poly) -> Obstruction | None:
    """Whether Q fails to be hereditarily irreducible over K, and why.

    Absent means Q(x**n) stays irreducible for every n >= 1.  The
    preconditions (irreducibility over K, nonzero constant term, no
    root-of-unity roots) are checked and violations raise.
    """
    _check_preconditions(K, Q)
    return _power_test(K, Q.monic()).obstruction


def capelli_certificate(K: NumberField, Q: Poly) -> HereditaryCertificate:
    """Like capelli_obstruction but returns the full evidence record,
    including the witnessed split when obstructed."""
    _check_preconditions(K, Q)
    Qm = Q.monic()
    rec = _power_test(K, Qm)
    if rec.obstruction is None:
        return HereditaryCertificate(
            factor=Qm,
            verdict="hereditarily_irreducible",
            prime_bound=rec.prime_bound,
            primes_tested=rec.primes_tested,
            base_factor=Qm,
        )
    e = rec.obstruction.exponent
    _, split = factor_over_K(K, substitute_power(Qm, e))
    return HereditaryCertificate(
        factor=Qm,
        verdict="obstructed",
        prime_bound=rec.prime_bound,
        primes_tested=rec.primes_tested,
        minus_four_tested=rec.minus_four_tested,
        obstruction=rec.obstruction,
        witnessed_split=tuple(w for w, _ in split),
        base_factor=Qm,
    )


def hereditary_factorization(
    K: NumberField,
    P: Poly,
    degree_cap: int | None = None,
) -> HereditaryFactorization:
    """Split P(x**N) into hereditarily irreducible factors over K.

    Worklist from (P, 1): an obstruction with exponent e replaces
    (Q, acc) by the factors of Q(x**e) at acc*e (the split is guaranteed);
    absence makes (Q, acc) terminal.  N is the lcm of terminal exponents
    and each terminal factor is lifted by x -> x**(N/acc), which
    preserves hereditary irreducibility.  The product is verified to be
    exactly P(x**N) before returning.
    """
    _check_preconditions(K, P)
    max_deg = config.max_degree(degree_cap)
    P = K.poly(P.coeffs).monic()
    base_deg = P.degree
    if base_deg > max_deg:
        raise BudgetExceeded(f"degree {base_deg} exceeds cap {max_deg}")

    queue: list[tuple[Poly, int]] = [(P, 1)]
    terminal: list[tuple[Poly, int, PowerTestRecord]] = []
    while queue:
        Q, acc = queue.pop(0)
        rec = _power_test(K, Q)
        if rec.obstruction is None:
            terminal.append((Q, acc, rec))
            continue
        e = rec.obstruction.exponent
        new_acc = acc * e
        if base_deg * new_acc > max_deg:
            raise BudgetExceeded(
                f"P(x**{new_acc}) would have degree {base_deg * new_acc}, "
                f"cap is {max_deg}"
            )
        _, split = factor_over_K(K, substitute_power(Q, e))
        if sum(m for _, m in split) < 2:
            raise RuntimeError("obstruction did not split the factor")
        for w, mult in split:
            for _ in range(mult):
                queue.append((w, new_acc))

    N = 1
    for _, acc, _ in terminal:
        N = N * acc // math.gcd(N, acc)
    if base_deg * N > max_deg:
        raise BudgetExceeded(
            f"P(x**{N}) would have degree {base_deg * N}, cap is {max_deg}"
        )

    lifted: list[tuple[Poly, HereditaryCertificate]] = []
    for Q, acc, rec in terminal:
        j = N // acc
        F = substitute_power(Q, j)
        lifted.append(
            (
                F,
                HereditaryCertificate(
                    factor=F,
                    verdict="hereditarily_irreducible",
                    prime_bound=rec.prime_bound,
                    primes_tested=rec.primes_tested,
                    base_factor=Q,
                    lift_exponent=j,
                ),
            )
        )
    lifted.sort(key=lambda fc: poly_key(fc[0]))

    product = Poly([K.one])
    for F, _ in lifted:
        product = product * F
    if product != substitute_power(P, N):
        raise RuntimeError("internal error: factor product mismatch")

    return HereditaryFactorization(
        field=K,
        input=P,
        N=N,
        factors=tuple(F for F, _ in lifted),
        certificates=tuple(c for _, c in lifted),
    )


def oracle_factor_counts(
    K: NumberField,
    P: Poly,
    n_list: list[int],
    degree_cap: int | None = None,
) -> list[int]:
    """Number of irreducible factors (with multiplicity) of P(x**n) over
    K for each n, computed solely by direct factorization.  This is the
    brute-force cross-check for the obstruction machinery; it has no
    preconditions beyond the degree budget."""
    if P.is_zero():
        raise ZeroPolynomial("oracle on the zero polynomial")
    max_deg = config.max_degree(degree_cap)
    out = []
    for n in n_list:
        if n < 1:
            raise ValueError(f"substitution exponent must be >= 1, got {n}")
        if P.degree * n > max_deg:
            raise BudgetExceeded(
                f"P(x**{n}) would have degree {P.degree * n}, cap is {max_deg}"
            )
        _, factors = factor_over_K(K, substitute_power(P, n))
        out.append(sum(m for _, m in factors))
    return out
