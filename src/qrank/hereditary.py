"""Hereditary irreducibility: root-of-unity detection, the power
obstruction test, and the worklist that factors P(x**N) into factors
that stay irreducible under every further substitution x -> x**n.

The obstruction test decides whether x**n - alpha can ever become
reducible (alpha a root of the factor under test): by the radical
irreducibility criterion this happens only if alpha is a p-th power in
K(alpha) for some prime p, or alpha lies in -4*K(alpha)**4.  For a
non-unit alpha, rational or not, those primes divide an exponent e read
off the end coefficients of alpha's minimal polynomial.  Only a unit,
with no such e, needs a height bound: primes up to height(alpha) /
h_min, where h_min is a proven lower bound for heights of candidate
roots.  A search aimed at one exponent n, as for reduct ranks, needs
only the primes dividing n as well (Capelli's criterion), so no height
bound at all.

Each prime p is first filtered by the sign of the norm (p = 2 only:
|N(alpha)| is a p-th power for every prime tested), then by an exact
power-residue sieve inside numfield.pth_root_in_field and
in_minus4_fourth_powers: if alpha(r)**((l-1)/p) != 1 (mod l) at a simple
root r of the defining polynomial of K(alpha) modulo a prime
l = 1 (mod p) prime to every denominator, then alpha is not a p-th power
(Lang, Algebra, VI section 8; Neukirch, Algebraic Number Theory, VII
section 13).  This settles most primes without factoring x**p - alpha.
A prime the sieve cannot settle (a true power, mostly) goes to an
l-adic lift of candidate roots.  Only whether a root exists decides
anything, so the lift stops at the first beta with beta**p == alpha
exactly in K(alpha), and x**p - alpha is factored only when the lift
settles nothing.  Each step is exact, so verdicts, prime
bounds and tested primes do not depend on which one decided.  A linear
factor x - alpha obstructed by alpha = beta**p splits through that beta
as (x - beta) * (x**(p-1) + ... + beta**(p-1)), so only the cofactor is
factored.  One obstructed by alpha = -4*gamma**4 splits through gamma
with nothing factored: x**4 + 4*gamma**4 is
(x**2 - 2*gamma*x + 2*gamma**2) * (x**2 + 2*gamma*x + 2*gamma**2)
(Schinzel, Polynomials with special regard to reducibility, section
2.1), and each quadratic splits further exactly when -1 is a square.

The input is checked by one function, _check, for groups.validate and
for the entry points here: it builds the Trager norm at shift 0 once
(norm_at_shift_zero) for both the irreducibility and the root-of-unity
test, and the worklist's root is flattened at the shift that proved it
irreducible.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import config
from ._record import Record, set_field
from .arith import perfect_power_exponent, primes_upto, rational_nth_root
from .errors import (
    BudgetExceeded,
    NotIrreducible,
    RootOfUnity,
    ZeroConstantTerm,
    ZeroPolynomial,
)
from .numfield import (
    NFElement,
    NumberField,
    Obstruction,
    factor_over_K,
    flatten,
    in_minus4_fourth_powers,
    minimal_polynomial,
    norm_at_shift_zero,
    pth_root_in_field,
    _irreducible_shift,
    _to_primitive_int,
    mahler_measure_upper,
)
from .poly import Poly, poly_key, substitute_power

# Height floor constants, all rounded down so prime bounds round up.
_HALF_LOG_GOLDEN_DOWN = 0.2406  # degree-2 minimum: (1/2) log((1+sqrt5)/2)
_LOG_SMYTH_DOWN = 0.2811  # log of the real root of x^3 - x - 1


def _orders(D: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every n with phi(n) <= D as (n, phi(n), the primes dividing n).
    phi is multiplicative, so the orders are the products of prime powers
    p**k, p <= D + 1, whose phi values multiply to at most D."""
    orders = [(1, 1, ())]
    for p in primes_upto(D + 1):
        grown = []
        for n, phi, primes in orders:
            q, phi_q = p, p - 1
            while phi * phi_q <= D:
                grown.append((n * q, phi * phi_q, primes + (p,)))
                q, phi_q = q * p, phi_q * p
        orders += grown
    return orders


def has_root_of_unity_root(K: NumberField, P: Poly, norm: Poly | None = None) -> bool:
    """Whether some root of P is a root of unity.

    The test runs on the norm R = prod_sigma sigma(P) in Q[x] of the
    monic P, sigma over the embeddings of K, from norm_at_shift_zero or
    passed in as norm by a caller that has built it.  Over Q, R is P, and
    for a rational P over K, R = P**[K:Q] has the roots of P, so the test
    reads P itself and no norm is built.  A root of
    unity among the roots of P is a root of R.  Conversely, if zeta is a
    root of sigma(P), then tau^-1(zeta) is a root of P for any
    automorphism tau of Q-bar extending sigma, and it is a root of unity
    of the same order.  So P has a root of unity of order n as a root
    exactly when the primitive integer multiple f of R has zeta_n as a
    root, and an order n among the roots forces phi(n) <= D = deg f.

    Each such n is decided by folding f modulo x**n - 1 to r and
    multiplying r by x**(n/p) - 1 for every prime p dividing n, modulo
    x**n - 1: zeta_n is a root of f exactly when the product is zero.
    Since x**n - 1 = prod_{d | n} Phi_d, Q[x]/(x**n - 1) splits as the
    product of the fields Q(zeta_d), d | n (Lang, Algebra, VI section
    3), and the product's component at d is
    r(zeta_d) * prod_p (zeta_d**(n/p) - 1).  For d < n some prime p
    divides n/d, so zeta_d**(n/p) = 1 and the component is zero.  For
    d = n no factor zeta_n**(n/p) - 1 vanishes, so the component is
    zero exactly when r(zeta_n) = f(zeta_n) = 0.
    """
    if P.is_zero():
        raise ZeroPolynomial("root-of-unity test on the zero polynomial")
    if P.degree <= 0:
        return False
    if norm is None and K.degree > 1:
        norm = norm_at_shift_zero(K, P.monic())
    f = _to_primitive_int(P if norm is None else norm)
    for n, _, primes in _orders(len(f) - 1):
        r = [0] * n
        for i, c in enumerate(f):
            r[i % n] += c
        for p in primes:
            m = n // p
            r = [r[i - m] - r[i] for i in range(n)]
        if not any(r):
            return True
    return False


class HereditaryCertificate(Record, hidden=("root",)):
    """Per-factor evidence.

    primes_tested lists the primes the scan went through, in order and
    up to the obstructing one if any: the primes dividing prime_bound,
    gcd(e, m) for a root with end-coefficient exponent e (a non-unit) or
    a target exponent m, and otherwise, for a unit in the hereditary
    search, every prime up to its height bound prime_bound, those the
    norm sign settles included.  An irreducible verdict means the root
    is a p-th power for none of them and the minus-four test failed.  For
    an obstructed verdict capelli_certificate stores the witnessed split
    of factor(x**e).  The lift exponent says which power of x turned the
    tested base factor into the reported one; heredity is preserved by
    that substitution.  root holds the element of K(alpha) that the scan
    proved, a Fraction when K(alpha) is Q: for a p-th power obstruction
    the beta with beta**p = alpha, for a minus-four obstruction the gamma
    with -4*gamma**4 = alpha.  It is neither serialized, compared nor
    printed.
    """

    __slots__ = (
        "factor",
        "prime_bound",
        "primes_tested",
        "base_factor",
        "obstruction",
        "witnessed_split",
        "lift_exponent",
        "root",
    )

    def __init__(
        self,
        factor: Poly,
        prime_bound: int,
        primes_tested: tuple[int, ...],
        base_factor: Poly,
        obstruction: Obstruction | None = None,
        witnessed_split: tuple[Poly, ...] | None = None,
        lift_exponent: int = 1,
        root: NFElement | Fraction | None = None,
    ):
        set_field(self, "factor", factor)
        set_field(self, "prime_bound", prime_bound)
        set_field(self, "primes_tested", primes_tested)
        set_field(self, "base_factor", base_factor)
        set_field(self, "obstruction", obstruction)
        set_field(self, "witnessed_split", witnessed_split)
        set_field(self, "lift_exponent", lift_exponent)
        set_field(self, "root", root)

    @property
    def verdict(self) -> str:
        return "hereditarily_irreducible" if self.obstruction is None else "obstructed"

    @property
    def minus_four_tested(self) -> bool:
        """Whether the hereditary search (m = 0) ran the minus-four test,
        which a p-th power preempts.  A target m that 4 does not divide
        skips it whatever this says; such certificates are never
        serialized."""
        return self.obstruction is None or self.obstruction.kind == "minus_four"


class HereditaryFactorization(Record):
    """P(x**N) = product of hereditarily irreducible factors over K."""

    __slots__ = ("field", "input", "N", "factors", "certificates")

    def __init__(
        self,
        field: NumberField,
        input: Poly,
        N: int,
        factors: tuple[Poly, ...],
        certificates: tuple[HereditaryCertificate, ...],
    ):
        set_field(self, "field", field)
        set_field(self, "input", input)
        set_field(self, "N", N)
        set_field(self, "factors", factors)
        set_field(self, "certificates", certificates)


def _unit_prime_bound(dL: int, ints: list[int], cap: int) -> int:
    """The primes up to which a unit alpha of L, [L:Q] = dL, with
    primitive integer minimal polynomial ints, needs the power test:
    ceil(h(alpha) / h_min), as h(beta**p) = p * h(beta) for a non-torsion
    beta whose p-th power could be alpha, and h_min bounds h(beta) from
    below.  BudgetExceeded past the prime cap.  Floats only size this
    bound, rounded so that it rounds up.

    Such beta generates a field between Q(alpha) and L, so its degree is
    a multiple of deg(alpha) >= 2 (the rational units are +-1, roots of
    unity) dividing [L:Q].  Degree 2 gives the golden-ratio minimum.  An
    irreducible polynomial of odd degree >= 3 is never self-reciprocal,
    and a reciprocal beta would force alpha reciprocal, so Smyth's
    nonreciprocal minimum applies to every remaining degree unless alpha
    is reciprocal and the degree is even; only that case falls back to
    Voutier's Lehmer-type floor.
    """
    deg_alpha = len(ints) - 1
    reciprocal = ints[::-1] in (ints, [-c for c in ints])
    h_min = math.inf
    for d in range(deg_alpha, dL + 1, deg_alpha):
        if dL % d:
            continue
        if d == 2:
            b = _HALF_LOG_GOLDEN_DOWN
        elif d % 2 == 1 or not reciprocal:
            b = _LOG_SMYTH_DOWN / d
        else:
            b = (math.log(math.log(d)) / math.log(d)) ** 3 / (4 * d) * (1 - 1e-9)
        h_min = min(h_min, b)
    bound = max(1, math.ceil(mahler_measure_upper(ints) / deg_alpha / h_min))
    if bound > cap:
        raise BudgetExceeded(f"power test needs primes up to {bound}, cap is {cap}")
    return bound


def _certificate(
    Q: Poly, bound: int, tested: list[int], obstruction: Obstruction | None, root=None
) -> HereditaryCertificate:
    return HereditaryCertificate(
        Q, bound, tuple(tested), base_factor=Q, obstruction=obstruction, root=root
    )


def _power_test(
    K: NumberField, Q: Poly, m: int = 0, shift: tuple[int, Poly, Poly] | None = None
) -> HereditaryCertificate:
    """Obstruction scan for an irreducible factor Q over K, as Q's
    certificate with no witnessed split, holding the proved root of an
    obstruction; preconditions (irreducible, Q(0) != 0, no root-of-unity
    roots) are the caller's, and shift, when given, is the Trager shift
    that proved the monic Q irreducible, for flatten.

    The default m = 0 scans for every exponent at once (every integer
    divides 0).  A target m >= 1 asks only whether Q(x**m) is reducible,
    which by Capelli's criterion needs only the primes dividing m, and
    the minus-four test only when 4 divides m.  Either way the primes
    are those dividing gcd(e, m), e read off the end coefficients a_0,
    a_d of the primitive integer minimal polynomial mp of alpha: with
    k = [L:Q]/deg mp, |a_0|**k and |a_d|**k are the norms of the
    numerator and denominator ideals of alpha (Gauss's lemma), both p-th
    powers if alpha = beta**p, so p divides e = k * the gcd of the
    perfect-power exponents of the ends other than +-1 (Bombieri and
    Gubler, Heights in Diophantine Geometry, section 1.6).  A unit has
    no such end and e = 0: for m = 0 it takes every prime up to its
    height bound, held to the prime cap.

    The norms come from mp, with no element norm: N(alpha) = ((-1)**deg mp
    * mp(0))**k and N(-alpha/4) = (-1/4)**[L:Q] * N(alpha).  |N(alpha)|,
    (|a_0|/|a_d|)**k or 1 for a unit, is a p-th power for every prime
    tested, so the norm rules out only p = 2, by its sign.  A rational
    alpha over Q is its own norm: the first prime that passes obstructs,
    and the fourth root of N(-alpha/4) = -alpha/4 is gamma itself.
    """
    # read before flatten, so a malformed cap fails for non-units too
    cap = 0 if m else config.max_prime()
    ext = flatten(K, Q, trusted=True, shift=shift)
    L, alpha = ext.field, ext.alpha
    # flatten returns alpha = L.gen over Q and at Trager shift 0
    mp = L.min_poly if alpha == L.gen else minimal_polynomial(alpha)
    k = L.degree // mp.degree
    ints = _to_primitive_int(mp)
    ends = [abs(c) for c in (ints[0], ints[-1]) if abs(c) != 1]
    bound = math.gcd(k * math.gcd(*map(perfect_power_exponent, ends)), m)
    if bound:
        primes = [p for p in primes_upto(bound) if bound % p == 0]
    else:
        bound = _unit_prime_bound(L.degree, ints, cap)
        primes = primes_upto(bound)
    norm_alpha = ((-1) ** mp.degree * mp.coeffs[0]) ** k

    tested = []
    for p in primes:
        tested.append(p)
        # beta**2 = alpha forces N(alpha) = N(beta)**2 > 0
        if p == 2 and norm_alpha < 0:
            continue
        if L.degree == 1:
            root = rational_nth_root(alpha.as_rational(), p)
        else:
            root = pth_root_in_field(L, alpha, p)
        if root is not None:
            return _certificate(Q, bound, tested, Obstruction.pth_power(p), root)
    # gamma**4 = -alpha/4 forces N(gamma)**4 = N(-alpha/4) > 0
    norm_m4 = Fraction(-1, 4) ** L.degree * norm_alpha
    if m % 4 == 0 and norm_m4 > 0:
        gamma = rational_nth_root(norm_m4, 4)
        if gamma is not None and L.degree > 1:
            gamma = in_minus4_fourth_powers(L, alpha)
        if gamma is not None:
            return _certificate(Q, bound, tested, Obstruction.minus_four(), gamma)
    return _certificate(Q, bound, tested, None)


def _split(K: NumberField, cert: HereditaryCertificate) -> list[Poly]:
    """The factors over K, with multiplicity, of Q(x**e) for an
    obstructed certificate of Q with exponent e, sorted as factor_over_K
    sorts them; the obstruction guarantees at least two.

    For Q = x - alpha and alpha = beta**p, beta in K being the root the
    scan proved, x**p - alpha is x - beta times the cofactor
    x**(p-1) + beta*x**(p-2) + ... + beta**(p-1), and only the cofactor is
    factored (x + beta needs nothing for p = 2).  For Q = x - alpha and
    alpha = -4*gamma**4, x**4 - alpha is
    (x**2 - 2*gamma*x + 2*gamma**2) * (x**2 + 2*gamma*x + 2*gamma**2),
    with nothing factored.  Each quadratic has discriminant -4*gamma**2,
    so both split over K exactly when K holds a square root iota of -1,
    into x -+ gamma*(1 +- iota).  A minus-four certificate that lists the
    prime 2 has proved alpha no square, which rules iota out with no
    call, since -4 = (1 + iota)**4 would make alpha = ((1 + iota)*gamma)**4;
    only a scan that skipped 2 leaves pth_root_in_field to decide.  Every
    other shape factors Q(x**e).  The degree cap holds Q(x**e) first
    either way."""
    Q, e = cert.factor, cert.obstruction.exponent
    if Q.degree == 1 and cert.root is not None:
        config.check_degree(Q.degree, e)
        r = cert.root
        if cert.obstruction.kind == "minus_four":
            iota = None
            if 2 not in cert.primes_tested:
                iota = pth_root_in_field(K, K.from_rational(-1), 2)
            if iota is None:
                out = [K.poly([2 * r * r, c * r, 1]) for c in (-2, 2)]
            else:
                out = [K.poly([c * r * (1 + u), 1]) for c in (-1, 1) for u in (iota, -iota)]
        else:
            cofactor = K.poly([r ** (e - 1 - i) for i in range(e)])
            rest = [cofactor] if e == 2 else [w for w, _ in factor_over_K(K, cofactor)[1]]
            out = [K.poly([-r, 1]), *rest]
        return sorted(out, key=poly_key)
    _, split = factor_over_K(K, substitute_power(Q, e))
    out = [w for w, m in split for _ in range(m)]
    if len(out) < 2:
        raise RuntimeError("obstruction did not split the factor")
    return out


def _check(K: NumberField, Q: Poly) -> tuple[bool, bool, tuple[int, Poly, Poly] | None]:
    """The check of a monic Q of degree >= 1 over K, as (irreducible,
    root_of_unity, shift).  Q is held to the degree cap before it is
    factored, and both tests read one norm of Q at shift 0.  A linear Q
    is irreducible; otherwise _irreducible_shift decides, and shift is
    the Trager shift that proved Q irreducible, for flatten, None
    otherwise.  validate reports the verdict and _check_preconditions
    raises on it."""
    config.check_degree(Q.degree, 1)
    norm = norm_at_shift_zero(K, Q)
    shift = _irreducible_shift(K, Q, norm) if Q.degree > 1 else None
    return Q.degree == 1 or shift is not None, has_root_of_unity_root(K, Q, norm), shift


def _check_preconditions(K: NumberField, Q: Poly) -> tuple[int, Poly, Poly] | None:
    """Raise unless Q is irreducible over K with Q(0) != 0 and no
    root-of-unity root, irreducibility first, by _check on the monic Q;
    the Trager shift that proved Q irreducible is returned for flatten,
    None for a linear Q."""
    if Q.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if Q.degree < 1:
        raise NotIrreducible("constant polynomial")
    if Q.coeffs[0] == 0:
        raise ZeroConstantTerm("zero constant term: x divides the input")
    irreducible, root_of_unity, shift = _check(K, Q.monic())
    if not irreducible:
        raise NotIrreducible("reducible over the base field")
    if root_of_unity:
        raise RootOfUnity("some root is a root of unity")
    return shift


def capelli_obstruction(K: NumberField, Q: Poly) -> Obstruction | None:
    """Whether Q fails to be hereditarily irreducible over K, and why.

    Absent means Q(x**n) stays irreducible for every n >= 1.  The
    preconditions (irreducibility over K, nonzero constant term, no
    root-of-unity roots) are checked and violations raise.
    """
    shift = _check_preconditions(K, Q)
    return _power_test(K, Q.monic(), shift=shift).obstruction


def capelli_certificate(K: NumberField, Q: Poly) -> HereditaryCertificate:
    """Like capelli_obstruction but returns the full evidence record,
    including the witnessed split when obstructed."""
    shift = _check_preconditions(K, Q)
    cert = _power_test(K, Q.monic(), shift=shift)
    if cert.obstruction is None:
        return cert
    return cert.replace(witnessed_split=tuple(_split(K, cert)))


def hereditary_factorization(
    K: NumberField, P: Poly
) -> HereditaryFactorization:
    """Split P(x**N) into hereditarily irreducible factors over K.

    Worklist from (P, 1): an obstruction with exponent e replaces
    (Q, acc) by the factors of Q(x**e) at acc*e (the split is guaranteed);
    absence makes (Q, acc) terminal.  N is the lcm of terminal exponents
    and each terminal factor is lifted by x -> x**(N/acc), which
    preserves hereditary irreducibility.  The product is verified to be
    exactly P(x**N) before returning.

    The degree cap is checked for P before it is factored, for
    P(x**(acc*e)) before each obstruction split, and for P(x**N) before
    the lift; substitute_power holds each polynomial it builds to the
    cap as well.
    """
    shift = _check_preconditions(K, P)
    return _worklist(K, P, shift=shift)


def _worklist(
    K: NumberField, P: Poly, n: int = 0, shift: tuple[int, Poly, Poly] | None = None
) -> HereditaryFactorization:
    """hereditary_factorization for a P whose preconditions the caller
    has already checked (groups.subgroup_degree_spectrum validates P
    first), so they are not tested a second time.  shift, when given, is
    the Trager shift that proved the monic P irreducible: the root node
    is flattened at it.

    A target exponent n >= 1 restricts the search to P(x**n): a node
    (Q, acc), where acc always divides n, is tested only for what
    Capelli's criterion needs for Q(x**(n/acc)), namely the primes
    dividing n/acc and the minus-four test when 4 divides n/acc.  A
    terminal Q then stays irreducible as Q(x**(n/acc)), so N divides n
    and each factor F of P(x**N) stays irreducible as F(x**(n/N)); the
    certificates record only these tests.  No height bound is computed
    and the prime cap is not read.  The default n = 0 is the hereditary
    search itself.
    """
    P = K.poly(P.coeffs).monic()
    base_deg = P.degree

    queue: list[tuple[Poly, int]] = [(P, 1)]
    terminal: list[tuple[int, HereditaryCertificate]] = []
    while queue:
        Q, acc = queue.pop(0)
        cert = _power_test(K, Q, n // acc, shift)
        shift = None  # it proves the root alone
        if cert.obstruction is None:
            terminal.append((acc, cert))
            continue
        new_acc = acc * cert.obstruction.exponent
        config.check_degree(base_deg, new_acc)
        queue.extend((w, new_acc) for w in _split(K, cert))

    N = math.lcm(*(acc for acc, _ in terminal))
    config.check_degree(base_deg, N)

    lifted = sorted(
        (
            cert.replace(
                factor=substitute_power(cert.factor, N // acc),
                lift_exponent=N // acc,
            )
            for acc, cert in terminal
        ),
        key=lambda c: poly_key(c.factor),
    )
    product = Poly([K.one])
    for c in lifted:
        product = product * c.factor
    if product != substitute_power(P, N):
        raise RuntimeError("internal error: factor product mismatch")

    return HereditaryFactorization(
        field=K,
        input=P,
        N=N,
        factors=tuple(c.factor for c in lifted),
        certificates=tuple(lifted),
    )


def oracle_factor_counts(
    K: NumberField, P: Poly, n_list: list[int]
) -> list[int]:
    """Number of irreducible factors (with multiplicity) of P(x**n) over
    K for each n, computed solely by direct factorization.  This is the
    brute-force cross-check for the obstruction machinery; it has no
    preconditions beyond the degree cap, which substitute_power checks
    for each n before P(x**n) is built."""
    if P.is_zero():
        raise ZeroPolynomial("oracle on the zero polynomial")
    out = []
    for n in n_list:
        if n < 1:
            raise ValueError(f"substitution exponent must be >= 1, got {n}")
        _, factors = factor_over_K(K, substitute_power(P, n))
        out.append(sum(m for _, m in factors))
    return out
