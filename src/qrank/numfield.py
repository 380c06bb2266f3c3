"""Number fields Q[t]/(m(t)): element arithmetic, norms, minimal
polynomials, factorization over Q (Zassenhaus) and over extensions
(Trager's norm method), tower flattening, radical membership tests, and
certified height upper bounds.

An element is held as one vector of integer numerators over one positive
denominator, in lowest terms, and the field keeps m and its reduction
rows the same way, so products, sums, norms and the maps mod l run on
Python ints; the Fraction coordinates (NFElement.coords) are a derived
view, built only for output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, product

from . import _intfactor as zz, config
from .arith import is_prime
from .errors import (
    DivisionByZero,
    NotIrreducible,
    NotMonic,
    ZeroElement,
    ZeroPolynomial,
)
from .poly import Poly, divrem, gcd, sorted_factors, substitute_power


class NumberField:
    """Q[t]/(m(t)) for a monic irreducible m over Q; degree 1 is Q itself.

    Irreducibility is verified at construction unless the defining
    polynomial is already known irreducible (internal callers).  Besides
    min_poly, the field keeps m and its reduction rows (the coordinates
    of t**(d+i) mod m, i = 0..d-2) as integer vectors over one positive
    denominator each, which is what element arithmetic reads.
    """

    __slots__ = ("min_poly", "degree", "_int_poly", "_red_rows", "_scan")

    def __init__(self, min_poly: Poly, trusted: bool = False):
        coeffs = [_exact(c) for c in min_poly.coeffs]
        if not coeffs or coeffs[-1] != 1:
            raise NotIrreducible("defining polynomial must be monic")
        d = len(coeffs) - 1
        if d < 1:
            raise NotIrreducible("defining polynomial must have degree >= 1")
        min_poly = Poly([c if isinstance(c, Fraction) else Fraction(c) for c in coeffs])
        if not trusted and d > 1:
            config.check_degree(d, 1)
            if not is_irreducible(QQ, min_poly):
                raise NotIrreducible("defining polynomial is reducible over Q")
        self.min_poly = min_poly
        self.degree = d
        den = math.lcm(*(c.denominator for c in coeffs))
        m = [c.numerator * (den // c.denominator) for c in coeffs]
        self._int_poly = (m, den)
        # t**(d+i) over den**(i+1); each row brought to den**(d-1)
        rows = []
        cur = [0] * (d - 1) + [1]
        for i in range(d - 1):
            cur = _times_gen(cur, m, den)
            rows.append([x * den ** (d - 2 - i) for x in cur])
        self._red_rows = (rows, den ** max(d - 1, 0))
        self._scan: list[tuple[int, list[int]]] = []

    @property
    def gen(self) -> NFElement:
        # built per call: a field holding its generator would be a
        # reference cycle, left for the cyclic garbage collector
        if self.degree == 1:
            # Q[t]/(t - c): the generator is the rational c itself.
            return -self.from_rational(self.min_poly.coeffs[0])
        return NFElement(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def _certificate_primes(self):
        """(l, roots) for the first _CERT_PRIMES primes l (2 to 53), with
        the simple roots r of m mod l from _simple_roots: the primes from
        which _lifted_roots picks the one it lifts at.  Each entry is
        computed once, when a caller first reads that far."""
        scan = self._scan
        primes = filter(is_prime, count(2))
        for i, ell in enumerate(islice(primes, _CERT_PRIMES)):
            if i == len(scan):
                scan.append((ell, _simple_roots(self, ell)))
            yield scan[i]

    def element(self, coords) -> NFElement:
        cs = [_exact(c) for c in coords]
        if len(cs) > self.degree and not any(cs[self.degree :]):
            cs = cs[: self.degree]
        if len(cs) != self.degree:
            raise ValueError(
                f"expected {self.degree} coordinates, got {len(cs)}"
            )
        den = math.lcm(*(c.denominator for c in cs))
        return NFElement(self, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def from_rational(self, r) -> NFElement:
        r = _exact(r)
        return NFElement(self, (r.numerator,) + (0,) * (self.degree - 1), r.denominator)

    @property
    def zero(self) -> NFElement:
        return self.from_rational(0)

    @property
    def one(self) -> NFElement:
        return self.from_rational(1)

    def poly(self, coeffs) -> Poly:
        """Polynomial over this field from rationals or elements."""
        out = []
        for c in coeffs:
            out.append(c if isinstance(c, NFElement) else self.from_rational(c))
        return Poly(out)

    def same_as(self, other: "NumberField") -> bool:
        return self is other or self.min_poly == other.min_poly

    def __repr__(self) -> str:
        if self.degree == 1:
            return "NumberField(Q)"
        return f"NumberField({self.min_poly!r})"


def _exact(c):
    """c itself for an int or a Fraction, the only exact scalars."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(c).__name__}")
    return c


def _reduced(field: NumberField, num, den: int) -> NFElement:
    """The element num/den, for den > 0, in lowest terms: one gcd."""
    g = math.gcd(den, *num)
    if g != 1:
        return NFElement(field, tuple(x // g for x in num), den // g)
    return NFElement(field, tuple(num), den)


class NFElement:
    """An element of a number field K = Q[t]/(m), held as integer
    numerators num (its power-basis coordinates times den) over one
    denominator den > 0, in lowest terms: gcd(den, *num) = 1, so zero is
    0/1 and equal elements have equal (num, den) (Cohen, GTM 138, section
    4.2).  Each operation normalizes by one gcd.  coords, the coordinates
    as Fractions, is derived from num and den.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.num)

    def _lift(self, other):
        if isinstance(other, NFElement):
            if not self.field.same_as(other.field):
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = [a + b for a, b in zip(self.num, o.num)]
            if da == 1:
                return NFElement(self.field, tuple(num), 1)
        else:
            num = [a * db + b * da for a, b in zip(self.num, o.num)]
            da *= db
        return _reduced(self.field, num, da)

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _reduced(self.field, [a * p for a in self.num], self.den * other.denominator)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.field.degree
        a, b = self.num, o.num
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        den = self.den * o.den
        out = conv[:d]
        if d > 1:
            rows, rden = self.field._red_rows
            if rden != 1:
                out = [x * rden for x in out]
                den *= rden
            for c, row in zip(conv[d:], rows):
                if c:
                    out = [x + c * y for x, y in zip(out, row)]
        return _reduced(self.field, out, den)

    __rmul__ = __mul__

    def inverse(self) -> "NFElement":
        """1/self, from M x = e_0 for M the matrix of multiplication by
        self on the power basis, solved by fraction-free Gauss-Jordan
        elimination on integers (Bareiss 1968): after the step at column
        k, the leading (k+1) x (k+1) block is delta * I for delta the
        leading minor of that order, so the last pivot delta = +-det and
        the right-hand side ends as delta * x."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        d, n = self.field.degree, self.num[0]
        if self.is_rational():
            return NFElement(self.field, (self.den if n > 0 else -self.den,) + (0,) * (d - 1), abs(n))
        m, e = self.field._int_poly
        # column j: numerators of self * t**j over den * e**j
        cols, v = [], list(self.num)
        for _ in range(d):
            cols.append(v)
            v = _times_gen(v, m, e)
        a = [[col[r] for col in cols] + [int(r == 0)] for r in range(d)]
        prev = 1
        for k in range(d):
            p = next(i for i in range(k, d) if a[i][k])
            a[k], a[p] = a[p], a[k]
            piv, row_k = a[k][k], a[k]
            for i in range(d):
                if i != k:
                    c = a[i][k]
                    a[i] = [(piv * x - c * y) // prev for x, y in zip(a[i], row_k)]
            prev = piv
        # x_j = den * e**j * a[j][d] / delta
        sign = 1 if prev > 0 else -1
        return _reduced(self.field, [sign * self.den * e**j * a[j][d] for j in range(d)], abs(prev))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        acc = self
        while e > 0:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, NFElement):
            return (
                self.num == other.num
                and self.den == other.den
                and self.field.same_as(other.field)
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.den == other.denominator
                and self.num[0] == other.numerator
                and not any(self.num[1:])
            )
        return NotImplemented

    def __hash__(self):
        # a rational element equals its rational coordinate, so it hashes
        # as that coordinate
        return hash(self.as_rational() if self.is_rational() else self.coords)

    def __bool__(self):
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den) if self.den > 1 else Fraction(self.num[0])

    def coordinate_poly(self) -> Poly:
        return Poly(self.coords)

    def sort_key(self):
        """Each coordinate as (numerator, denominator) in lowest terms."""
        den = self.den
        if den == 1:
            return tuple((x, 1) for x in self.num)
        return tuple((x // g, den // g) for x in self.num for g in (math.gcd(x, den),))

    def norm(self) -> Fraction:
        """Field norm down to Q: (-1)**d * chi(0), for chi = N(x - self)
        the characteristic polynomial of self from norm_poly, of degree
        d = [K:Q]."""
        chi = norm_poly(self.field, Poly([-self, self.field.one]))
        return (-1) ** self.field.degree * chi.coeffs[0]

    def __repr__(self):
        return f"NFElement({list(self.coords)})"


QQ = NumberField(Poly([0, 1]), trusted=True)


@dataclass(frozen=True)
class Obstruction:
    """Why a polynomial fails to stay irreducible under x -> x**n."""

    kind: str  # "pth_power" or "minus_four"
    p: int | None = None

    @staticmethod
    def pth_power(p: int) -> "Obstruction":
        if not is_prime(p):
            raise ValueError(f"obstruction exponent must be prime, got {p}")
        return Obstruction("pth_power", p)

    @staticmethod
    def minus_four() -> "Obstruction":
        return Obstruction("minus_four")

    @property
    def exponent(self) -> int:
        return self.p if self.kind == "pth_power" else 4


# ---------------------------------------------------------------------------
# Factorization over Q


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm over a characteristic-zero field; f monic.

    Returns [(g_i, i)] with f = prod g_i**i, each g_i monic squarefree.
    _factor runs it only on an input that its field's factoring has
    proved not squarefree.
    """
    if f.degree < 1:
        return []
    out = []
    g = gcd(f, f.derivative())
    c = divrem(f, g)[0]
    d = divrem(f.derivative(), g)[0] - c.derivative()
    i = 1
    while c.degree > 0:
        a = gcd(c, d)
        if a.degree > 0:
            out.append((a.monic(), i))
        c = divrem(c, a)[0]
        d = divrem(d, a)[0] - c.derivative()
        i += 1
    return out


# Work bounds of a squarefree proof by primes, in _certified_squarefree
# and in the Trager shift's Zassenhaus scan: primes scanned, and primes
# with a repeated factor mod p before the scan gives up, so that a
# failure stays cheap.  The l-adic lift picks its prime among the first
# _CERT_PRIMES primes (_certificate_primes)
_CERT_PRIMES = 16
_CERT_PAIRS = 6


def _certified_squarefree(f: Poly) -> bool:
    """True only when a prime proves that f over Q, its coefficients
    rationals or elements of a degree-1 field, is squarefree; False
    proves nothing.  It serves the callers that factor nothing next:
    the shift search of flatten and minimal_polynomial.  Where Zassenhaus
    runs next, its own prime scan is the proof (_trager_shift).

    It is that scan, zz.zz_squarefree_primes, on the primitive integer
    multiple of f, within the first _CERT_PRIMES odd primes and
    _CERT_PAIRS failures: an odd prime p not dividing its leading
    coefficient, at which it stays squarefree mod p, proves it.
    """
    scan = zz.zz_squarefree_primes(
        _to_primitive_int(f), within=(_CERT_PRIMES, _CERT_PAIRS)
    )
    return next(scan, None) is not None


def _to_primitive_int(f: Poly) -> list[int]:
    """Scale a polynomial over Q, its coefficients rationals or elements
    of a degree-1 field, to a primitive integer list, lc > 0."""
    pairs = [_num_den(c) for c in f.coeffs]
    den = math.lcm(*(d for _, d in pairs))
    ints = zz.zz_primitive([v[0] * (den // d) for v, d in pairs])
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _num_den(c) -> tuple[tuple, int]:
    """(numerators, denominator) of a rational or of an element."""
    if isinstance(c, NFElement):
        return c.num, c.den
    return (c.numerator,), c.denominator


def _factor(K: NumberField, p: Poly) -> tuple[object, list[tuple[Poly, int]]]:
    """The front end shared by every field: leading coefficient, then the
    power of x, then the field's own factoring (_factor_squarefree), whose
    prime scan proves the rest squarefree.  Only when it proves the rest
    not squarefree does Yun's squarefree_decomposition run, and each of
    its parts is factored on its own.  Factors canonically sorted."""
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    content = p.leading
    if p.degree == 0:
        return content, []
    f = p.monic()
    factors: list[tuple[Poly, int]] = []
    # pull out powers of x so the squarefree machinery sees f(0) != 0
    k = 0
    while f.coeffs[0] == 0:
        f = Poly(f.coeffs[1:])
        k += 1
    if k:
        one = f.leading
        factors.append((Poly([one * 0, one]), k))
    if f.degree > 0:
        split = _factor_squarefree(K, f)
        if split is not None:
            factors.extend((w, 1) for w in split)
        else:
            for g, mult in squarefree_decomposition(f):
                factors.extend((w, mult) for w in _factor_squarefree(K, g))
    return content, sorted_factors(factors)


def factor_over_Q(p: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Factor over Q: content times monic irreducible factors with
    multiplicities, canonically sorted.  The coefficients of p are
    rationals or elements of a degree-1 field, and the factors keep
    their kind."""
    content, factors = _factor(QQ, p)
    if isinstance(content, NFElement):
        return content.as_rational(), factors
    return Fraction(content), factors


def is_irreducible(K: NumberField, p: Poly, norm: Poly | None = None) -> bool:
    """Whether p is irreducible over K: one factor, multiplicity one.

    A linear p is irreducible and a constant is not.  Otherwise
    _trager_shift finds a shift s for which the norm N of the monic
    p(x - s*theta) is squarefree, or proves p not squarefree; norm, when
    given, is N at s = 0 (norm_at_shift_zero), not built again.  Trager's
    lemma (Trager 1976, "Algebraic factoring and rational function
    integration"; Cohen, GTM 138, section 3.6.2): when N is squarefree,
    p factors over K as N factors over Q.  For an irreducible factor w
    of the shifted p with a root beta, N(w) is a power of the minimal
    polynomial of beta over Q, and N is the product of the N(w); a
    squarefree N makes each N(w) irreducible and no two of them equal,
    so p and N have equally many irreducible factors, each of
    multiplicity one.  So p is irreducible exactly when Zassenhaus
    returns one factor of the primitive integer multiple f of N.  That
    one Zassenhaus call is also the proof that N is squarefree: its prime
    scan's first usable prime p, not dividing lc(f), with f mod p
    squarefree, gives disc(f) != 0 (see _trager_shift).
    """
    if p.is_zero():
        raise ZeroPolynomial("irreducibility test on the zero polynomial")
    if p.degree < 2:
        return p.degree == 1
    return _irreducible_shift(K, p, norm) is not None


def _irreducible_shift(
    K: NumberField, p: Poly, norm: Poly | None = None
) -> tuple[int, Poly, Poly] | None:
    """The (s, shifted monic p, norm) at which _trager_shift proves p, of
    degree >= 2, irreducible over K, or None when p is reducible; norm,
    when given, is the norm of the monic p at s = 0.  flatten takes the
    triple in place of a second shift search."""
    if K.degree > 1:
        p = K.poly(p.coeffs)
    try:
        s, gs, N, factors = _trager_shift(K, p.monic(), factor=True, norm0=norm)
    except NotIrreducible:
        return None
    return (s, gs, N) if len(factors) == 1 else None


def norm_at_shift_zero(K: NumberField, P: Poly) -> Poly | None:
    """The norm N(P) of a monic P over K, when some coefficient of P lies
    outside Q; None otherwise.  Over Q the norm is P itself, and a
    rational P over K != Q has norm P**[K:Q], whose roots are those of
    P: the root-of-unity test reads P, and the Trager shift starts at
    s = 1.  The one norm serves both checks of P: the irreducibility
    test, as its s = 0 norm, and the root-of-unity test."""
    if K.degree == 1:
        return None
    P = K.poly(P.coeffs)
    if all(c.is_rational() for c in P.coeffs):
        return None
    return norm_poly(K, P)


# ---------------------------------------------------------------------------
# Factorization over an extension (Trager)


def norm_poly(K: NumberField, f: Poly) -> Poly:
    """Norm from K[x] down to Q[x] of a monic f: the product of the
    conjugates of f over Q, monic of degree deg f * [K:Q].  It is the one
    route to characteristic polynomials: for f = x - a it is
    chi_a = det(x I - M(a)), with M(a) as below, from which
    NFElement.norm and minimal_polynomial read the norm and the minimal
    polynomial of a.

    With M(a) the d x d matrix of multiplication by a on the power basis
    of K (column j holds the coordinates of a * theta**j) and
    f = sum_i f_i x**i, the norm is N(f)(x) = det(sum_i M(f_i) x**i)
    (Cohen, GTM 138, section 4.3).  The entries stay integers: for D the
    common denominator of the f_i and m = M/e with M in Z[t], column j
    of the matrix is an integer vector over D * e**j, so N(f) is the
    determinant of the numerators, a matrix over Z[x], divided by
    D**d * e**(d(d-1)/2).  The determinant comes from Bareiss's
    fraction-free elimination (Bareiss 1968, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination"): each step divides
    exactly by the previous pivot, and by Sylvester's identity the pivot
    of step k is the leading principal minor of order k + 1.  Since f is
    monic of degree n, the numerators are (I x**n + terms of lower
    degree) times the diagonal of the column denominators, so that minor
    has leading term D**(k+1) e**(k(k+1)/2) x**((k+1)*n): no pivot is
    zero and no row exchange is needed.
    """
    if not f.is_monic():
        raise NotMonic(f"norm needs a monic polynomial, got {f!r}")
    coeffs = K.poly(f.coeffs).coeffs
    if K.degree == 1:
        return Poly([c.as_rational() for c in coeffs])
    d = K.degree
    m, e = K._int_poly
    den = math.lcm(*(c.den for c in coeffs))
    # cols[j][i]: numerators of f_i * theta**j over den * e**j
    cols: list[list[list[int]]] = [[] for _ in range(d)]
    for c in coeffs:
        v = [x * (den // c.den) for x in c.num]
        for col in cols:
            col.append(v)
            v = _times_gen(v, m, e)
    a = [[zz.zz_strip([v[r] for v in col]) for col in cols] for r in range(d)]
    prev = [1]
    for k in range(d - 1):
        piv = a[k][k]
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                entry = zz.zz_sub(
                    zz.zz_mul(piv, a[i][j]), zz.zz_mul(a[i][k], a[k][j])
                )
                a[i][j] = zz.zz_divmod(entry, prev)[0] if k else entry
        prev = piv
    scale = den**d * e ** (d * (d - 1) // 2)
    return Poly([Fraction(c, scale) for c in a[d - 1][d - 1]])


def _times_gen(v: list[int], m: list[int], e: int) -> list[int]:
    """The numerators of theta * a over e times a's denominator, for v
    the numerators of a in Q[t]/(M/e), M in Z[t] with leading coefficient
    e: shift up one place, then replace e * theta**d by
    -(M_0 + ... + M_(d-1) theta**(d-1))."""
    top = v[-1]
    v = [0, *v[:-1]]
    if e != 1:
        v = [e * x for x in v]
    if top:
        v = [x - top * y for x, y in zip(v, m)]
    return v


def factor_over_K(
    K: NumberField, p: Poly
) -> tuple[NFElement, list[tuple[Poly, int]]]:
    """Factor over the number field K: unit content times monic
    irreducible factors with multiplicities, canonically sorted.

    Trager's method: shift x by s*t until the norm is squarefree, factor
    the norm over Q, recover the K-factors by gcd.
    """
    p = K.poly(p.coeffs)
    if K.degree == 1:
        content, factors = factor_over_Q(p)
        return K.from_rational(content), factors
    return _factor(K, p)


def _trager_shift(
    K: NumberField, g: Poly, factor: bool = False, norm0: Poly | None = None
) -> tuple[int, Poly, Poly, list[list[int]] | None]:
    """Smallest s >= 0 for which the norm of g shifted by s*theta is
    squarefree: returns (s, shifted g, norm, factors).  Over Q the norm
    at s = 0 is g itself; norm0, when given, is the norm at s = 0.  With
    factor, factors are the irreducible factors over Z of the primitive
    integer multiple of the norm, from the one zz_factor_squarefree call
    that proves it squarefree; otherwise they are None.

    The norm of g(x - s*theta) has the n*d roots beta + s*theta_j, for
    the d conjugates theta_j of theta and the roots beta of the matching
    conjugate of g (n = deg g, d = [K:Q]).  For squarefree g, two of them
    coincide only when beta + s*theta_j = beta' + s*theta_k with j != k,
    which fixes s, so at most C(n*d, 2) shifts are bad.  A norm N is
    accepted when a prime proves it squarefree: with factor, the first
    usable prime of Zassenhaus's own scan (zz.zz_squarefree_primes),
    otherwise _certified_squarefree.  Both give up within _CERT_PRIMES
    primes and _CERT_PAIRS failures, and only then does the exact
    gcd(N, N') decide; with factor, an N it proves squarefree is then
    factored with the scan unbounded.  When the first shift fails, one
    gcd(g, g') tells a bad shift from a repeated factor of g, and a g
    that is not squarefree raises NotIrreducible at once.  Over Q the
    first failure is final, since the norm is g.  When K != Q and every
    coefficient of g is rational, the search starts at s = 1.  So
    NotIrreducible is raised exactly when g is not squarefree, which is
    how _factor_squarefree tells _factor to run Yun.
    """
    # rational g has norm g**[K:Q] at s = 0, which is never squarefree
    rational = K.degree > 1 and all(c.is_rational() for c in g.coeffs)
    first = 1 if rational else 0
    for s in range(first, math.comb(g.degree * K.degree, 2) + 1):
        gs = g if s == 0 else g.shift(K.gen * -s)
        if K.degree == 1:
            norm = gs
        elif s == 0 and norm0 is not None:
            norm = norm0
        else:
            norm = norm_poly(K, gs)
        if factor:
            f = _to_primitive_int(norm)
            factors = zz.zz_factor_squarefree(f, within=(_CERT_PRIMES, _CERT_PAIRS))
            if factors is None and gcd(norm, norm.derivative()).degree == 0:
                factors = zz.zz_factor_squarefree(f)
            if factors is not None:
                return s, gs, norm, factors
        elif _certified_squarefree(norm) or gcd(norm, norm.derivative()).degree == 0:
            return s, gs, norm, None
        if s == first and (K.degree == 1 or gcd(g, g.derivative()).degree > 0):
            break
    raise NotIrreducible(f"{g!r} is not squarefree")


def _factor_squarefree(K: NumberField, g: Poly) -> list[Poly] | None:
    """Monic irreducible factors over K of a monic g, or None exactly when
    g is not squarefree.  Over Q the norm is g itself: its factors from
    the one Zassenhaus call of _trager_shift at s = 0, with coefficients
    of the same kind as g's (Fractions, or elements of g's degree-1
    field).  Over K != Q, Trager's method: the factors over Q of the
    squarefree norm of g(x - s*theta), each taken back to K by a gcd with
    the shifted g and shifted back."""
    if K.degree > 1 and g.degree == 1:
        return [g.monic()]
    try:
        s, gs, _, norm_factors = _trager_shift(K, g, factor=True)
    except NotIrreducible:
        return None
    if K.degree == 1:
        F = g.leading.field if isinstance(g.leading, NFElement) else None
        return [
            Poly([_reduced(F, (c,), h[-1]) if F else Fraction(c, h[-1]) for c in h])
            for h in norm_factors
        ]
    if len(norm_factors) == 1:
        return [g.monic()]
    out = []
    rest = gs
    for h in norm_factors:
        if rest.degree <= 0:
            break
        w = gcd(rest, K.poly(h))
        if w.degree == 0:
            continue
        rest = divrem(rest, w)[0]
        if s:
            w = w.shift(K.gen * s)
        out.append(w.monic())
    return out


# ---------------------------------------------------------------------------
# Tower flattening


@dataclass
class FlattenedExtension:
    """L = Q[u]/(g), isomorphic to K(alpha) for a root alpha of Q over K,
    and the Trager shift s that gave g: L.gen = alpha + s*theta."""

    field: NumberField
    alpha: NFElement
    shift: int


def flatten(
    K: NumberField,
    Q: Poly,
    trusted: bool = False,
    shift: tuple[int, Poly, Poly] | None = None,
) -> FlattenedExtension:
    """Flatten the tower K(alpha)/K/Q for Q irreducible over K: the
    absolute field L and the root alpha of Q in it.

    The primitive element is alpha + s*theta for the smallest shift s
    making the Trager norm squarefree; the norm is then irreducible and
    defines L with [L:Q] = [K:Q] * deg Q.  At s = 0, alpha is L.gen.
    When deg Q = 1, L is K itself; over K = Q it is Q[u]/(Q).  Callers
    that already know Q is irreducible pass trusted=True to skip the
    verification; one that also holds the (s, shifted Q, norm) at which
    _irreducible_shift proved Q irreducible passes it as shift, and no
    shift is searched for again.  The verification, when it runs, yields
    that triple itself.  The proof and the search both decide
    squarefreeness exactly, so both land on the same smallest s.
    """
    if Q.is_zero() or Q.degree < 1:
        raise NotIrreducible("need a nonconstant polynomial")
    Q = K.poly(Q.coeffs).monic()
    if Q.degree == 1:
        return FlattenedExtension(K, -Q.coeffs[0], 0)
    if not trusted:
        shift = _irreducible_shift(K, Q)
        if shift is None:
            raise NotIrreducible("reducible over the base field")
    if K.degree == 1:
        # irreducibility established above or vouched for by the caller
        L = NumberField(Poly([c.as_rational() for c in Q.coeffs]), trusted=True)
        return FlattenedExtension(L, L.gen, 0)
    s, _, norm = shift or _trager_shift(K, Q)[:3]
    L = NumberField(norm, trusted=True)
    gamma = L.gen
    if s == 0:
        return FlattenedExtension(L, gamma, 0)
    # theta's image: the shared root of the defining polynomial of K and
    # of Q with its coefficients rewritten as polynomials in y, evaluated
    # at x = gamma - s*y.  The gcd is linear because the norm is squarefree.
    m_L = L.poly(K.min_poly.coeffs)
    lin = Poly([gamma, L.from_rational(-s)])  # gamma - s*y
    acc = Poly(())
    for c in reversed(Q.coeffs):
        coord = c.coordinate_poly()  # in Q[y]
        acc = acc * lin + L.poly(coord.coeffs)
    g = gcd(m_L, acc)
    if g.degree != 1:
        raise RuntimeError("primitive element gcd was not linear")
    theta_L = -g.coeffs[0]
    return FlattenedExtension(L, gamma - theta_L * s, s)


# ---------------------------------------------------------------------------
# Radical membership


# Work bounds of the power-residue sieve: primes l scanned per call, and
# usable pairs (l, r) after which it gives up, the simple roots r of one
# prime counted together; _simple_roots tries residues up to l*[K:Q] = _ROOT_SCAN
_SIEVE_PRIMES = 40
_SIEVE_PAIRS = 8
_ROOT_SCAN = 2**10


def _simple_roots(K: NumberField, ell: int) -> list[int]:
    """The simple roots r of m = K.min_poly mod l, m(r) = 0 != m'(r), in
    increasing order; [] when l divides a denominator of m.  At such r,
    m = (x - r)*g + l*h with g(r) != 0 (mod l), so u - r = -l*h(u)/g(u)
    in the localization R of Z_(l)[u] = Z_(l)[x]/(m) at (l, u - r): (l) is
    its maximal ideal, R is a discrete valuation ring (Dedekind's
    criterion; Cohen, GTM 138, section 6.1), so it holds every element of
    K integral over Z_(l), and u -> r maps it onto GF(l), whether or not l
    divides disc(m).  Every residue is tried while l*[K:Q] <= _ROOT_SCAN
    or l = 2.  Past that, the simple roots other than 0 are those of
    gcd(m mod l, x**l - x) / gcd(., m') (von zur Gathen and Gerhard, Modern
    Computer Algebra, section 14.2), found already split in two by
    h = x**((l-1)/2) mod m, 1 at the nonzero squares and -1 at the other
    nonzero residues: gcd(m, h -+ 1) / gcd(., m'), each split by
    _intfactor.gf_linear_roots."""
    m, e = K._int_poly
    if e % ell == 0:
        return []
    m_ell = zz.gf_from_zz(_reduce(m, e, ell), ell)
    dm = zz.gf_diff(m_ell, ell)
    if ell * K.degree <= _ROOT_SCAN or ell == 2:
        return [r for r in range(ell) if not _horner(m_ell, r, ell) and _horner(dm, r, ell)]
    h = zz.gf_pow_mod([0, 1], (ell - 1) // 2, m_ell, ell)
    roots = [0] if not m_ell[0] and m_ell[1] else []
    for s in (1, ell - 1):
        g = zz.gf_gcd(m_ell, zz.gf_sub(h, [s], ell), ell)
        if len(g) > 1:
            roots += zz.gf_linear_roots(zz.gf_divmod(g, zz.gf_gcd(g, dm, ell), ell)[0], ell)
    return sorted(roots)


def _residue_sieve_rejects(L: NumberField, a: NFElement, n: int) -> bool:
    """True only when a degree-one prime of L proves that the nonzero a
    is not an n-th power in L; False proves nothing.

    The scan runs over the first _SIEVE_PRIMES primes l = 1 (mod n) that
    divide no denominator of a, at the simple roots r of m = L.min_poly
    mod l from _simple_roots.  If beta**n = a, then beta is integral over
    Z_(l), as a is, and its residue s at (l, u - r) has s**n = a(r).  So
    a(r)**((l-1)/n) is 1 where a(r) != 0, the n-th powers being the
    subgroup of GF(l)* of index n; any other value proves that a is not an
    n-th power.  By Kummer theory and Chebotarev's density theorem a
    non-n-th power fails at a positive density of primes (Lang, Algebra,
    VI section 8; Neukirch, Algebraic Number Theory, VII section 13), so a
    few usually settle it, within _SIEVE_PRIMES primes and _SIEVE_PAIRS.
    """
    pairs = 0
    for ell in islice(filter(is_prime, count(n + 1, n)), _SIEVE_PRIMES):
        roots = _simple_roots(L, ell) if a.den % ell else []
        if not roots:
            continue
        a_ell = _reduce(a.num, a.den, ell)
        for r in roots:
            v = _horner(a_ell, r, ell)
            if v and pow(v, (ell - 1) // n, ell) != 1:
                return True
        pairs += len(roots)
        if pairs >= _SIEVE_PAIRS:
            return False
    return False


def _horner(f: list[int], r: int, ell: int) -> int:
    """f(r) mod l for ascending coefficients f, by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = (v * r + c) % ell
    return v


def _reduce(num, den: int, mod: int) -> list[int]:
    """The residues mod mod of the numerators num over den, for den a
    unit mod mod: one inverse for the whole vector."""
    inv = pow(den, -1, mod)
    return [x * inv % mod for x in num]


# Work bounds of the l-adic lift: combinations of values at the roots of
# m_L mod l tried per call, and how many bits below sqrt(l**e / 2) a
# reconstructed numerator and denominator must stay, so that a wrong
# combination almost never reaches the exact check.  The precision l**e
# stops once the bound passes h_b/n + 4*d*(h_m + d) + 32 bits, for
# d = [L:Q], h_b and h_m the largest bit lengths of a numerator or
# denominator in b and in m_L: a root's conjugates are the n-th roots of
# b's, so its height is about h_b/n, and the rest covers the index and
# discriminant of m_L.  A root past the cap only sends the call to
# factoring.
_LIFT_COMBINATIONS = 16
_LIFT_MARGIN_BITS = 16


def _lifted_roots(L: NumberField, b: NFElement, n: int) -> list[NFElement] | None:
    """A root of x**n - b in L (n prime or 4, b nonzero) by l-adic
    lifting, as [beta] with beta**n == b proved; [] when a residue proves
    there is none; None when this route settles nothing.

    The prime l comes from L._certificate_primes: m = L.min_poly has
    d = [L:Q] simple roots r mod l, l divides neither n nor a denominator
    of b, and b(r) != 0 (mod l) at every root.  A root beta is integral
    over Z_(l), as b is, so its residue s at each prime (l, u - r) of
    _simple_roots has s**n = b(r): if some b(r) has no n-th root in GF(l),
    found by trying residues, there is no beta.  Otherwise the roots of m
    and the values s are lifted together by Newton's iteration modulo
    l**e, e doubling up to the cap set out above _LIFT_COMBINATIONS, which
    needs only that m'(r) and n*s**(n-1) are units mod l; the coordinates
    of beta are their Lagrange interpolation, each read back by rational
    reconstruction (von zur Gathen and Gerhard, Modern Computer Algebra,
    section 5.10 and chapter 9).  For even n, -beta is a root with beta,
    so the value at the first root is tried up to sign.
    """
    d = L.degree
    for ell, roots in L._certificate_primes():
        if len(roots) < d or n % ell == 0 or b.den % ell == 0:
            continue
        b_ell = _reduce(b.num, b.den, ell)
        values = [_horner(b_ell, r, ell) for r in roots]
        if not all(values):
            continue
        cands = [[s for s in range(1, ell) if pow(s, n, ell) == v] for v in values]
        if not all(cands):
            return []
        if n % 2 == 0:
            cands[0] = [s for s in cands[0] if 2 * s < ell]
        if math.prod(map(len, cands)) <= _LIFT_COMBINATIONS:
            break
    else:
        return None
    h_b = max(x.bit_length() for pair in b.sort_key() for x in pair)
    h_m = max(x.bit_length() for c in L.min_poly.coeffs for x in (c.numerator, c.denominator))
    m, m_den = L._int_poly
    need = h_b // n + 4 * d * (h_m + d) + 32 + _LIFT_MARGIN_BITS
    # the least e with l**e >= 2**(2*need + 1), by l >= 2**(bit_length - 1)
    e, top = 1, -(-(2 * need + 1) // (ell.bit_length() - 1))
    while e < top:
        e = min(2 * e, top)
        mod = ell**e
        m_mod = _reduce(m, m_den, mod)
        dm_mod = [i * c for i, c in enumerate(m_mod)][1:]
        roots = [
            (r - _horner(m_mod, r, mod) * pow(_horner(dm_mod, r, mod), -1, mod)) % mod
            for r in roots
        ]
        b_mod = _reduce(b.num, b.den, mod)
        cands = [
            [(s - (pow(s, n, mod) - v) * pow(n * pow(s, n - 1, mod), -1, mod)) % mod
             for s in ss]
            for ss, v in zip(cands, (_horner(b_mod, r, mod) for r in roots))
        ]
        # Lagrange basis: basis[i](r_j) = [i == j] (mod l**e)
        basis = []
        for i, ri in enumerate(roots):
            row, scale = [1], 1
            for j, rj in enumerate(roots):
                if j != i:
                    row = [(a - rj * c) % mod for a, c in zip([0, *row], [*row, 0])]
                    scale = scale * (ri - rj) % mod
            inv = pow(scale, -1, mod)
            basis.append([c * inv % mod for c in row])
        bound = math.isqrt(mod >> 1) >> _LIFT_MARGIN_BITS
        for combo in product(*cands):
            coords = []
            for k in range(d):
                q = _rational_reconstruction(
                    sum(s * row[k] for s, row in zip(combo, basis)) % mod, mod, bound
                )
                if q is None:
                    break
                coords.append(q)
            else:
                den = math.lcm(*(y for _, y in coords))
                beta = _reduced(L, [x * (den // y) for x, y in coords], den)
                if beta**n == b:
                    return [beta]
    return None


def _rational_reconstruction(a: int, mod: int, bound: int) -> tuple[int, int] | None:
    """The fraction x/y = a (mod mod) as (x, y) with |x|, 0 < y <= bound,
    if one exists, for 2*bound**2 < mod: the first remainder of the
    extended Euclidean algorithm on (mod, a) that falls to the bound, over
    its cofactor (von zur Gathen and Gerhard, section 5.10)."""
    r0, r1, t0, t1 = mod, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not t1 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _nth_root(L: NumberField, b: NFElement, n: int) -> NFElement | None:
    """A root of x**n - b in L, or None when there is none, for a nonzero b.

    Three steps, each exact.  A power-residue sieve (_residue_sieve_rejects)
    first tests b(r)**((l-1)/n) at the simple roots r of m_L mod l, for
    some l = 1 (mod n) prime to the denominators; where b is not an n-th
    power residue, a root beta would be l-integral and map to an n-th root
    of b(r) in GF(l), so there is none (Lang, Algebra, VI section 8).
    Then _lifted_roots lifts candidate roots l-adically and
    returns one with beta**n == b, or proves there is none.  Otherwise
    x**n - b is factored over L and a root is read off its first linear
    factor.  Neither route decides anything the other would decide
    differently, so the answer does not depend on which one ran.  The
    degree cap holds n before either route, and the degree n * [L:Q] of
    the Trager norm before the factoring.
    """
    if b.is_zero():
        raise ZeroElement("radical test needs a nonzero element")
    if _residue_sieve_rejects(L, b, n):
        return None
    config.check_degree(1, n)
    roots = _lifted_roots(L, b, n)
    if roots is not None:
        return roots[0] if roots else None
    config.check_degree(L.degree, n)
    _, factors = factor_over_K(L, substitute_power(Poly([-b, L.one]), n))
    return next((-(w.coeffs[0]) for w, _ in factors if w.degree == 1), None)


def pth_root_in_field(
    L: NumberField, a: NFElement, p: int
) -> NFElement | None:
    """A beta in L with beta**p = a, if one exists (p prime), verified by
    beta**p == a or read off a linear factor of x**p - a."""
    return _nth_root(L, a, p)


def in_minus4_fourth_powers(L: NumberField, a: NFElement) -> NFElement | None:
    """A gamma in L with -4*gamma**4 = a, if a lies in -4*L**4: a root of
    x**4 + a/4 = x**4 - (-a/4), found as pth_root_in_field finds beta."""
    return _nth_root(L, a * Fraction(-1, 4), 4)


# ---------------------------------------------------------------------------
# Minimal polynomials and heights


def minimal_polynomial(a: NFElement) -> Poly:
    """Monic minimal polynomial of a over Q.

    The characteristic polynomial chi = N(x - a) from norm_poly is
    mp**k with k = [K:Q(a)].  chi is rational, so _certified_squarefree's
    prime scan over Q applies: when it proves chi squarefree, k = 1.
    Otherwise the exact k-th root of chi is tried for each divisor k > 1
    of deg chi, largest first, and built up to r**k
    only when r(0)**k == chi(0).  As mp is irreducible, r**k == chi = mp**j
    forces r = mp**(j/k), so the first k that passes is j itself and
    r = mp; if none passes, j = 1 and chi = mp.  A rational a has x - a.
    """
    if a.is_rational():
        return Poly([-a.as_rational(), Fraction(1)])
    K = a.field
    chi = norm_poly(K, Poly([-a, K.one]))
    if _certified_squarefree(chi):
        return chi
    for k in range(chi.degree, 1, -1):
        if chi.degree % k == 0:
            r = _monic_root(chi, k)
            if r.coeffs[0] ** k != chi.coeffs[0]:
                continue
            power = r
            for _ in range(k - 1):
                power = power * r
            if power == chi:
                return r
    return chi


def _monic_root(f: Poly, k: int) -> Poly:
    """The only monic candidate r for a k-th root of the monic f, k
    dividing deg f; r is one exactly when r**k == f.  The reversed
    polynomial g = x**deg f * f(1/x) has g(0) = 1, and its power series
    h = g**(1/k) has h(0) = 1 and, from h' g = (1/k) g' h,
    j h_j = sum_{i=1..j} ((1/k + 1) i - j) g_i h_(j-i) (Knuth, TAOCP 2,
    section 4.7); r is h truncated at degree deg f / k, reversed."""
    g = f.coeffs[::-1]
    e = f.degree // k
    alpha = Fraction(1, k) + 1
    h = [Fraction(1)]
    for j in range(1, e + 1):
        h.append(sum((alpha * i - j) * g[i] * h[j - i] for i in range(1, j + 1)) / j)
    return Poly(h[::-1])


_LOG2 = math.log(2)
_GRAEFFE_STEPS = 8


def mahler_measure_upper(int_poly: list[int]) -> float:
    """Certified upper bound on log of the Mahler measure of an integer
    polynomial, by _GRAEFFE_STEPS Graeffe iterations and the L2 (Landau)
    bound.

    Each Graeffe step squares the measure, so the Landau bound after k
    steps overshoots by at most (deg/2)*log(2)/2**k.
    """
    f = list(int_poly)
    scale = 1
    for _ in range(_GRAEFFE_STEPS):
        even = f[0::2]
        odd = f[1::2]
        sq_even = zz.zz_mul(even, even)
        sq_odd = zz.zz_mul(odd, odd)
        g = [0] * (len(f))
        for i, c in enumerate(sq_even):
            g[i] += c
        for i, c in enumerate(sq_odd):
            g[i + 1] -= c
        f = zz.zz_strip(g) or [0]
        scale *= 2
    s = sum(c * c for c in f)
    # log(s)/2 <= bit_length(s) * log(2) / 2, rounded outward
    log_norm = s.bit_length() * _LOG2 / 2
    return log_norm / scale * (1 + 1e-12) + 1e-12
