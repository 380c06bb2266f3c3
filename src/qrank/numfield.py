"""Number fields Q[t]/(m(t)): element arithmetic, norms, minimal
polynomials, factorization over Q (Zassenhaus) and over extensions
(Trager's norm method), tower flattening, radical membership tests, and
certified height upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import _intfactor as zz
from .errors import (
    DivisionByZero,
    NotIrreducible,
    ZeroElement,
    ZeroPolynomial,
)
from .poly import Poly, divrem, gcd, resultant, sorted_factors

Rat = Fraction


class NumberField:
    """Q[t]/(m(t)) for a monic irreducible m over Q; degree 1 is Q itself.

    Irreducibility is verified at construction unless the defining
    polynomial is already known irreducible (internal callers).
    """

    __slots__ = ("min_poly", "degree", "_red_rows", "_gen")

    def __init__(self, min_poly: Poly, trusted: bool = False):
        if min_poly.is_zero() or not min_poly.is_monic():
            raise NotIrreducible("defining polynomial must be monic")
        d = min_poly.degree
        if d < 1:
            raise NotIrreducible("defining polynomial must have degree >= 1")
        coeffs = tuple(Fraction(c) for c in min_poly.coeffs)
        min_poly = Poly(coeffs)
        if not trusted and d > 1 and not is_irreducible(QQ, min_poly):
            raise NotIrreducible(f"{min_poly!r} is reducible over Q")
        self.min_poly = min_poly
        self.degree = d
        # t**(d+i) mod m for i = 0..d-2, as coordinate rows
        rows = []
        if d > 1:
            cur = [-c for c in coeffs[:d]]
            rows.append(tuple(cur))
            for _ in range(d - 2):
                nxt = [Fraction(0)] + cur[: d - 1]
                top = cur[d - 1]
                if top:
                    for i in range(d):
                        nxt[i] += top * -coeffs[i]
                cur = nxt
                rows.append(tuple(cur))
        self._red_rows = tuple(rows)
        gen_coords = [Fraction(0)] * d
        if d == 1:
            # Q[t]/(t - c): the generator is the rational c itself.
            gen_coords[0] = -coeffs[0]
        else:
            gen_coords[1] = Fraction(1)
        self._gen = NFElement(self, tuple(gen_coords))

    @property
    def gen(self) -> NFElement:
        return self._gen

    def element(self, coords) -> NFElement:
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree and all(c == 0 for c in cs[self.degree :]):
            cs = cs[: self.degree]
        if len(cs) != self.degree:
            raise ValueError(
                f"expected {self.degree} coordinates, got {len(cs)}"
            )
        return NFElement(self, tuple(cs))

    def from_rational(self, r) -> NFElement:
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(r)
        return NFElement(self, tuple(coords))

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

    def is_rational_field(self) -> bool:
        return self.degree == 1

    def same_as(self, other: "NumberField") -> bool:
        return self is other or self.min_poly == other.min_poly

    def __repr__(self) -> str:
        if self.degree == 1:
            return "NumberField(Q)"
        return f"NumberField({self.min_poly!r})"


class NFElement:
    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple):
        self.field = field
        self.coords = coords

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
        return NFElement(
            self.field, tuple(a + b for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return NFElement(
            self.field, tuple(a - b for a, b in zip(self.coords, o.coords))
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElement(self.field, tuple(a * other for a in self.coords))
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.field.degree
        if d == 1:
            return NFElement(self.field, (self.coords[0] * o.coords[0],))
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        conv[i + j] += a * b
        out = conv[:d]
        rows = self.field._red_rows
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = rows[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return NFElement(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "NFElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        d = self.field.degree
        if d == 1:
            return NFElement(self.field, (1 / self.coords[0],))
        # extended gcd of the coordinate polynomial with min_poly
        a = self.coordinate_poly()
        m = self.field.min_poly
        r0, r1 = m, a
        t0, t1 = Poly(()), Poly([Fraction(1)])
        while not r1.is_zero():
            q, r = divrem(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        # r0 = gcd = nonzero constant since m is irreducible and a != 0
        c = r0.coeffs[0]
        inv_poly = t0.scale(1 / c)
        coords = list(inv_poly.coeffs) + [Fraction(0)] * d
        return NFElement(self.field, tuple(coords[:d]))

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
        if isinstance(other, (int, Fraction)):
            return self.coords[0] == other and all(
                c == 0 for c in self.coords[1:]
            )
        if isinstance(other, NFElement):
            return (
                self.field.same_as(other.field) and self.coords == other.coords
            )
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return any(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coords[0]

    def coordinate_poly(self) -> Poly:
        return Poly(self.coords)

    def sort_key(self):
        return tuple((c.numerator, c.denominator) for c in self.coords)

    def norm(self) -> Fraction:
        """Field norm down to Q: the resultant of min_poly with the
        coordinate polynomial (min_poly is monic, so no scaling)."""
        if self.is_zero():
            return Fraction(0)
        if self.field.degree == 1:
            return self.coords[0]
        return resultant(self.field.min_poly, self.coordinate_poly())

    def __repr__(self):
        return f"NFElement({list(self.coords)})"


QQ = NumberField(Poly([Fraction(0), Fraction(1)]), trusted=True)


@dataclass(frozen=True)
class Obstruction:
    """Why a polynomial fails to stay irreducible under x -> x**n."""

    kind: str  # "pth_power" or "minus_four"
    p: int | None = None

    @staticmethod
    def pth_power(p: int) -> "Obstruction":
        from .arith import is_prime

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


def _to_primitive_int(f: Poly) -> list[int]:
    """Scale a rational polynomial to a primitive integer list, lc > 0."""
    denlcm = 1
    for c in f.coeffs:
        denlcm = denlcm * c.denominator // math.gcd(denlcm, c.denominator)
    ints = [int(c * denlcm) for c in f.coeffs]
    ints = zz.zz_primitive(ints)
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _from_int_monic(f: list[int]) -> Poly:
    lc = f[-1]
    return Poly([Fraction(c, lc) for c in f])


def _factor_squarefree_over_Q(g: Poly) -> list[Poly]:
    """Monic irreducible factors over Q of a squarefree g (Zassenhaus)."""
    ints = _to_primitive_int(g)
    return [_from_int_monic(h) for h in zz.zz_factor_squarefree(ints)]


def _factor(
    p: Poly, factor_squarefree: Callable[[Poly], list[Poly]]
) -> tuple[object, list[tuple[Poly, int]]]:
    """The front end shared by every field: leading coefficient, then the
    power of x, then Yun once, each squarefree part split by the field's
    own factor_squarefree; factors canonically sorted."""
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
    for g, mult in squarefree_decomposition(f):
        factors.extend((w, mult) for w in factor_squarefree(g))
    return content, sorted_factors(factors)


def factor_over_Q(p: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Factor over Q: content times monic irreducible factors with
    multiplicities, canonically sorted."""
    content, factors = _factor(p, _factor_squarefree_over_Q)
    return Fraction(content), factors


def is_irreducible(K: NumberField, p: Poly) -> bool:
    """Whether p is irreducible over K: one factor, multiplicity one."""
    _, factors = factor_over_K(K, p)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# Factorization over an extension (Trager)


def _interpolate(xs: list[Fraction], ys: list[Fraction]) -> Poly:
    """Newton divided-difference interpolation, exact."""
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = Poly(())
    for i in range(n - 1, -1, -1):
        out = out * Poly([-xs[i], Fraction(1)]) + Poly([coef[i]])
    return out


def _sample_points(n: int) -> list[Fraction]:
    pts = [Fraction(0)]
    v = 1
    while len(pts) < n:
        pts.append(Fraction(v))
        if len(pts) < n:
            pts.append(Fraction(-v))
        v += 1
    return pts


def norm_poly(K: NumberField, f: Poly) -> Poly:
    """Norm from K[x] down to Q[x] of a monic f, by evaluation and
    interpolation of the resultant with the defining polynomial."""
    if K.degree == 1:
        return _rational_coeffs(f)
    n = K.degree * f.degree + 1
    xs = _sample_points(n)
    ys = [f.evaluate(K.from_rational(x)).norm() for x in xs]
    return _interpolate(xs, ys)


def _rational_coeffs(f: Poly) -> Poly:
    return Poly(
        [
            c.as_rational() if isinstance(c, NFElement) else Fraction(c)
            for c in f.coeffs
        ]
    )


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
        content_q, factors_q = factor_over_Q(_rational_coeffs(p))
        return (
            K.from_rational(content_q),
            [(K.poly(f.coeffs), m) for f, m in factors_q],
        )
    return _factor(p, lambda g: _factor_squarefree_over_K(K, g))


def _trager_shift(K: NumberField, g: Poly) -> tuple[int, Poly, Poly]:
    """Smallest s >= 0 for which the norm of g shifted by s*theta is
    squarefree: returns (s, shifted g, norm)."""
    s = 0
    while True:
        gs = g if s == 0 else g.shift(K.gen * Fraction(-s))
        norm = norm_poly(K, gs)
        if gcd(norm, norm.derivative()).degree == 0:
            return s, gs, norm
        s += 1


def _factor_squarefree_over_K(K: NumberField, g: Poly) -> list[Poly]:
    if g.degree == 1:
        return [g.monic()]
    s, gs, norm = _trager_shift(K, g)
    # the norm is squarefree: Zassenhaus directly, no second Yun
    norm_factors = _factor_squarefree_over_Q(norm)
    if len(norm_factors) == 1:
        return [g.monic()]
    out = []
    rest = gs
    for h in norm_factors:
        if rest.degree <= 0:
            break
        w = gcd(rest, K.poly(h.coeffs))
        if w.degree == 0:
            continue
        rest = divrem(rest, w)[0]
        if s:
            w = w.shift(K.gen * Fraction(s))
        out.append(w.monic())
    return out


# ---------------------------------------------------------------------------
# Tower flattening


@dataclass
class FlattenedExtension:
    """L = Q[u]/(g) isomorphic to K(alpha) for a root alpha of Q over K."""

    field: NumberField
    alpha: NFElement
    embed: Callable[[NFElement], NFElement]
    shift: int

    @property
    def degree(self) -> int:
        return self.field.degree


def flatten(
    K: NumberField, Q: Poly, trusted: bool = False
) -> FlattenedExtension:
    """Flatten the tower K(alpha)/K/Q for Q irreducible over K.

    The primitive element is alpha + s*theta for the smallest shift s
    making the Trager norm squarefree; the norm is then irreducible and
    defines L with [L:Q] = [K:Q] * deg Q.  Callers that already know Q
    is irreducible pass trusted=True to skip the verification.
    """
    if Q.is_zero() or Q.degree < 1:
        raise NotIrreducible("need a nonconstant polynomial")
    Q = K.poly(Q.coeffs).monic()
    if not trusted and Q.degree > 1 and not is_irreducible(K, Q):
        raise NotIrreducible(f"{Q!r} is reducible over the base field")
    if Q.degree == 1:
        alpha = -Q.coeffs[0]
        return FlattenedExtension(K, alpha, lambda e: e, 0)
    if K.degree == 1:
        # irreducibility established above or vouched for by the caller
        L = NumberField(_rational_coeffs(Q), trusted=True)
        return FlattenedExtension(
            L, L.gen, lambda e, L=L: L.from_rational(e.as_rational()), 0
        )
    s, _, norm = _trager_shift(K, Q)
    L = NumberField(norm, trusted=True)
    gamma = L.gen
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
    alpha = gamma - theta_L * Fraction(s)
    powers = [L.one]
    for _ in range(K.degree - 1):
        powers.append(powers[-1] * theta_L)

    def embed(e: NFElement) -> NFElement:
        acc = L.zero
        for a, pw in zip(e.coords, powers):
            if a:
                acc = acc + pw * a
        return acc

    return FlattenedExtension(L, alpha, embed, s)


# ---------------------------------------------------------------------------
# Radical membership


def linear_roots(K: NumberField, f: Poly) -> list[NFElement]:
    """Roots of f lying in K, read off the linear factors."""
    _, factors = factor_over_K(K, f)
    return [-(w.coeffs[0]) for w, _ in factors if w.degree == 1]


def pth_root_in_field(
    L: NumberField, a: NFElement, p: int
) -> NFElement | None:
    """A beta in L with beta**p = a, if one exists (p prime)."""
    if a.is_zero():
        raise ZeroElement("radical test needs a nonzero element")
    f = Poly([-a] + [L.zero] * (p - 1) + [L.one])
    roots = linear_roots(L, f)
    if not roots:
        return None
    return min(roots, key=lambda r: r.sort_key())


def is_pth_power(L: NumberField, a: NFElement, p: int) -> bool:
    """Whether a is a p-th power in L, by factoring x**p - a over L and
    searching for a linear factor."""
    return pth_root_in_field(L, a, p) is not None


def in_minus4_fourth_powers(L: NumberField, a: NFElement) -> bool:
    """Whether a lies in -4*L**4: a linear factor of x**4 + a/4 over L."""
    if a.is_zero():
        raise ZeroElement("radical test needs a nonzero element")
    quarter = a * Fraction(1, 4)
    f = Poly([quarter, L.zero, L.zero, L.zero, L.one])
    return bool(linear_roots(L, f))


# ---------------------------------------------------------------------------
# Minimal polynomials and heights


def minimal_polynomial(a: NFElement) -> Poly:
    """Monic minimal polynomial of a over Q, by linear algebra on the
    power basis coordinates."""
    d = a.field.degree
    if d == 1:
        return Poly([-a.coords[0], Fraction(1)])
    powers = [a.field.one]
    for _ in range(d):
        powers.append(powers[-1] * a)
    # find the first k where 1, a, ..., a^k is dependent
    rows: list[list[Fraction]] = []  # reduced echelon rows
    combos: list[list[Fraction]] = []  # expression of each row in powers
    for k, pw in enumerate(powers):
        v = list(pw.coords)
        combo = [Fraction(0)] * (d + 1)
        combo[k] = Fraction(1)
        for row, rc in zip(rows, combos):
            lead = next(i for i, c in enumerate(row) if c != 0)
            if v[lead]:
                factor = v[lead]
                v = [x - factor * y for x, y in zip(v, row)]
                combo = [x - factor * y for x, y in zip(combo, rc)]
        if not any(v):
            # combo gives sum combo[i] * a^i = 0 with combo[k] = 1
            return Poly(combo[: k + 1])
        lead = next(i for i, c in enumerate(v) if c != 0)
        inv = 1 / v[lead]
        rows.append([x * inv for x in v])
        combos.append([x * inv for x in combo])
    raise RuntimeError("power basis produced no dependency")  # unreachable


_LOG2 = math.log(2)


def mahler_measure_upper(int_poly: list[int], iterations: int = 8) -> float:
    """Certified upper bound on log of the Mahler measure of an integer
    polynomial, by Graeffe iteration and the L2 (Landau) bound.

    Each Graeffe step squares the measure, so the Landau bound after k
    steps overshoots by at most (deg/2)*log(2)/2**k.
    """
    f = list(int_poly)
    scale = 1
    for _ in range(iterations):
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


def weil_height_upper(a: NFElement, iterations: int = 8) -> float:
    """Certified upper bound on the absolute logarithmic Weil height,
    from the integer minimal polynomial via root-modulus (Mahler
    measure) bounds with outward rounding."""
    if a.is_zero():
        raise ZeroElement("height of zero is undefined")
    mp = minimal_polynomial(a)
    ints = _to_primitive_int(mp)
    return mahler_measure_upper(ints, iterations) / mp.degree


def weil_height(a: NFElement) -> float:
    return weil_height_upper(a)
