"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import count, islice

from qrank._intfactor import gf_factor_squarefree, gf_from_zz, gf_is_squarefree, gf_monic
from qrank.arith import is_prime, primes_upto
from qrank.hereditary import has_root_of_unity_root
from qrank.numfield import (
    QQ,
    NFElement,
    NumberField,
    factor_over_K,
    factor_over_Q,
    flatten,
    mahler_measure_upper,
    minimal_polynomial,
    _SIEVE_PAIRS,
    _SIEVE_PRIMES,
    _to_primitive_int,
)
from qrank.poly import Poly, divrem, gcd, substitute_power


def qpoly(*coeffs) -> Poly:
    return Poly([Fraction(c) for c in coeffs])


def gaussian_field() -> NumberField:
    return NumberField(qpoly(1, 0, 1))  # t^2 + 1


def sqrt2_field() -> NumberField:
    return NumberField(qpoly(-2, 0, 1))  # t^2 - 2


def sqrt3_field() -> NumberField:
    return NumberField(qpoly(-3, 0, 1))  # t^2 - 3


def sqrtm3_field() -> NumberField:
    return NumberField(qpoly(3, 0, 1))  # t^2 + 3


def sieve_fields() -> list[NumberField]:
    """Q(i), Q(sqrt2), Q(sqrt-3), a cubic with a non-integral defining
    polynomial, and the quartic that flatten gives for the reciprocal unit
    x^4 + 3x^3 + 3x + 1 over Q."""
    return [
        gaussian_field(),
        sqrt2_field(),
        sqrtm3_field(),
        NumberField(qpoly(Fraction(-1, 3), Fraction(1, 2), 0, 1)),
        flatten(QQ, qpoly(1, 3, 0, 3, 1)).field,
    ]


def cyclotomic(n: int) -> Poly:
    """Phi_n by dividing x^n - 1 by all lower cyclotomics."""
    f = qpoly(*([-1] + [0] * (n - 1) + [1]))
    for d in range(1, n):
        if n % d == 0:
            f = divrem(f, cyclotomic(d))[0]
    return f


def evaluate(p: Poly, x):
    """p(x) by Horner's rule, for a scalar x."""
    acc = x * 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def roots_in(L: NumberField, f: Poly) -> list[NFElement]:
    """The roots in L of a polynomial f over Q, read off the linear
    factors of f over L."""
    _, factors = factor_over_K(L, L.poly(f.coeffs))
    return [-(w.coeffs[0]) for w, _ in factors if w.degree == 1]


def resultant(f: Poly, g: Poly):
    """Res(f, g) = lc(f)**deg(g) * prod of g over the roots of f, by the
    Euclidean remainder sequence."""
    sign_flip = False
    acc = f.leading**0
    a, b = f, g
    while True:
        if b.degree == 0:
            acc = acc * b.leading**a.degree
            break
        r = divrem(a, b)[1]
        if r.is_zero():
            return f.leading * 0
        acc = acc * b.leading ** (a.degree - r.degree)
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign_flip = not sign_flip
        a, b = b, r
    return -acc if sign_flip else acc


class FractionElement:
    """The reference element: power-basis coordinates as a tuple of
    Fractions, each operation coordinate by coordinate, as NFElement was
    held before it moved to integer numerators over one denominator.  The
    field supplies only its defining polynomial."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    @classmethod
    def of(cls, a: NFElement) -> "FractionElement":
        return cls(a.field, a.coords)

    def _rows(self):
        """t**(d+i) mod m for i = 0..d-2, as Fraction coordinate rows."""
        m, d = self.field.min_poly.coeffs, self.field.degree
        rows, cur = [], [Fraction(0)] * (d - 1) + [Fraction(1)]
        for _ in range(d - 1):
            top, cur = cur[-1], [Fraction(0), *cur[:-1]]
            cur = [x - top * y for x, y in zip(cur, m)]
            rows.append(cur)
        return rows

    def _lift(self, other):
        if isinstance(other, FractionElement):
            return other
        return FractionElement(self.field, [other] + [0] * (self.field.degree - 1))

    def __add__(self, other):
        o = self._lift(other)
        return FractionElement(self.field, [a + b for a, b in zip(self.coords, o.coords)])

    def __neg__(self):
        return FractionElement(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        o = self._lift(other)
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(o.coords):
                conv[i + j] += a * b
        out = conv[:d]
        for c, row in zip(conv[d:], self._rows()):
            out = [x + c * y for x, y in zip(out, row)]
        return FractionElement(self.field, out)

    def inverse(self) -> "FractionElement":
        """By the extended Euclidean algorithm on the coordinate
        polynomial and the defining polynomial."""
        d = self.field.degree
        r0, r1 = self.field.min_poly, Poly(self.coords)
        t0, t1 = Poly(()), Poly([Fraction(1)])
        while not r1.is_zero():
            q, r = divrem(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        coords = list(t0.scale(1 / r0.coeffs[0]).coeffs) + [Fraction(0)] * d
        return FractionElement(self.field, coords[:d])

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self._lift(1)
        for _ in range(e):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coords[0] == other and not any(self.coords[1:])
        return self.coords == other.coords

    def __hash__(self):
        if self.is_rational():
            return hash(self.coords[0])
        return hash(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def as_rational(self) -> Fraction:
        assert self.is_rational()
        return self.coords[0]

    def sort_key(self):
        return tuple((c.numerator, c.denominator) for c in self.coords)

    def norm(self) -> Fraction:
        if not any(self.coords):
            return Fraction(0)
        return Fraction(resultant(self.field.min_poly, Poly(self.coords)))


def element_norm_reference(a: NFElement) -> Fraction:
    """Field norm of a down to Q as the resultant of the monic defining
    polynomial with the coordinate polynomial of a, with no determinant."""
    if a.is_zero():
        return Fraction(0)
    return resultant(a.field.min_poly, a.coordinate_poly())


def norm_poly_reference(K: NumberField, f: Poly) -> Poly:
    """Norm from K[x] down to Q[x] of a monic f by evaluation and
    interpolation: the resultant of f(a) with the defining polynomial at
    deg f * [K:Q] + 1 rational points a (element_norm_reference), then
    Newton divided differences."""
    if K.degree == 1:
        return Poly([Fraction(c) for c in f.coeffs])
    xs = [Fraction(0)]
    v = 1
    while len(xs) < K.degree * f.degree + 1:
        xs += [Fraction(v), Fraction(-v)]
        v += 1
    xs = xs[: K.degree * f.degree + 1]
    coef = [element_norm_reference(evaluate(f, K.from_rational(x))) for x in xs]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = Poly(())
    for i in range(len(xs) - 1, -1, -1):
        out = out * Poly([-xs[i], Fraction(1)]) + Poly([coef[i]])
    return out


def squarefree_decomposition_reference(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm by Euclidean gcds alone, with no modular squarefree
    certificate: [(g_i, i)] with the monic f = prod g_i**i."""
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


def pth_root_reference(L: NumberField, a: NFElement, n: int) -> NFElement | None:
    """The exact-only radical test: a root of x**n - a read off the first
    linear factor of its factorization over L, or None.  The reference for
    in_minus4_fourth_powers(L, a) is whether pth_root_reference(L, -a/4, 4)
    is not None."""
    f = Poly([-a] + [L.zero] * (n - 1) + [L.one])
    _, factors = factor_over_K(L, f)
    return next((-(w.coeffs[0]) for w, _ in factors if w.degree == 1), None)


def height_prime_bound_reference(L: NumberField, a: NFElement) -> int:
    """The height bound on the power test's primes, which every root had
    before non-units took theirs from the end coefficients and which
    units keep: ceil(h(a) / h_min) for an a of L that is no root of
    unity, h(a) the certified upper bound from
    mahler_measure_upper and h_min a floor on the height of any
    non-torsion beta of L whose p-th power could be a, whose degree is a
    multiple of deg(a) dividing [L:Q]: log 2 for degree 1, the
    golden-ratio minimum for degree 2, Voutier's floor for an even degree
    when a is reciprocal and Smyth's nonreciprocal minimum otherwise.
    Every constant is rounded down, so the bound rounds up."""
    ints = _to_primitive_int(minimal_polynomial(a))
    deg_a = len(ints) - 1
    reciprocal = ints[::-1] in (ints, [-c for c in ints])
    floors = []
    for d in range(deg_a, L.degree + 1, deg_a):
        if L.degree % d:
            continue
        if d == 1:
            floors.append(0.6931)
        elif d == 2:
            floors.append(0.2406)
        elif d % 2 == 1 or not reciprocal:
            floors.append(0.2811 / d)
        else:
            floors.append((math.log(math.log(d)) / math.log(d)) ** 3 / (4 * d) * (1 - 1e-9))
    return max(1, math.ceil(mahler_measure_upper(ints) / deg_a / min(floors)))


def residue_sieve_reference(L: NumberField, a: NFElement, n: int) -> bool:
    """The power-residue sieve by its definition.  Over the first
    _SIEVE_PRIMES primes l = 1 (mod n) that divide no denominator of a or
    of m = L.min_poly, the simple roots r of m mod l (m(r) = 0, m'(r) != 0)
    are found by trying every residue: True at the first r with a(r) != 0
    and a(r)**((l-1)/n) != 1 (mod l), False once _SIEVE_PAIRS roots have
    passed, the roots of one prime counted together."""
    m = L.min_poly.coeffs
    dm = [i * c for i, c in enumerate(m)][1:]

    def mod(c, ell):
        return c.numerator * pow(c.denominator, -1, ell) % ell

    def value(coeffs, r, ell):
        return sum(mod(c, ell) * pow(r, i, ell) for i, c in enumerate(coeffs)) % ell

    pairs = 0
    for ell in islice(filter(is_prime, count(n + 1, n)), _SIEVE_PRIMES):
        if any(c.denominator % ell == 0 for c in (*m, *a.coords)):
            continue
        roots = [r for r in range(ell) if value(m, r, ell) == 0 and value(dm, r, ell)]
        for r in roots:
            v = value(a.coords, r, ell)
            if v and pow(v, (ell - 1) // n, ell) != 1:
                return True
        pairs += len(roots)
        if pairs >= _SIEVE_PAIRS:
            return False
    return False


def reduct_spectrum_reference(K: NumberField, P: Poly, n: int) -> list[int]:
    """Sorted degrees, with multiplicity, of the irreducible factors of
    P(x**n) over K, by factoring P(x**n) directly."""
    _, factors = factor_over_K(K, substitute_power(P, n))
    return sorted(w.degree for w, m in factors for _ in range(m))


def random_monic(rng: random.Random, deg: int, bound: int = 10) -> Poly:
    coeffs = [Fraction(rng.randint(-bound, bound)) for _ in range(deg)]
    return Poly(coeffs + [Fraction(1)])


def random_irreducible(
    rng: random.Random,
    max_deg: int,
    bound: int = 10,
    forbid_root_of_unity: bool = True,
) -> Poly:
    """Rejection-sample a monic irreducible over Q with nonzero constant
    term and (optionally) no cyclotomic roots."""
    while True:
        deg = rng.randint(1, max_deg)
        p = random_monic(rng, deg, bound)
        if p.coeffs[0] == 0:
            continue
        _, factors = factor_over_Q(p)
        if len(factors) != 1 or factors[0][1] != 1:
            continue
        if forbid_root_of_unity and has_root_of_unity_root(QQ, p):
            continue
        return p


def modular_degree_pattern_ok(
    f: Poly, rng: random.Random, trials: int = 5
) -> bool:
    """Independent spot check for a claimed irreducible f over Q: reduce
    modulo several primes where f stays squarefree; the modular
    irreducible degrees must form a partition of deg f every time."""
    ints = _to_primitive_int(f)
    candidates = [p for p in primes_upto(500) if p > 2]
    checked = 0
    while checked < trials and candidates:
        p = candidates.pop(rng.randrange(len(candidates)))
        if ints[-1] % p == 0:
            continue
        F = gf_monic(gf_from_zz(ints, p), p)
        if not gf_is_squarefree(F, p):
            continue
        degs = [len(g) - 1 for g in gf_factor_squarefree(F, p)]
        if sum(degs) != f.degree:
            return False
        checked += 1
    return True
