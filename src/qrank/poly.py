"""Dense univariate polynomials over an exact scalar field.

Coefficients are anything with exact field arithmetic and comparison
against plain ints: fractions.Fraction, or number field elements
(numfield.NFElement, integer numerators over one denominator), which the
engine also uses for polynomials over Q as elements of the degree-1
field QQ.  Index i holds the coefficient of x**i; the zero polynomial has
an empty coefficient tuple.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import config
from ._record import Record, set_field
from .errors import BothZero, DivisionByZero, NotMonic, ZeroPolynomial


def _zero_like(c):
    return c * 0


def _one_like(c):
    return c**0


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        zero = _zero_like(a[0])
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    def scale(self, c) -> Poly:
        return Poly([a * c for a in self.coeffs])

    def monic(self) -> Poly:
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lc = self.leading
        if lc == 1:
            return self
        inv = _one_like(lc) / lc
        return Poly([a * inv for a in self.coeffs])

    def derivative(self) -> Poly:
        return Poly([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def shift(self, b) -> Poly:
        """p(x + b) by Horner composition with x + b."""
        if self.is_zero():
            return self
        acc = Poly(())
        xb = Poly([b, _one_like(b)])
        for c in reversed(self.coeffs):
            acc = acc * xb + Poly([c])
        return acc

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


def divrem(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with p = q*quot + rem, deg rem < deg q.

    A monic q needs no inverse of its leading coefficient: each quotient
    coefficient is the current top coefficient of the remainder itself.
    Over a number field that skips an extended Euclid in Q[t] per call,
    and gcd only ever divides by a monic polynomial.
    """
    if q.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if p.is_zero() or p.degree < q.degree:
        return Poly(()), p
    lc = q.leading
    inv = None if lc == 1 else _one_like(lc) / lc
    rem = list(p.coeffs)
    dq = q.degree
    quot = [_zero_like(lc)] * (len(rem) - dq)
    for i in range(len(rem) - dq - 1, -1, -1):
        c = rem[i + dq] if inv is None else rem[i + dq] * inv
        if c == 0:
            continue
        quot[i] = c
        for j, b in enumerate(q.coeffs):
            rem[i + j] = rem[i + j] - c * b
    return Poly(quot), Poly(rem[:dq])


def divides(q: Poly, p: Poly) -> bool:
    """Whether q divides p exactly."""
    if q.is_zero():
        return p.is_zero()
    return divrem(p, q)[1].is_zero()


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor."""
    if p.is_zero() and q.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero():
        a, b = b, divrem(a, b)[1]
        if not b.is_zero():
            b = b.monic()
    return a.monic()


def substitute_power(p: Poly, n: int) -> Poly:
    """p(x**n); interleaves n-1 zeros between consecutive coefficients.

    The degree of p(x**n) is held to the degree cap before anything is
    built: this is the one check every P(x**n) of the engine passes."""
    if n < 1:
        raise ValueError(f"substitute_power requires n >= 1, got {n}")
    config.check_degree(p.degree, n)
    if n == 1 or p.is_zero():
        return p
    zero = _zero_like(p.coeffs[0])
    out = [zero] * (p.degree * n + 1)
    for i, c in enumerate(p.coeffs):
        out[i * n] = c
    return Poly(out)


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base**e modulo mod, by square and multiply."""
    if mod.is_zero():
        raise DivisionByZero("reduction modulo the zero polynomial")
    result = Poly([_one_like(mod.leading)])
    acc = divrem(base, mod)[1]
    while e > 0:
        if e & 1:
            result = divrem(result * acc, mod)[1]
        acc = divrem(acc * acc, mod)[1]
        e >>= 1
    return result


class CompanionMatrix(Record):
    """Companion matrix in the convention P(x) = x**m - sum c_j x**(j-1).

    Only the last row (c_1 ... c_m) is stored; the superdiagonal is 1 and
    every other entry is 0.  c_1 != 0 exactly when the matrix is
    invertible, since P(0) = -c_1.
    """

    __slots__ = ("size", "last_row")

    def __init__(self, size: int, last_row: tuple):
        if size < 1:
            raise ValueError("companion matrix needs size >= 1")
        if len(last_row) != size:
            raise ValueError("last_row length must equal size")
        set_field(self, "size", size)
        set_field(self, "last_row", last_row)

    def entry(self, i: int, j: int):
        """Entry at 1-indexed position (i, j)."""
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise IndexError((i, j))
        if i == self.size:
            return self.last_row[j - 1]
        one = _one_like(self.last_row[0])
        return one if j == i + 1 else _zero_like(self.last_row[0])

    def rows(self) -> list[list]:
        return [
            [self.entry(i, j) for j in range(1, self.size + 1)]
            for i in range(1, self.size + 1)
        ]


def companion_of(p: Poly) -> CompanionMatrix:
    """Companion matrix of a monic polynomial of degree >= 1."""
    if p.is_zero() or not p.is_monic():
        raise NotMonic(f"companion matrix needs a monic polynomial, got {p!r}")
    m = p.degree
    if m < 1:
        raise NotMonic("companion matrix needs degree >= 1")
    return CompanionMatrix(m, tuple(-c for c in p.coeffs[:m]))


def charpoly_of(c: CompanionMatrix) -> Poly:
    one = _one_like(c.last_row[0])
    return Poly([-a for a in c.last_row] + [one])


def poly_key(p: Poly) -> tuple:
    """Deterministic sort key; scalars must expose a stable key themselves."""
    return (p.degree, tuple(_scalar_key(c) for c in p.coeffs))


def _scalar_key(c):
    key = getattr(c, "sort_key", None)
    if key is not None:
        return key()
    return (c.numerator, c.denominator)


def sorted_factors(factors: Sequence[tuple[Poly, int]]) -> list[tuple[Poly, int]]:
    return sorted(factors, key=lambda fm: poly_key(fm[0]))
