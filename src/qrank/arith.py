"""Exact integer and rational arithmetic helpers.

Integers are plain Python ints (arbitrary precision), rationals are
fractions.Fraction (always reduced, positive denominator).  Everything
here is referentially transparent; no floating point.
"""

from fractions import Fraction
from math import gcd, isqrt

from .errors import EvenRootOfNegative, NonPositive

FactorMap = dict[int, int]

_SMALL_PRIME_LIMIT = 10**6

# Deterministic Miller-Rabin witness set, valid below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factor_integer(n: int) -> FactorMap:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division up to 10**6, then Pollard rho on what is left; inputs
    here are desk-scale (coefficients, norms), not cryptographic.
    """
    if n <= 0:
        raise NonPositive(f"factor_integer requires n >= 1, got {n}")
    out: FactorMap = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # 2,3,5-wheel
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    p, i = 7, 0
    while p * p <= n and p <= _SMALL_PRIME_LIMIT:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += increments[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


def exponent_vector(x: Fraction | int) -> dict[int, int]:
    """Signed prime exponents of a positive rational: x = prod p**e_p."""
    x = Fraction(x)
    if x <= 0:
        raise NonPositive(f"exponent_vector requires x > 0, got {x}")
    out: dict[int, int] = dict(factor_integer(x.numerator))
    for p, e in factor_integer(x.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e != 0}


def integer_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0 (integer Newton, no floats)."""
    if n < 0:
        raise NonPositive(f"integer_nth_root requires n >= 0, got {n}")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # seed above the root, then Newton descends monotonically to floor
    x = 1 << -(-n.bit_length() // k)
    while True:
        t = ((k - 1) * x + n // x ** (k - 1)) // k
        if t >= x:
            break
        x = t
    while x**k > n:
        x -= 1
    return x


def rational_nth_root(x: Fraction | int, n: int) -> Fraction | None:
    """The exact rational r with r**n == x, if one exists.

    For even n and x > 0 the positive root is returned.  Negative x with
    even n is an error, not an absence.
    """
    if n < 1:
        raise NonPositive(f"rational_nth_root requires n >= 1, got {n}")
    x = Fraction(x)
    if x < 0 and n % 2 == 0:
        raise EvenRootOfNegative(f"no even root of negative {x}")
    sign = 1
    if x < 0:
        sign = -1
        x = -x
    if x == 0:
        return Fraction(0)
    a = integer_nth_root(x.numerator, n)
    b = integer_nth_root(x.denominator, n)
    if a**n == x.numerator and b**n == x.denominator:
        return Fraction(sign * a, b)
    return None


def perfect_power_exponent(x: Fraction | int) -> int:
    """The largest e for which the positive rational x != 1 is an exact
    e-th power.

    Roots are taken prime by prime, smallest first, while they exist; an
    e-th power other than 1 has numerator or denominator at least 2**e,
    so only primes up to that bit length are tried (Bernstein 1998).  No
    integer is factored, so the cost is bounded by the size of x.
    """
    x = Fraction(x)
    if x <= 0:
        raise NonPositive(f"perfect_power_exponent requires x > 0, got {x}")
    if x == 1:
        raise ValueError("1 is an e-th power for every e")
    e = 1
    for p in primes_upto(max(x.numerator, x.denominator).bit_length()):
        while (root := rational_nth_root(x, p)) is not None:
            x = root
            e *= p
    return e


def totients_upto(n: int) -> list[int]:
    """Euler's phi of 0..n by sieve (phi(0) is listed as 0)."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # untouched, so p is prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    mark = bytearray(b"\x01") * (n + 1)
    mark[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if mark[p]:
            start = p * p
            mark[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [i for i in range(2, n + 1) if mark[i]]
