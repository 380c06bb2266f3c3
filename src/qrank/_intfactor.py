"""Integer polynomial factorization: Berlekamp mod p, Hensel lifting,
Zassenhaus recombination.

Internal module.  Polynomials over Z are lists of Python ints in
ascending order (index i = coefficient of x**i, no trailing zeros);
polynomials over GF(p) are the same lists with every entry in [0, p),
so zz_strip serves both and no coefficient size is bounded.
zz_divmod is the engine's one division in Z[x], and its remainder is
empty exactly when the divisor divides: besides the Hensel steps,
Zassenhaus proves its candidates with it, numfield.norm_poly divides by
its Bareiss pivots and hereditary.has_root_of_unity_root by the
cyclotomic polynomials.
Zassenhaus follows von zur Gathen and Gerhard, Modern Computer Algebra,
section 15.6.  The prime scan keeps the Berlekamp kernel of the best
prime so far, and f is split at the chosen prime with that kernel, so no
kernel is built twice.  The lift stops at the half-degree bound: by
Mignotte's bound a factor h of degree at most n/2 has
||h||_1 <= 2**deg(h) * ||f||_2, and every larger factor is the cofactor
of one that small.  So each candidate subset builds only its side of
degree <= deg f / 2 (the subset or its complement), is rejected on its
own L1 norm against the bound, and is accepted only when it divides f
exactly.
Recombination is exhaustive, with no lattice reduction, so it is
bounded by _MAX_SUBSETS subsets per factorization: the Swinnerton-Dyer
polynomial of degree 64 splits into at least 32 factors modulo every
prime, and proving it irreducible would take about 2**31 subsets.  The
prime scan stops at _MAX_P.  Past either bound the factorization raises
BudgetExceeded.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt

from .arith import is_prime
from .errors import BudgetExceeded

# ---------------------------------------------------------------------------
# Z[x] helpers (Python ints, ascending order)


def zz_strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def zz_degree(f: list[int]) -> int:
    return len(f) - 1


def zz_add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return zz_strip(out)


def zz_sub(f: list[int], g: list[int]) -> list[int]:
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] -= c
    return zz_strip(out)


def zz_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return zz_strip(out)


def zz_divmod(f: list[int], h: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by h in Z[x]; the remainder is empty
    exactly when h divides f.  Each step divides the top coefficient by
    lc(h), which is exact when h is monic (Hensel steps, the cyclotomic
    test) or when h divides f (the Bareiss pivots of numfield.norm_poly).
    A step that is not exact proves that h does not divide f: the
    division stops there and returns the partial quotient and the
    remainder reached so far, which is nonzero and of degree >= deg h."""
    dh = zz_degree(h)
    if zz_degree(f) < dh:
        return [], list(f)
    lc = h[-1]
    rem = list(f)
    quot = [0] * (len(f) - dh)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dh]
        if c:
            if lc != 1:
                c, r = divmod(c, lc)
                if r:
                    return zz_strip(quot), zz_strip(rem[: i + dh + 1])
            quot[i] = c
            for j, b in enumerate(h):
                rem[i + j] -= c * b
    return zz_strip(quot), zz_strip(rem[:dh])


def zz_trunc(f: list[int], m: int) -> list[int]:
    """Reduce coefficients into the balanced range (-m/2, m/2]."""
    half = m // 2
    out = []
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return zz_strip(out)


def zz_content(f: list[int]) -> int:
    return gcd(*f)


def zz_primitive(f: list[int]) -> list[int]:
    c = zz_content(f)
    if c in (0, 1):
        return list(f)
    return [a // c for a in f]


def zz_l1(f: list[int]) -> int:
    return sum(abs(c) for c in f)


# ---------------------------------------------------------------------------
# GF(p)[x] kernels (Python ints in [0, p), ascending order)


def gf_from_zz(f: list[int], p: int) -> list[int]:
    return zz_strip([c % p for c in f])


def gf_sub(a: list[int], b: list[int], p: int) -> list[int]:
    return zz_strip([c % p for c in zz_sub(a, b)])


def gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    # the leading coefficients are units, so the product needs no strip
    return [c % p for c in zz_mul(a, b)]


def gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("gf division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return [], a
    inv = pow(b[-1], p - 2, p)
    low = b[:db]
    rem = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db] * inv % p
        if c:
            quot[i] = c
            rem[i : i + db] = [r - c * t for r, t in zip(rem[i : i + db], low)]
    return quot, zz_strip([c % p for c in rem[:db]])


def gf_rem(a: list[int], b: list[int], p: int) -> list[int]:
    return gf_divmod(a, b, p)[1]


def gf_monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_diff(a: list[int], p: int) -> list[int]:
    return zz_strip([i * c % p for i, c in enumerate(a)][1:])


def gf_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    acc = gf_rem(base, mod, p)
    while e > 0:
        if e & 1:
            result = gf_rem(gf_mul(result, acc, p), mod, p)
        acc = gf_rem(gf_mul(acc, acc, p), mod, p)
        e >>= 1
    return result


def gf_is_squarefree(f: list[int], p: int) -> bool:
    d = gf_diff(f, p)
    if not d:
        return len(f) == 1
    return len(gf_gcd(f, d, p)) == 1


def _berlekamp_kernel(f: list[int], p: int) -> list[list[int]]:
    """Basis of the kernel of Q - I over GF(p), for the monic f of degree
    n >= 2 and its Berlekamp matrix Q, whose rows are x**(i*p) mod f for
    i = 0..n-1.  For a squarefree f the basis has one vector per
    irreducible factor."""
    n = len(f) - 1
    # row i is row i-1 shifted up p places, with the p new top places
    # cleared against the nonzero terms of f: p * (terms of f) per row,
    # which stays small on the sparse P(x**m)
    tail = [(j, c) for j, c in enumerate(f[:n]) if c]
    Q = [[1] + [0] * (n - 1)]
    for _ in range(1, n):
        buf = [0] * p + Q[-1]
        for k in range(n + p - 1, n - 1, -1):
            c = buf[k] % p
            if c:
                base = k - n
                for j, t in tail:
                    buf[base + j] -= c * t
        Q.append([c % p for c in buf[:n]])
    # the right nullspace of M = Q^T - I, by Gauss-Jordan elimination
    M = [list(col) for col in zip(*Q)]
    for i in range(n):
        M[i][i] = (M[i][i] - 1) % p
    pivots: dict[int, list[int]] = {}
    unused = M
    for col in range(n):
        sel = next((r for r in unused if r[col]), None)
        if sel is None:
            continue
        unused = [r for r in unused if r is not sel]
        inv = pow(sel[col], p - 2, p)
        if inv != 1:
            sel[:] = [c * inv % p for c in sel]
        nz = [(j, c) for j, c in enumerate(sel) if c]
        for r in M:
            c = r[col]
            if c and r is not sel:
                for j, t in nz:
                    r[j] = (r[j] - c * t) % p
        pivots[col] = sel
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = 1
        for c, r in pivots.items():
            v[c] = -r[fc] % p
        basis.append(v)
    return basis


def gf_factor_count(f: list[int], p: int) -> int:
    """Number of irreducible factors of squarefree monic f (Berlekamp nullity).

    Zassenhaus reads the count off the kernel it keeps for the split, so
    the engine does not call this; it stays as the public count for the
    tests and for the benchmark, which traces it by name."""
    n = len(f) - 1
    if n <= 1:
        return n
    return len(_berlekamp_kernel(f, p))


def gf_factor_squarefree(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of squarefree monic f over GF(p)."""
    f = gf_monic(f, p)
    n = len(f) - 1
    if n <= 1:
        return [f] if n == 1 else []
    return _berlekamp_split(f, p, _berlekamp_kernel(f, p))


def _berlekamp_split(f: list[int], p: int, basis: list[list[int]]) -> list[list[int]]:
    """Monic irreducible factors of the squarefree monic f of degree >= 2
    over GF(p), from the basis of its Berlekamp kernel.

    Classic Berlekamp with exhaustive subfield-element splitting; p is
    always chosen small, so the s-loop is cheap.
    """
    r = len(basis)
    # r pairwise coprime nonconstant pieces whose product is f are its r
    # irreducible factors, so the split stops once it holds r pieces
    factors = [f]
    held = 1
    for v in basis:
        if held == r:
            break
        vpoly = zz_strip(v)
        if len(vpoly) <= 1:
            continue
        new: list[list[int]] = []
        for i, rem in enumerate(factors):
            if held == r:
                new.extend(factors[i:])
                break
            if len(rem) <= 2:
                new.append(rem)
                continue
            # gcd(rem, v - s) = gcd(rem, w - s) for w = v mod rem, and a
            # constant w splits nothing
            w = gf_rem(vpoly, rem, p)
            for s in range(p):
                if len(w) <= 1 or held == r:
                    break
                g = gf_gcd(rem, [(w[0] - s) % p] + w[1:], p)
                if len(g) > 1:
                    new.append(g)
                    held += 1
                    rem = gf_divmod(rem, g, p)[0]
                    w = gf_rem(w, rem, p)
            new.append(rem)
        factors = new
    return sorted(factors, key=lambda a: (len(a), a))


# ---------------------------------------------------------------------------
# Hensel lifting (Gathen-von zur Gathen style, quadratic steps)


def _hensel_step(m, f, g, h, s, t, last=False):
    """Lift f = g*h (mod m), s*g + t*h = 1 (mod m) to the same mod m**2.

    lc(h) = 1, deg(f) = deg(g) + deg(h), deg(s) < deg(h), deg(t) < deg(g).
    The last step of a lift does not update s and t, which nothing reads
    after it, and returns None for them.
    """
    M = m * m

    e = zz_trunc(zz_sub(f, zz_mul(g, h)), M)

    q, r = zz_divmod(zz_mul(s, e), h)
    q = zz_trunc(q, M)
    r = zz_trunc(r, M)

    u = zz_add(zz_mul(t, e), zz_mul(q, g))
    G = zz_trunc(zz_add(g, u), M)
    H = zz_trunc(zz_add(h, r), M)
    if last:
        return G, H, None, None

    u = zz_add(zz_mul(s, G), zz_mul(t, H))
    b = zz_trunc(zz_sub(u, [1]), M)

    c, d = zz_divmod(zz_mul(s, b), H)
    c = zz_trunc(c, M)
    d = zz_trunc(d, M)

    u = zz_add(zz_mul(t, b), zz_mul(c, G))
    S = zz_trunc(zz_sub(s, d), M)
    T = zz_trunc(zz_sub(t, u), M)

    return G, H, S, T


def _gf_gcdex(a: list[int], b: list[int], p: int):
    """s, t, g with s*a + t*b = g = gcd(a, b), all monic-normalized."""
    r0, r1 = a, b
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], p - 2, p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
        t0 = [c * inv % p for c in t0]
    return s0, t0, r0


def hensel_lift(p: int, f: list[int], f_list: list[list[int]], l: int) -> list[list[int]]:
    """Lift monic pairwise-coprime factors of f mod p to factors mod p**l."""
    r = len(f_list)
    lc = f[-1]

    if r == 1:
        # lc is a unit mod p**l; return the monic-scaled image of f.
        m = p**l
        inv = pow(lc % m, -1, m)
        return [zz_trunc([c * inv for c in f], m)]

    m = p
    k = r // 2
    d = max(1, (l - 1).bit_length())

    g = gf_from_zz([lc], p)
    for f_i in f_list[:k]:
        g = gf_mul(g, gf_from_zz(f_i, p), p)

    h = gf_from_zz(f_list[k], p)
    for f_i in f_list[k + 1 :]:
        h = gf_mul(h, gf_from_zz(f_i, p), p)

    s, t, _ = _gf_gcdex(g, h, p)

    # balanced integer lifts
    g = zz_trunc(g, p)
    h = zz_trunc(h, p)
    s = zz_trunc(s, p)
    t = zz_trunc(t, p)

    for i in range(1, d + 1):
        (g, h, s, t), m = _hensel_step(m, f, g, h, s, t, last=i == d), m**2

    return hensel_lift(p, g, f_list[:k], l) + hensel_lift(p, h, f_list[k:], l)


# ---------------------------------------------------------------------------
# Zassenhaus

# Bounds of one factorization: recombination subsets tried, and the
# primes scanned for a good reduction.  The scan passes over a prime only
# when it divides lc(f) or disc(f), so _MAX_P keeps the scan finite; it
# plays no part in the exactness of the GF(p) arithmetic
_MAX_SUBSETS = 1 << 16
_MAX_P = 1 << 20


def _test_pl(fc: int, q: int, pl: int) -> bool:
    if q > pl // 2:
        q -= pl
    if not q:
        return True
    return fc % q == 0


def zz_factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree f with lc(f) > 0.

    Zassenhaus: factor mod a good small prime, Hensel lift past twice
    the half-degree bound, recombine subsets exhaustively, at most
    _MAX_SUBSETS of them, each proved by exact division.
    """
    f = zz_strip(list(f))
    n = zz_degree(f)
    if n <= 0:
        return []
    if n == 1:
        return [f]

    fc = f[0]
    A = max(abs(c) for c in f)
    b = f[-1]
    # |b| times Mignotte's bound on ||h||_1 for a factor h of degree at
    # most n/2; every later f divides this one, so the bound stays valid
    # as factors are split off
    B = (isqrt(n + 1) + 1) * 2 ** (n // 2) * A * abs(b)

    # compare up to five usable primes below 300; past 300 (the
    # discriminant has swallowed every small prime) take the first one.
    # The kernel of the best prime so far is kept for the split
    best = None
    scanned = 0
    for p in filter(is_prime, range(3, _MAX_P, 2)):
        if scanned and p > 300:
            break
        if b % p == 0:
            continue
        F = gf_from_zz(f, p)
        if not gf_is_squarefree(F, p):
            continue
        F = gf_monic(F, p)
        basis = _berlekamp_kernel(F, p)
        count = len(basis)
        if count == 1:
            return [f]
        scanned += 1
        if best is None or count < best[0]:
            best = (count, p, F, basis)
        if count < 10 and scanned >= 3:
            break
        if scanned >= 5:
            break
    if best is None:
        raise BudgetExceeded(f"no usable prime below {_MAX_P} for factoring")
    _, p, F, basis = best

    modular = [zz_trunc(ff, p) for ff in _berlekamp_split(F, p, basis)]

    # the least l with p**l > 2B, in integers
    l, pl = 1, p
    while pl <= 2 * B:
        l, pl = l + 1, pl * p
    g = hensel_lift(p, f, modular, l)

    factors: list[list[int]] = []
    s = 1
    tried = 0

    # g holds the lifted factors not yet placed in a true factor
    while 2 * s <= len(g):
        for S in combinations(range(len(g)), s):
            tried += 1
            if tried > _MAX_SUBSETS:
                raise BudgetExceeded(
                    f"recombining {len(modular)} modular factors needs more "
                    f"than {_MAX_SUBSETS} subsets"
                )
            # for a true factor h, b*prod g_i = (b/lc h)*h mod p**l, and
            # (b/lc h)*h(0) divides b*fc, so for fc != 0 it is at most
            # |b*fc| < p**l/2 and the test holds for h of any degree
            q = b
            for i in S:
                q = q * g[i][0]
            if not _test_pl(b * fc, q % pl, pl):
                continue
            # build the side of degree <= deg f / 2, the only one the
            # bound covers: the subset itself or its complement
            rest = [gi for i, gi in enumerate(g) if i not in S]
            small = 2 * sum(len(g[i]) - 1 for i in S) <= zz_degree(f)
            G = [b]
            for gi in [g[i] for i in S] if small else rest:
                G = zz_mul(G, gi)
            G = zz_primitive(zz_trunc(G, pl))
            if zz_l1(G) > B:
                continue
            H, r = zz_divmod(f, G)
            if r:
                continue
            if not small:
                G, H = H, G
            # G is the factor for S and H its cofactor, both primitive
            # with a positive leading coefficient
            g = rest
            f = H
            factors.append(G)
            b = f[-1]
            fc = f[0]
            break
        else:
            s += 1

    return factors + [f]
