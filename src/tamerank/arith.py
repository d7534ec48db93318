"""Exact modular and p-adic arithmetic on plain integers.

A p-adic number is an integer residue mod p^N, and the caller holds N: it
picks N for the digits it needs, and divides by p only where the division
is exact, checking that itself.  p denotes an odd prime throughout.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from .errors import InvariantViolationError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to all of _MR_BASES (Sorenson-Webster,
# Math. Comp. 86 (2017)): the test is exact below it and proves nothing above
PRIME_BOUND = 318665857834031151167461
# psi_t, the least strong pseudoprime to the first t of _MR_BASES, for t = 1
# .. 12: an n below psi_t that passes those t bases is prime.  psi_1 .. psi_4
# are Pomerance, Selfridge and Wagstaff's (Math. Comp. 35 (1980)), psi_5 ..
# psi_8 Jaeschke's (Math. Comp. 61 (1993)) and psi_9 = psi_10 = psi_11 Jiang
# and Deng's (Math. Comp. 83 (2014)).
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 341550071728321, 3825123056546413051,
              3825123056546413051, 3825123056546413051, PRIME_BOUND)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND; a larger n
    raises ValueError.  An n below psi_t is tested to the first t bases."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is at or above {PRIME_BOUND}, where the primality test is not exact")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    t = 1
    while n >= _MR_BOUNDS[t - 1]:
        t += 1
    for b in _MR_BASES[:t]:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime.  A pass is kept, so the
    fields, valuations and tame quotients of one p test it once; a failure
    raises again on every call."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def factorize(n: int) -> dict:
    """Prime factorization by trial division; moduli here are desk-sized."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for q, e in factorize(n).items():
        phi *= q ** (e - 1) * (q - 1)
    return phi


def v_p(n: int, p: int) -> int:
    """Largest v with p^v dividing n; n = 0 is rejected."""
    _check_odd_prime(p)
    if n == 0:
        raise ValueError("v_p(0) is undefined")
    return split_prime_part(n, p)[0]


def split_prime_part(n: int, ell: int) -> tuple:
    """(v, m) with n = ell^v * m and ell not dividing m, for n != 0 and any
    ell >= 2 (prime or not)."""
    if n == 0 or ell < 2:
        raise ValueError(f"cannot split {n} at {ell}")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v, n


def mul_order(a: int, modulus: int) -> int:
    """Least e >= 1 with a^e = 1 mod modulus; a must be a unit."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus == 1:
        return 1
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    order = euler_phi(modulus)
    for q in factorize(order):
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order


def crt(a1: int, m1: int, a2: int, m2: int) -> int:
    """Solve x = a1 mod m1, x = a2 mod m2 for coprime m1, m2."""
    if math.gcd(m1, m2) != 1:
        raise ValueError("moduli must be coprime")
    if m1 == 1:
        return a2 % m2
    if m2 == 1:
        return a1 % m1
    u = pow(m1, -1, m2)
    return (a1 + m1 * ((a2 - a1) * u % m2)) % (m1 * m2)


def smallest_primitive_root(q: int) -> int:
    """Smallest primitive root mod the odd prime power q: the least unit g
    with g^(phi/r) != 1 for every prime r dividing phi = phi(q), so that phi
    is factored once, not once per candidate."""
    fac = factorize(q)
    if len(fac) != 1 or 2 in fac:
        raise ValueError(f"{q} is not an odd prime power")
    phi = euler_phi(q)
    primes = factorize(phi)
    for g in range(2, q):
        if math.gcd(g, q) == 1 and all(pow(g, phi // r, q) != 1 for r in primes):
            return g
    raise InvariantViolationError(f"no primitive root found mod {q}")


def _ilog(n: int, p: int) -> int:
    """Largest k with p^k <= n (n >= 1)."""
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k


def _log_of_order(target: int, g: int, order: int, q: int) -> Optional[int]:
    """k with g^k = target mod q and 0 <= k < order = ord g, for target
    reduced mod q, or None when target lies outside <g>: brute force for
    order <= 60, baby-step giant-step above.  `UnitGroupStructure.dlog`
    runs it on the whole tame order of a block."""
    if order <= 60:
        x = 1
        for k in range(order):
            if x == target:
                return k
            x = x * g % q
        return None
    m = math.isqrt(order) + 1
    baby = {}
    x = 1
    for j in range(m):
        baby.setdefault(x, j)
        x = x * g % q
    giant = pow(g, -m, q)
    y = target
    for i in range(m + 1):
        if y in baby:
            return (i * m + baby[y]) % order
        y = y * giant % q
    return None


def _wild_part(u: int, ell: int, e: int, q: int) -> int:
    """W(u) = log_ell(u^(ell - 1)) / ell mod ell^(e - 1), for a unit u of
    (Z/q)^x, q = ell^e with ell odd.  log_ell maps 1 + ell Z_ell isometrically
    onto ell Z_ell (Washington, Cyclotomic Fields, ch. 5), so W is a
    homomorphism onto Z/ell^(e - 1) and W(g) is a unit for every g that
    generates (Z/ell^2)^x."""
    return padic_log(pow(u, ell - 1, q), ell, e) // ell


def _checked_log(x: Optional[int], g: int, q: int, target: int) -> int:
    """x, once g^x = target mod q holds; a log that is wrong or missing
    raises InvariantViolationError."""
    if x is None or pow(g, x, q) != target:
        raise InvariantViolationError(f"no discrete log of {target} to base {g} mod {q}")
    return x


class UnitGroupStructure:
    """(Z/M)^x presented as an explicit product of cyclic groups.

    Factor order is fixed: prime-power blocks ascending by prime, the odd
    blocks generated by their smallest primitive root, the 2-part (when
    2^e with e >= 3) contributing the pair (-1 mod 2^e, 3).  A block is
    (kind, q, g, n, w): the prime power q, the generator g mod q of its
    cyclic part, of order n, and for q = ell^e odd with e >= 2 the inverse
    w of W(g) (`_wild_part`) mod ell^(e - 1), which the discrete log reads;
    w is None on every other block.  Instances are immutable and safe for
    concurrent reads.
    """

    __slots__ = ("modulus", "generators", "orders", "blocks", "minus_one")

    def __init__(self, modulus, generators, orders, blocks):
        self.modulus = modulus
        self.generators = tuple(generators)
        self.orders = tuple(orders)
        self.blocks = tuple(blocks)
        self.minus_one = self.dlog(-1)

    @property
    def phi(self) -> int:
        return math.prod(self.orders) if self.orders else 1

    def dlog(self, a: int) -> tuple:
        """Exponent vector of the unit a on the stored generators, each log
        checked by one power.  A block of order ell - 1, (Z/4)^x and the
        base 3 of the 2-part take one `_log_of_order` on the whole order;
        a = (-1)^s 3^y on the 2-part has s = 1 exactly when a = 5 or 7 mod 8,
        since <3> is {1, 3} mod 8.  On ell^e with e >= 2, a = g^x gives
        W(a) = x W(g), so x mod ell^(e - 1) is W(a) w, and x mod ell - 1 is
        a log in F_ell^x; CRT joins the two."""
        M = self.modulus
        if M == 1:
            return ()
        a %= M
        if math.gcd(a, M) != 1:
            raise ValueError(f"{a} is not a unit mod {M}")
        out = []
        for kind, q, g, n, w in self.blocks:
            local = a % q
            if kind == "two":
                s = int(local % 8 in (5, 7))
                u = q - local if s else local
                out += (s, _checked_log(_log_of_order(u, g, n, q), g, q, u))
            elif w is None:
                out.append(_checked_log(_log_of_order(local, g, n, q), g, q, local))
            else:
                wild = math.gcd(q, n)  # ell^(e - 1)
                ell = q // wild
                x = _log_of_order(local % ell, g % ell, ell - 1, ell)
                if x is not None:
                    e = split_prime_part(wild, ell)[0] + 1
                    x = crt(x, ell - 1, _wild_part(local, ell, e, q) * w % wild, wild)
                out.append(_checked_log(x, g, q, local))
        return tuple(out)

    def conductor(self, exponents) -> int:
        """Conductor of the character sending each generator g_i to
        zeta_{n_i}^{e_i}: the smallest d | modulus through whose units it
        factors, read block by block.  A nontrivial cyclic ell^e block gives
        ell^(1 + v_ell(order on the block)); on the 2-part pair (-1, 3) the
        character factors through (Z/4)^x iff it is trivial on 5 = -(3^a), a odd."""
        d = 1
        i = 0
        for kind, q, _, n, _ in self.blocks:
            if kind == "cyclic":
                order = n // math.gcd(exponents[i], n)
                i += 1
                if order > 1:
                    d *= q // math.gcd(q, n) * math.gcd(order, q)
            else:
                s = exponents[i] % 2
                order3 = n // math.gcd(exponents[i + 1], n)
                i += 2
                if order3 <= 2 and s == order3 - 1:
                    d *= 4 if s else 1
                else:
                    d *= max(8, 4 * order3)
        return d

    def __repr__(self):
        return f"UnitGroupStructure({self.modulus}, orders={self.orders})"


@lru_cache(maxsize=None)
def unit_group(M: int) -> UnitGroupStructure:
    """Structure of (Z/M)^x with deterministic generators and dlog support."""
    if M < 1:
        raise ValueError("modulus must be positive")
    if M == 1:
        return UnitGroupStructure(1, (), (), ())
    gens, orders, blocks = [], [], []
    for ell, e in sorted(factorize(M).items()):
        q = ell ** e
        cof = M // q
        if ell == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append(crt(1, cof, 3, q) if cof > 1 else 3)
                orders.append(2)
                blocks.append(("cyclic", q, 3, 2, None))
            else:
                for g_local, n in ((q - 1, 2), (3, q // 4)):
                    gens.append(crt(1, cof, g_local, q) if cof > 1 else g_local)
                    orders.append(n)
                blocks.append(("two", q, 3, q // 4, None))
        else:
            g_local = smallest_primitive_root(q)
            n = euler_phi(q)
            gens.append(crt(1, cof, g_local, q) if cof > 1 else g_local)
            orders.append(n)
            w = pow(_wild_part(g_local, ell, e, q), -1, q // ell) if e > 1 else None
            blocks.append(("cyclic", q, g_local, n, w))
    ug = UnitGroupStructure(M, gens, orders, blocks)
    if ug.phi != euler_phi(M):
        raise InvariantViolationError("unit group order mismatch")
    return ug


@lru_cache(maxsize=4096)
def unit_dlog(M: int, a: int) -> tuple:
    """unit_group(M).dlog(a), solved once per (M, a) for a reduced mod M:
    every character of conductor M reads the same logs at the same points
    (the primes of S, the residue modules' generator points), and every
    residue module of level n for p the same logs of the Teichmueller lifts
    of those points mod p^(n+1).  Measured on the benchmark's seed-0
    batches: one job solves at most 15 pairs, a batch of 7-21 jobs at most
    96 (oracle-grid), and an entry holds about 185 bytes, so the bound of
    4096 caps a long run's memo near 0.76 MB.  An entry mod 13^196, the
    deepest oracle level, holds about 320 bytes."""
    return unit_group(M).dlog(a)


def teichmuller_residue(a: int, p: int, N: int) -> int:
    """Integer representative of the Teichmueller lift of a mod p^N."""
    _check_odd_prime(p)
    if math.gcd(a, p) != 1:
        raise ValueError(f"{a} is divisible by {p}")
    mod = p ** N
    x = a % mod
    for _ in range(2 * N + 4):
        y = pow(x, p, mod)
        if y == x:
            return x
        x = y
    raise InvariantViolationError("Teichmuller iteration failed to converge")


def padic_log(u: int, p: int, N: int) -> int:
    """Logarithm of the principal unit u (u = 1 mod p), as a residue mod p^N.

    Only u mod p^N matters.  u = 1 mod p^N gives 0 at once: a unit group's
    log takes the (p - 1)-th power of every Teichmueller lift, which is such
    a u.  Otherwise the alternating series for log(1 + x) is summed over the
    k with k - L(k) < N, L(k) = floor(log_p k).  As v_p(x) >= 1, the term
    x^k / k has valuation at least k - v_p(k) >= k - L(k), which never falls
    as k grows, so every later term is 0 mod p^N.  Each summed k is below
    2N, and x^k / k is read from x^k mod p^(N + L(2N)).
    """
    if u % p != 1:
        raise ValueError("padic_log needs u = 1 mod p")
    mod = p ** N
    x = (u - 1) % mod
    if x == 0:
        return 0
    big = mod * p ** _ilog(2 * N, p)
    acc, xk, k, L, next_power = 0, 1, 1, 0, p
    while k - L < N:
        xk = xk * x % big
        vk, kk = split_prime_part(k, p)
        term = (xk // p ** vk) * pow(kk, -1, mod) % mod
        acc = acc - term if k % 2 == 0 else acc + term
        k += 1
        if k == next_power:
            L, next_power = L + 1, next_power * p
    return acc % mod
