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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND; a larger n
    raises ValueError."""
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
    for b in _MR_BASES:
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
    """k with g^k = target mod q and 0 <= k < order = ord g, or None: brute
    force for order <= 60, baby-step giant-step above, where Pohlig-Hellman
    calls it only for one prime-order digit."""
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


def _try_dlog_in_cyclic(target: int, g: int, order: int, q: int, factors: tuple) -> Optional[int]:
    """Discrete log of target in the cyclic subgroup <g> of (Z/q)^x, of the
    given order with `factors` its (prime, exponent) pairs, or None when
    target lies outside it.  Brute force for order <= 60; above that
    Pohlig-Hellman (Cohen, A Course in Computational Algebraic Number Theory,
    1.4): for each r^e of the order the log mod r^e is read one base-r digit
    at a time, each digit a log in the subgroup of order r, and the parts
    are joined by CRT.  When every digit has a log, target^(order / r^e) =
    g^(x order / r^e) for each r, so target = g^x; a target outside <g>
    leaves some digit without one."""
    target %= q
    if order <= 60:
        return _log_of_order(target, g, order, q)
    x, mod = 0, 1
    for r, e in factors:
        part = r ** e
        cof = order // part
        h = pow(target, cof, q)  # in <g^cof>, of order r^e, when target is in <g>
        step = pow(g, -cof, q)  # (g^cof)^(-r^k) at digit k
        root = pow(g, order // r, q)  # of order r
        xr = 0
        for k in range(e):
            if h == 1:  # every digit left is 0
                break
            d = _log_of_order(pow(h, r ** (e - 1 - k), q), root, r, q)
            if d is None:
                return None
            xr += d * r ** k
            h = h * pow(step, d, q) % q
            step = pow(step, r, q)
        x, mod = crt(x, mod, xr, part), mod * part
    return x


def _dlog_in_cyclic(target: int, g: int, order: int, q: int, factors: tuple) -> int:
    out = _try_dlog_in_cyclic(target, g, order, q, factors)
    if out is None:
        raise InvariantViolationError("dlog target outside the subgroup")
    return out


class UnitGroupStructure:
    """(Z/M)^x presented as an explicit product of cyclic groups.

    Factor order is fixed: prime-power blocks ascending by prime, the odd
    blocks generated by their smallest primitive root, the 2-part (when
    2^e with e >= 3) contributing the pair (-1 mod 2^e, 3).  A block is
    (kind, q, g, n, factors): the prime power q, the generator g mod q of
    its cyclic part, of order n, and the (prime, exponent) pairs of n, which
    the discrete log reads.  Instances are immutable and safe for concurrent
    reads.
    """

    __slots__ = ("modulus", "generators", "orders", "_blocks", "minus_one")

    def __init__(self, modulus, generators, orders, blocks):
        self.modulus = modulus
        self.generators = tuple(generators)
        self.orders = tuple(orders)
        self._blocks = tuple(blocks)
        self.minus_one = self.dlog(-1)

    @property
    def phi(self) -> int:
        return math.prod(self.orders) if self.orders else 1

    def dlog(self, a: int) -> tuple:
        """Exponent vector of the unit a on the stored generators."""
        M = self.modulus
        if M == 1:
            return ()
        a %= M
        if math.gcd(a, M) != 1:
            raise ValueError(f"{a} is not a unit mod {M}")
        out = []
        for kind, q, g, n, factors in self._blocks:
            local = a % q
            if kind == "cyclic":
                out.append(_dlog_in_cyclic(local, g, n, q, factors))
            else:  # two-generator 2-part: a = (-1)^s * 3^y, -1 not in <3>
                y = _try_dlog_in_cyclic(local, g, n, q, factors)
                if y is None:
                    s = 1
                    y = _dlog_in_cyclic(q - local, g, n, q, factors)
                else:
                    s = 0
                out.append(s)
                out.append(y)
        return tuple(out)

    def conductor(self, exponents) -> int:
        """Conductor of the character sending each generator g_i to
        zeta_{n_i}^{e_i}: the smallest d | modulus through whose units it
        factors, read block by block.  A nontrivial cyclic ell^e block gives
        ell^(1 + v_ell(order on the block)); on the 2-part pair (-1, 3) the
        character factors through (Z/4)^x iff it is trivial on 5 = -(3^a), a odd."""
        d = 1
        i = 0
        for kind, q, _, n, _ in self._blocks:
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
                blocks.append(("cyclic", q, 3, 2, ((2, 1),)))
            else:
                for g_local, n in ((q - 1, 2), (3, q // 4)):
                    gens.append(crt(1, cof, g_local, q) if cof > 1 else g_local)
                    orders.append(n)
                blocks.append(("two", q, 3, q // 4, ((2, e - 2),)))
        else:
            g_local = smallest_primitive_root(q)
            n = euler_phi(q)
            gens.append(crt(1, cof, g_local, q) if cof > 1 else g_local)
            orders.append(n)
            blocks.append(("cyclic", q, g_local, n, tuple(sorted(factorize(n).items()))))
    ug = UnitGroupStructure(M, gens, orders, blocks)
    if ug.phi != euler_phi(M):
        raise InvariantViolationError("unit group order mismatch")
    return ug


@lru_cache(maxsize=4096)
def unit_dlog(M: int, a: int) -> tuple:
    """unit_group(M).dlog(a), solved once per (M, a) for a reduced mod M:
    every character of conductor M reads the same logs at the same points
    (the primes of S, the residue modules' generator points).  Measured on
    the benchmark's seed-0 batches: one job solves at most 29 pairs, a batch
    of 13-21 jobs at most 78 (rank-sweep), and an entry holds about 185
    bytes, so the bound of 4096 caps a long run's memo near 0.76 MB."""
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

    Only u mod p^N matters.  The alternating series for log(1+x) is summed
    at a working precision with enough guard digits to absorb every
    division by k.
    """
    if u % p != 1:
        raise ValueError("padic_log needs u = 1 mod p")
    W = N + _ilog(max(N, 1), p) + 2
    slack = _ilog(2 * W + 2, p) + 1
    big = p ** (W + slack)
    modW = p ** W
    x = (u - 1) % p ** N
    acc = 0
    xk = 1
    for k in range(1, W + slack + 2):
        xk = xk * x % big
        vk, kk = split_prime_part(k, p)
        term = (xk // p ** vk) * pow(kk, -1, modW) % modW
        acc = (acc - term if k % 2 == 0 else acc + term) % modW
    return acc % p ** N
