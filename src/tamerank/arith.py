"""Exact modular and fixed-precision p-adic arithmetic.

Everything works with plain integers; a p-adic number is a residue mod p^N
together with its precision N.  Precision loss (division by p) is tracked
explicitly and surfaces as PrecisionError instead of silently rounding.
p denotes an odd prime throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import InvariantViolationError, PrecisionError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every modulus used here."""
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


def _check_odd_prime(p: int) -> None:
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


def carmichael(n: int) -> int:
    lam = 1
    for q, e in factorize(n).items():
        if q == 2:
            block = 1 if e == 1 else 2 if e == 2 else 2 ** (e - 2)
        else:
            block = q ** (e - 1) * (q - 1)
        lam = math.lcm(lam, block)
    return lam


def v_p(n: int, p: int) -> int:
    """Largest v with p^v dividing n; n = 0 is rejected."""
    _check_odd_prime(p)
    if n == 0:
        raise ValueError("v_p(0) is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def mul_order(a: int, modulus: int) -> int:
    """Least e >= 1 with a^e = 1 mod modulus; a must be a unit."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus == 1:
        return 1
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    order = carmichael(modulus)
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
    """Smallest primitive root mod the odd prime power q."""
    fac = factorize(q)
    if len(fac) != 1 or 2 in fac:
        raise ValueError(f"{q} is not an odd prime power")
    phi = euler_phi(q)
    for g in range(2, q):
        if math.gcd(g, q) == 1 and mul_order(g, q) == phi:
            return g
    raise InvariantViolationError(f"no primitive root found mod {q}")


def _ilog(n: int, p: int) -> int:
    """Largest k with p^k <= n (n >= 1)."""
    k = 0
    while p ** (k + 1) <= n:
        k += 1
    return k


def _try_dlog_in_cyclic(target: int, g: int, order: int, q: int) -> Optional[int]:
    """Discrete log of target in the cyclic subgroup <g> of (Z/q)^x, or None
    when target lies outside it.  Baby-step/giant-step with a brute-force
    path for tiny orders."""
    target %= q
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


def _dlog_in_cyclic(target: int, g: int, order: int, q: int) -> int:
    out = _try_dlog_in_cyclic(target, g, order, q)
    if out is None:
        raise InvariantViolationError("dlog target outside the subgroup")
    return out


class UnitGroupStructure:
    """(Z/M)^x presented as an explicit product of cyclic groups.

    Factor order is fixed: prime-power blocks ascending by prime, the odd
    blocks generated by their smallest primitive root, the 2-part (when
    2^e with e >= 3) contributing the pair (-1 mod 2^e, 3).  Instances are
    immutable and safe for concurrent reads.
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
        for kind, q, data in self._blocks:
            local = a % q
            if kind == "cyclic":
                g, n = data
                out.append(_dlog_in_cyclic(local, g, n, q))
            else:  # two-generator 2-part: a = (-1)^s * 3^y, -1 not in <3>
                n3 = data
                y = _try_dlog_in_cyclic(local, 3, n3, q)
                if y is None:
                    s = 1
                    y = _dlog_in_cyclic((q - local) % q, 3, n3, q)
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
        for kind, q, data in self._blocks:
            if kind == "cyclic":
                n = self.orders[i]
                order = n // math.gcd(exponents[i], n)
                i += 1
                if order > 1:
                    d *= q // math.gcd(q, n) * math.gcd(order, q)
            else:
                s = exponents[i] % 2
                order3 = data // math.gcd(exponents[i + 1], data)
                i += 2
                if order3 <= 2 and s == order3 - 1:
                    d *= 4 if s else 1
                else:
                    d *= max(8, 4 * order3)
        return d

    def exp(self, exponents) -> int:
        M = self.modulus
        if M == 1:
            return 0
        x = 1
        for g, e in zip(self.generators, exponents):
            x = x * pow(g, int(e), M) % M
        return x

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
                blocks.append(("cyclic", q, (3, 2)))
            else:
                for g_local, n in ((q - 1, 2), (3, q // 4)):
                    gens.append(crt(1, cof, g_local, q) if cof > 1 else g_local)
                    orders.append(n)
                blocks.append(("two", q, q // 4))
        else:
            g_local = smallest_primitive_root(q)
            n = euler_phi(q)
            gens.append(crt(1, cof, g_local, q) if cof > 1 else g_local)
            orders.append(n)
            blocks.append(("cyclic", q, (g_local, n)))
    ug = UnitGroupStructure(M, gens, orders, blocks)
    if ug.phi != euler_phi(M):
        raise InvariantViolationError("unit group order mismatch")
    return ug


@dataclass(frozen=True)
class PadicNumber:
    """Residue mod p^precision with explicit precision tracking.

    residue == 0 means "zero at this precision"; the valuation is then
    reported as the precision itself.
    """

    p: int
    precision: int
    residue: int

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be positive")
        object.__setattr__(self, "residue", self.residue % self.p ** self.precision)

    @property
    def modulus(self) -> int:
        return self.p ** self.precision

    @property
    def valuation(self) -> int:
        if self.residue == 0:
            return self.precision
        n, v = self.residue, 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        return v

    @property
    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def unit_part(self) -> "PadicNumber":
        """Divide out p^valuation; the result has that much less precision."""
        v = self.valuation
        if v >= self.precision:
            raise PrecisionError("no unit part visible at this precision")
        return PadicNumber(self.p, self.precision - v, self.residue // self.p ** v)

    def _align(self, other: "PadicNumber") -> int:
        if self.p != other.p:
            raise ValueError("mixed primes")
        return min(self.precision, other.precision)

    def __add__(self, other):
        N = self._align(other)
        return PadicNumber(self.p, N, self.residue + other.residue)

    def __sub__(self, other):
        N = self._align(other)
        return PadicNumber(self.p, N, self.residue - other.residue)

    def __mul__(self, other):
        N = self._align(other)
        return PadicNumber(self.p, N, self.residue * other.residue)

    def invert(self) -> "PadicNumber":
        if not self.is_unit:
            raise ValueError("cannot invert a non-unit")
        return PadicNumber(self.p, self.precision, pow(self.residue, -1, self.modulus))

    def divide(self, other: "PadicNumber") -> "PadicNumber":
        """Exact division; requires v(self) >= v(other) < precision."""
        N = self._align(other)
        w = other.valuation
        if w >= other.precision:
            raise PrecisionError("division by zero at this precision")
        if w >= N:
            raise PrecisionError("divisor valuation consumes the shared precision")
        if self.valuation < w:
            raise ValueError("quotient is not p-integral")
        Nq = N - w
        pw = self.p ** w
        num = (self.residue % self.p ** N) // pw
        den = (other.residue % self.p ** N) // pw
        return PadicNumber(self.p, Nq, num * pow(den, -1, self.p ** Nq))

    def __repr__(self):
        return f"{self.residue} + O({self.p}^{self.precision})"


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


def teichmuller_lift(a: int, p: int, N: int) -> PadicNumber:
    """The unique x mod p^N with x = a mod p and x^(p-1) = 1 mod p^N."""
    return PadicNumber(p, N, teichmuller_residue(a, p, N))


def padic_log(u: PadicNumber, precision: Optional[int] = None) -> PadicNumber:
    """Logarithm of a principal unit u, correct mod p^precision.

    The alternating series for log(1+x) is summed at a working precision
    with enough guard digits to absorb every division by k.
    """
    p = u.p
    N = u.precision if precision is None else precision
    if N > u.precision:
        raise PrecisionError("argument carries fewer digits than requested")
    if u.residue % p != 1:
        raise ValueError("padic_log needs u = 1 mod p")
    W = N + _ilog(max(N, 1), p) + 2
    slack = _ilog(2 * W + 2, p) + 1
    big = p ** (W + slack)
    modW = p ** W
    x = (u.residue - 1) % u.modulus
    acc = 0
    xk = 1
    for k in range(1, W + slack + 2):
        xk = xk * x % big
        kk, vk = k, 0
        while kk % p == 0:
            kk //= p
            vk += 1
        term = (xk // p ** vk) * pow(kk, -1, modW) % modW
        acc = (acc - term if k % 2 == 0 else acc + term) % modW
    return PadicNumber(p, N, acc)
