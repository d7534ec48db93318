"""Concrete truncations of the valuation rings O_chi = Z_p[zeta_m].

For m = n0 * p^alpha with gcd(n0, p) = 1 the ring has Z_p-rank
d = d0 * phi(p^alpha) with d0 = ord(p mod n0).  It is realized mod p^K as
(Z/p^K)[x, y] / (g(x), Phi_{p^alpha}(y)) with g monic of degree d0 and
irreducible mod p, so (Z/p^K)[x]/(g) is the unramified ring of rank d0.
Elements are coordinate vectors on the x^i y^j basis.  zeta_m^k is the
product of zeta_{n0}^k in the first factor and y^k in the second, so its
vector is the outer product of the two factor powers.  The ring is a
discrete valuation ring with uniformizer pi = y - 1 (p when alpha = 0) and
residue field F_{p^d0}; `valuation` reads v_pi off the coordinates, and a
unit is an element of valuation 0.  Matrices are built only for
`root_matrix`, as the Kronecker product of the two factors' multiplication
matrices.

zeta_{n0} is the n0-th root of unity above a pinned root b of order n0 in
F_{p^d0} = F_p[x]/(g), i.e. the Teichmueller lift of b, found by Newton's
iteration on z^{n0} = 1.  Here g is the first irreducible of degree d0 over
F_p and b the first element of order n0 whose mu_{gcd(n0, p-1)}-component is
the pinned root; (g, b) does not depend on K and is cached.  Two cases need
neither the search nor the iteration:

- Phi_{n0} irreducible mod p (d0 = phi(n0)): g = Phi_{n0} with its integer
  coefficients and zeta_{n0} = x.  All primitive n0-th roots are conjugate
  and gcd(n0, p - 1) <= 2, so there is nothing to pin; and searching
  F_{p^d0} for b would cost p^d0 steps.
- n0 | p - 1: d0 = 1 and zeta_{n0} is a power of the Teichmueller lift of
  the smallest primitive root mod p, in closed form, which pins it
  compatibly with omega.

Reported quantities (orders, unit tests, valuations) do not depend on the
basis, only on the pinned zeta_{n0}.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .arith import (
    euler_phi,
    factorize,
    mul_order,
    smallest_primitive_root,
    split_prime_part,
    teichmuller_residue,
)
from .characters import RootOfUnity
from .errors import InvariantViolationError

# ---------------------------------------------------------------------------
# integer polynomial helpers (little-endian coefficient lists)


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, mod):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % mod
    return _ptrim(out)


def _pdivmod_monic(a, b, mod):
    """Division by a monic polynomial b over Z/mod."""
    if not b or b[-1] % mod != 1:
        raise ValueError("divisor must be monic")
    a = [c % mod for c in a]
    _ptrim(a)
    db = len(b) - 1
    if db == 0:
        return a, []
    quo = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        lead = a[-1]
        pos = len(a) - 1 - db
        quo[pos] = lead
        for i, c in enumerate(b):
            a[pos + i] = (a[pos + i] - lead * c) % mod
        _ptrim(a)
    return _ptrim(quo), a


def _pgcd_fp(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    _ptrim(a)
    _ptrim(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = [c * inv % p for c in b]
        _, r = _pdivmod_monic(a, bm, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple:
    """Coefficients of Phi_m over Z, ascending degree."""
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            quo, rem = _pdivmod_exact(poly, list(cyclotomic_poly(d)))
            if rem:
                raise InvariantViolationError("cyclotomic division not exact")
            poly = quo
    return tuple(poly)


def _pdivmod_exact(a, b):
    """Exact integer polynomial division by monic b."""
    a = list(a)
    db = len(b) - 1
    quo = [0] * max(1, len(a) - db)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        lead = a[-1]
        pos = len(a) - 1 - db
        quo[pos] = lead
        for i, c in enumerate(b):
            a[pos + i] -= lead * c
    while a and a[-1] == 0:
        a.pop()
    return quo, a


# ---------------------------------------------------------------------------
# arithmetic in (Z/mod)[x]/(g) for monic g, on tuples of len(g) - 1 coordinates


def _qmul(a, b, g, mod):
    _, r = _pdivmod_monic(_pmul(a, b, mod), g, mod)
    return tuple(r + [0] * (len(g) - 1 - len(r)))


def _qpow(a, e, g, mod):
    result = tuple([1] + [0] * (len(g) - 2))
    base = a
    while e:
        if e & 1:
            result = _qmul(result, base, g, mod)
        base = _qmul(base, base, g, mod)
        e >>= 1
    return result


def _times_x(v, g, mod):
    """x * v in (Z/mod)[x]/(g)."""
    lead = v[-1]
    return [(-lead * g[0]) % mod] + [(v[i - 1] - lead * g[i]) % mod for i in range(1, len(v))]


def _x_in(g, mod):
    """x on the power basis of (Z/mod)[x]/(g)."""
    return _times_x([1] + [0] * (len(g) - 2), g, mod)


def _find_irreducible(p: int, d: int) -> tuple:
    """First monic irreducible of degree d over F_p in lexicographic order;
    a nonzero constant term is necessary, so no tail with g[0] = 0 is walked."""
    x = (0, 1) + (0,) * (d - 2)
    for tail in itertools.product(range(1, p), *[range(p)] * (d - 1)):
        g = tail + (1,)
        # irreducible iff x^{p^d} = x mod g and gcd(x^{p^{d/r}} - x, g) = 1
        powers = [x]
        for _ in range(d):
            powers.append(_qpow(powers[-1], p, g, p))
        if powers[d] != x:
            continue
        if all(len(_pgcd_fp([c - (i == 1) for i, c in enumerate(powers[d // r])], g, p)) == 1
               for r in factorize(d)):
            return g
    raise InvariantViolationError(f"no irreducible of degree {d} over F_{p}")


@lru_cache(maxsize=None)
def _pinned_root_mod_p(n0: int, p: int) -> tuple:
    """(g, b): g the first monic irreducible of degree d0 = ord(p mod n0) over
    F_p, b the first element of order n0 of F_p[x]/(g), counting little-endian
    in its coordinates, whose mu_{gcd(n0, p-1)}-component is the pinned root.

    The mu_{p-1}-component of a root of unity is pinned globally through the
    Teichmueller character (the smallest primitive root mod p generates it).
    """
    d0 = mul_order(p, n0)
    g = _find_irreducible(p, d0)
    e = (p ** d0 - 1) // n0
    gg = math.gcd(n0, p - 1)
    one = (1,) + (0,) * (d0 - 1)
    pinned = (pow(smallest_primitive_root(p), (p - 1) // gg, p),) + (0,) * (d0 - 1)
    for digits in itertools.product(range(p), repeat=d0):
        b = _qpow(digits[::-1], e, g, p)
        if _qpow(b, n0 // gg, g, p) == pinned and all(
            _qpow(b, n0 // r, g, p) != one for r in factorize(n0)
        ):
            return g, b
    raise InvariantViolationError(f"no element of order {n0} in F_{p}^{d0}")


def _lift_root(b: tuple, n0: int, g: tuple, p: int, K: int) -> list:
    """The n0-th root of unity of (Z/p^K)[x]/(g) above b: Newton's iteration
    z <- z (n0 + 1 - z^{n0}) / n0 on z^{n0} = 1 doubles the precision."""
    mod = p ** K
    inv = pow(n0, -1, mod)
    one = (1,) + (0,) * (len(b) - 1)
    z = b
    for _ in range(K.bit_length() + 1):
        zn = _qpow(z, n0, g, mod)
        if zn == one:
            return list(z)
        step = tuple((int(i == 0) * (n0 + 1) - c) * inv % mod for i, c in enumerate(zn))
        z = _qmul(z, step, g, mod)
    raise InvariantViolationError(f"Newton lift of a root of order {n0} did not converge mod {p}^{K}")


def _root_of_unity(n0: int, p: int, K: int) -> tuple:
    """(g, zeta): zeta_{n0} as a coordinate vector of (Z/p^K)[x]/(g)."""
    d0 = mul_order(p, n0)
    if d0 == euler_phi(n0):
        g = cyclotomic_poly(n0)
        return g, _x_in(g, p ** K)
    if (p - 1) % n0 == 0:
        t = teichmuller_residue(smallest_primitive_root(p), p, K)
        return (0, 1), [pow(t, (p - 1) // n0, p ** K)]
    g, b = _pinned_root_mod_p(n0, p)
    return g, _lift_root(b, n0, g, p, K)


# ---------------------------------------------------------------------------
# matrices


def _multiplication_matrix(zeta, g, mod):
    """Multiplication by zeta on the power basis of (Z/mod)[x]/(g): column j
    is zeta * x^j."""
    cols = [list(zeta)]
    for _ in range(1, len(zeta)):
        cols.append(_times_x(cols[-1], g, mod))
    return [list(row) for row in zip(*cols)]


def _kron(A, B, mod):
    na, nb = len(A), len(B)
    out = [[0] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            a = A[i][j]
            if a == 0:
                continue
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a * B[k][l] % mod
    return out


class LocalCoefficientRing:
    """Z_p[zeta_m] mod p^K.

    Basis: x^i y^j with 0 <= i < d0, 0 <= j < phi(p^alpha); index i*w + j.
    """

    def __init__(self, m: int, p: int, K: int):
        self.m, self.p, self.K = m, p, K
        self.mod = p ** K
        alpha, n0 = split_prime_part(m, p)
        self.n0 = n0
        self.pa = p ** alpha
        self._g, zeta = _root_of_unity(n0, p, K)
        self._zeta = tuple(zeta)
        self.d0 = len(zeta)
        self._phi = cyclotomic_poly(self.pa)
        self.w = euler_phi(self.pa)
        self.dim = self.d0 * self.w
        self._xpow = [(1,) + (0,) * (self.d0 - 1)]
        self._ypow = [[1] + [0] * (self.w - 1)]

    def _factor_powers(self, k: int) -> tuple:
        """(zeta_{n0}^k, y^k) as vectors, appending to the contiguous memos."""
        i, j = k % self.n0, k % self.pa
        xs, ys = self._xpow, self._ypow
        while len(xs) <= i:
            xs.append(_qmul(xs[-1], self._zeta, self._g, self.mod))
        while len(ys) <= j:
            ys.append(_times_x(ys[-1], self._phi, self.mod))
        return xs[i], ys[j]

    def zeta_matrix(self, k: int) -> list:
        """Multiplication by zeta_m^k on the basis, built on each call.  It and
        `root_matrix` serve the tests' dense chi-quotient presentation, and
        `benchmarks/tracer.py` counts `root_matrix` calls."""
        xv, yv = self._factor_powers(k % self.m)
        return _kron(_multiplication_matrix(xv, self._g, self.mod),
                     _multiplication_matrix(yv, self._phi, self.mod), self.mod)

    def root_matrix(self, root: RootOfUnity) -> list:
        if self.m % root.order:
            raise ValueError(f"order {root.order} does not divide m = {self.m}")
        return self.zeta_matrix(root.exponent_for(self.m))

    def zeta_vector(self, k: int) -> list:
        """zeta_m^k as a coordinate vector: zeta_{n0}^k (x) y^k."""
        xv, yv = self._factor_powers(k)
        return [a * b % self.mod for a in xv for b in yv]

    def valuation(self, vec) -> int:
        """v_pi(vec) for the uniformizer pi = y - 1 (pi = p when w = 1), so
        v_pi(p) = w; w K when vec = 0 mod p^K, and exact below that.  vec is
        sum_j C_j y^j with C_j (coordinates i w + j) in the unramified ring,
        so on the basis x^i pi^k, which is integral as Phi_{p^alpha}(1 + pi)
        is Eisenstein, it is sum_k D_k pi^k with D_k = sum_j C(j, k) C_j; for
        k < w the terms have distinct valuations w v_p(D_k) + k."""
        w, best = self.w, self.w * self.K
        for k in range(w):
            for i in range(self.d0):
                if best <= k:  # every term from here on has valuation >= k
                    return best
                x = sum(math.comb(j, k) * vec[i * w + j] for j in range(k, w)) % self.mod
                if x:
                    best = min(best, w * split_prime_part(x, self.p)[0] + k)
        return best

    def is_unit(self, vec) -> bool:
        return self.valuation(vec) == 0


@lru_cache(maxsize=None)
def local_ring(m: int, p: int, K: int) -> LocalCoefficientRing:
    return LocalCoefficientRing(m, p, K)
