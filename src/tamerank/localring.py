"""Concrete truncations of the valuation rings O_chi = Z_p[zeta_m].

For m = n0 * p^alpha with gcd(n0, p) = 1 the ring has Z_p-rank
d = ord(p mod n0) * phi(p^alpha).  It is realized mod p^K as
(Z/p^K)[x, y] / (h(x), Phi_{p^alpha}(y)), where h is a fixed monic degree-d0
divisor of Phi_{n0} over Z_p.  The choice of h pins the embedding of the
prime-to-p roots of unity; whenever n0 | p - 1 it is x minus the
Teichmueller-canonical root, keeping the pinning compatible with omega.
Elements are coordinate vectors on the x^i y^j basis and roots of unity act
through explicit multiplication matrices.
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


def _padd(a, b, mod):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % mod
    for i in range(len(a)):
        out[i] %= mod
    return _ptrim(out)


def _psub(a, b, mod):
    return _padd(a, [(-c) % mod for c in b], mod)


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


def _pext_bezout_fp(a, b, p):
    """(s, t) with s*a + t*b = 1 over F_p for coprime a, b."""
    r0, r1 = [c % p for c in a], [c % p for c in b]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while _ptrim(list(r1)):
        inv = pow(r1[-1], -1, p)
        r1m = [c * inv % p for c in r1]
        q, r = _pdivmod_monic(r0, r1m, p)
        q = [c * inv % p for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    if len(r0) != 1:
        raise InvariantViolationError("Bezout expects coprime inputs")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


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
# F_q arithmetic, only used to locate the distinguished factor of Phi_{n0}


def _fq_mul(a, b, g, p):
    prod = _pmul(list(a), list(b), p)
    _, r = _pdivmod_monic(prod, list(g), p)
    return tuple(r + [0] * (len(g) - 1 - len(r)))


def _fq_pow(a, e, g, p):
    result = tuple([1] + [0] * (len(g) - 2))
    base = a
    while e:
        if e & 1:
            result = _fq_mul(result, base, g, p)
        base = _fq_mul(base, base, g, p)
        e >>= 1
    return result


def _fq_is_one(a):
    return a[0] == 1 and all(c == 0 for c in a[1:])


def _find_irreducible(p: int, d: int) -> list:
    """First monic irreducible of degree d over F_p in lexicographic order."""
    x = [0, 1]
    for tail in itertools.product(range(p), repeat=d):
        g = list(tail) + [1]
        if not g[0]:
            continue
        # irreducible iff x^{p^d} = x mod g and gcd(x^{p^{d/r}} - x, g) = 1
        xp = x
        ok = True
        powers = {}
        for k in range(1, d + 1):
            xp = _fq_frob_step(xp, g, p)
            powers[k] = xp
        if _ptrim(list(_psub(powers[d], x, p))):
            continue
        for r in factorize(d):
            diff = _psub(powers[d // r], x, p)
            if len(_pgcd_fp(diff, g, p)) != 1:
                ok = False
                break
        if ok:
            return g
    raise InvariantViolationError(f"no irreducible of degree {d} over F_{p}")


def _fq_frob_step(a, g, p):
    """a(x)^p mod g over F_p."""
    out = [1]
    base = list(a)
    e = p
    while e:
        if e & 1:
            out = _pmul(out, base, p)
            _, out = _pdivmod_monic(out, g, p)
        base = _pmul(base, base, p)
        _, base = _pdivmod_monic(base, g, p)
        e >>= 1
    return out


def _distinguished_factor_mod_p(n0: int, p: int, d0: int) -> list:
    """A monic degree-d0 irreducible factor of Phi_{n0} over F_p, found by
    taking the minimal polynomial of an order-n0 element of F_{p^{d0}}.

    The mu_{p-1}-component of a root of unity is pinned globally through the
    Teichmueller character, so among the Frobenius orbits of primitive n0-th
    roots only those whose gcd(n0, p-1)-component reduces to the pinned root
    are admissible; the constraint is orbit-stable.
    """
    g = _find_irreducible(p, d0)
    q = p ** d0
    e = (q - 1) // n0
    n0fac = list(factorize(n0))
    gg = math.gcd(n0, p - 1)
    pinned = pow(smallest_primitive_root(p), (p - 1) // gg, p)
    width = d0
    for counter in range(1, q):
        digits = []
        c = counter
        for _ in range(width):
            digits.append(c % p)
            c //= p
        cand = tuple(digits)
        b = _fq_pow(cand, e, g, p)
        if _fq_is_one(b):
            continue
        gpart = _fq_pow(b, n0 // gg, g, p)
        if gpart[0] != pinned or any(x != 0 for x in gpart[1:]):
            continue
        if all(not _fq_is_one(_fq_pow(b, n0 // r, g, p)) for r in n0fac):
            conj = b
            roots = []
            for _ in range(d0):
                roots.append(conj)
                conj = _fq_pow(conj, p, g, p)
            poly = [tuple([1] + [0] * (d0 - 1))]
            for r in roots:
                # multiply poly by (x - r) over F_q
                nxt = [tuple([0] * d0) for _ in range(len(poly) + 1)]
                minus_r = tuple((-c) % p for c in r)
                for i, coef in enumerate(poly):
                    nxt[i] = _fq_add(nxt[i], _fq_mul(coef, minus_r, g, p), p)
                    nxt[i + 1] = _fq_add(nxt[i + 1], coef, p)
                poly = nxt
            out = []
            for coef in poly:
                if any(c != 0 for c in coef[1:]):
                    raise InvariantViolationError("factor not rational over F_p")
                out.append(coef[0])
            return out
    raise InvariantViolationError(f"no element of order {n0} in F_{p}^{d0}")


def _fq_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def _hensel_lift_factor(f_int: list, hbar: list, p: int, K: int) -> list:
    """Lift the factor hbar of f mod p to a monic factor of f mod p^K."""
    cbar, rem = _pdivmod_monic([c % p for c in f_int], hbar, p)
    if _ptrim(list(rem)):
        raise InvariantViolationError("hbar does not divide f mod p")
    s, t = _pext_bezout_fp(hbar, cbar, p)
    h = [c % p for c in hbar]
    c = [cc % p for cc in cbar]
    pk = p
    for _ in range(1, K):
        mod_next = pk * p
        prod = _pmul_exact(h, c)
        err = [(fi - pi) for fi, pi in _zip_pad(f_int, prod)]
        if any(e % pk for e in err):
            raise InvariantViolationError("Hensel error not divisible by p^k")
        ebar = [(e // pk) % p for e in err]
        _ptrim(ebar)
        delta = _pmul(t, ebar, p)
        _, delta = _pdivmod_monic(delta, hbar, p)
        num = _psub(ebar, _pmul(delta, cbar, p), p)
        gamma, rem = _pdivmod_monic(num, hbar, p)
        if _ptrim(list(rem)):
            raise InvariantViolationError("Hensel correction fell through")
        h = _padd_exact(h, [pk * d for d in delta])
        c = _padd_exact(c, [pk * gg for gg in gamma])
        pk = mod_next
    modK = p ** K
    h = [x % modK for x in h]
    prod = _pmul_exact(h, c)
    for fi, pi in _zip_pad(f_int, prod):
        if (fi - pi) % modK:
            raise InvariantViolationError("Hensel lift failed verification")
    return h


def _pmul_exact(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _padd_exact(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, ca in enumerate(a):
        out[i] += ca
    for i, cb in enumerate(b):
        out[i] += cb
    return out


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def unramified_factor(n0: int, p: int, K: int) -> list:
    """Monic degree-d0 divisor of Phi_{n0} over Z/p^K, pinned deterministically
    (the Teichmueller root whenever n0 | p - 1)."""
    modK = p ** K
    if n0 == 1:
        return [(-1) % modK, 1]
    d0 = mul_order(p, n0)
    phi_poly = [c % modK for c in cyclotomic_poly(n0)]
    if d0 == euler_phi(n0):
        return phi_poly
    if (p - 1) % n0 == 0:
        g = smallest_primitive_root(p)
        z = pow(teichmuller_residue(g, p, K), (p - 1) // n0, modK)
        return [(-z) % modK, 1]
    hbar = _distinguished_factor_mod_p(n0, p, d0)
    return _hensel_lift_factor([int(c) for c in cyclotomic_poly(n0)], hbar, p, K)


# ---------------------------------------------------------------------------
# matrices


def _mat_mul(A, B, mod):
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            for j in range(m):
                row[j] = (row[j] + a * Bt[j]) % mod
    return out


def _companion(poly, mod):
    d = len(poly) - 1
    if d == 0:
        raise ValueError("constant polynomial has no companion matrix")
    C = [[0] * d for _ in range(d)]
    for j in range(d - 1):
        C[j + 1][j] = 1
    for i in range(d):
        C[i][d - 1] = (-poly[i]) % mod
    return C


def _identity(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


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
    """Z_p[zeta_m] mod p^K with explicit root-of-unity action matrices.

    Basis: x^i y^j with 0 <= i < d0, 0 <= j < phi(p^alpha); index i*w + j.
    """

    def __init__(self, m: int, p: int, K: int):
        self.m, self.p, self.K = m, p, K
        self.mod = p ** K
        alpha, n0 = split_prime_part(m, p)
        self.n0 = n0
        self.pa = p ** alpha
        self.d0 = 1 if n0 == 1 else mul_order(p, n0)
        self.w = euler_phi(self.pa)
        self.dim = self.d0 * self.w
        self._X = _companion(unramified_factor(n0, p, K), self.mod)
        if self.pa == 1:
            self._Y = [[1]]
            self.w = 1
        else:
            self._Y = _companion([c % self.mod for c in cyclotomic_poly(self.pa)], self.mod)
        self._xpow = {0: _identity(self.d0)}
        self._ypow = {0: _identity(self.w)}
        self._cache = {}

    def _x_power(self, k):
        k %= self.n0
        if k not in self._xpow:
            self._xpow[k] = _mat_mul(self._x_power(k - 1), self._X, self.mod)
        return self._xpow[k]

    def _y_power(self, k):
        k %= self.pa
        if k not in self._ypow:
            self._ypow[k] = _mat_mul(self._y_power(k - 1), self._Y, self.mod)
        return self._ypow[k]

    def zeta_matrix(self, k: int) -> list:
        """Multiplication by zeta_m^k on the basis."""
        k %= self.m
        if k not in self._cache:
            self._cache[k] = _kron(self._x_power(k % self.n0), self._y_power(k % self.pa), self.mod)
        return self._cache[k]

    def root_matrix(self, root: RootOfUnity) -> list:
        if self.m % root.order:
            raise ValueError(f"order {root.order} does not divide m = {self.m}")
        return self.zeta_matrix(root.exponent_for(self.m))

    def zeta_vector(self, k: int) -> list:
        """zeta_m^k as a coordinate vector (first column of its matrix)."""
        mat = self.zeta_matrix(k)
        return [mat[i][0] for i in range(self.dim)]

    def is_unit(self, vec) -> bool:
        """Unit test in the local ring: nonzero image in the residue field
        F_{p^{d0}} after y -> 1 and reduction mod p."""
        p = self.p
        for i in range(self.d0):
            s = 0
            for j in range(self.w):
                s += vec[i * self.w + j]
            if s % p:
                return True
        return False


@lru_cache(maxsize=None)
def local_ring(m: int, p: int, K: int) -> LocalCoefficientRing:
    return LocalCoefficientRing(m, p, K)
