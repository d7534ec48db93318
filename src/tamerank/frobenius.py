"""Decomposition data of rational primes q != p in the tower over K.

The Galois group of the level-n layer over Q splits as (tame part) x
(Z/p^{n+1})^x; the Frobenius at q has a Gamma-component with discrete log
x_q = log<q>/log(1+p) of valuation m_q, independent of the tame part.  The
procyclic decomposition group is generated by gamma^{p^{m_q}} sigma_p
sigma_0, and everything a rank computation needs about sigma_p and sigma_0
can be read off character values at q.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .arith import euler_phi, is_prime, mul_order, padic_log, split_prime_part, v_p
from .characters import DirichletCharacter, FieldSpec, omega
from .errors import InvariantViolationError


@lru_cache(maxsize=None)
def m_index(q: int, p: int) -> int:
    """m_q = v_p(q^(p-1) - 1) - 1; p^{m_q} counts the primes of the
    rational tower above q.  Kept per (q, p), so the primality test runs
    once per pair rather than once per (class, q)."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == p:
        raise ValueError("q must differ from p")
    return v_p(pow(q, p - 1) - 1, p) - 1


def inertia_trivial(chi: DirichletCharacter, q: int) -> bool:
    """True iff q does not divide the conductor of chi."""
    if q == chi.p:
        raise ValueError("q must differ from p")
    return chi.conductor % q != 0


def sigma0_ok(chi: DirichletCharacter, q: int) -> bool:
    """Whether chi^{-1} omega is trivial on the non-p part of the Frobenius
    class of q, i.e. whether (chi^{-1} omega)(q) has p-power order.

    In integers: chi(q) = zeta_n^k for n = ord chi and omega(q) =
    zeta_{p-1}^x, so (chi^{-1} omega)(q) = zeta_L^K with L = lcm(p - 1, n)
    and K = x L/(p-1) - k L/n.  Its order L/gcd(K, L) is a power of p
    exactly when the prime-to-p part of L divides K."""
    p = chi.p
    if q == p:
        raise ValueError("q must differ from p")
    k = chi.exponent_at(q)
    if k is None:
        raise InvariantViolationError(
            "sigma0_ok called with q dividing the conductor; check inertia first"
        )
    n = chi.order
    L = math.lcm(p - 1, n)
    K = omega(p).exponent_at(q) * (L // (p - 1)) - k * (L // n)
    return K % split_prime_part(L, p)[1] == 0


def admissible(chi: DirichletCharacter, q: int) -> bool:
    """Whether q belongs to S_chi: chi is unramified at q and
    (omega chi^{-1})(q) has p-power order.  The answer is kept on chi, so a
    chain of S sets on one field tests each (class, q) once."""
    memo = chi.admissible_at
    if q not in memo:
        memo[q] = inertia_trivial(chi, q) and sigma0_ok(chi, q)
    return memo[q]


def sigma_p_value(chi: DirichletCharacter, q: int) -> int:
    """chi^{-1}(sigma_p) for the p-Sylow component sigma_p of the generator
    gamma^{p^m} sigma_p of the p-part of the decomposition group, as the
    exponent e, 0 <= e < p^a, with chi^{-1}(sigma_p) = zeta_{p^a}^e, where
    p^a is the p-part of ord chi.  Every value of one character is a power of
    that one root, so an annihilator is the integer pair (m_q, e).

    The p-power-order part z_p of chi^{-1}(q) equals chi^{-1} of the p-part
    of the Frobenius class; sigma_p is that p-part raised to u^{-1}, where
    u is the unit x_q / p^{m_q}.  As log omega(q) = 0, x_q equals
    log(q^{p-1}) / ((p-1) log(1+p)); with z_p of order p^b, u mod p^b needs
    x_q mod p^{m_q+b+1}, so both logs are taken mod p^{m_q+b+2}.
    """
    p = chi.p
    if not inertia_trivial(chi, q):
        raise ValueError("chi is ramified at q")
    # chi^{-1}(q) = zeta_{p^a n}^{-k}, p not dividing n; its p-power part is
    # its (n n^{-1} mod p^a)-th power, zeta_{p^a}^e
    a, n = split_prime_part(chi.order, p)
    pa = p ** a
    e = -chi.exponent_at(q) * pow(n, -1, pa) % pa
    if e == 0:
        return 0
    b = a - split_prime_part(e, p)[0]  # z_p = zeta_pa^e has order p^b
    m = m_index(q, p)
    W = m + b + 2
    log_q = padic_log(pow(q, p - 1, p ** W), p, W)
    log_k0 = padic_log(1 + p, p, W)
    if log_q % p or log_k0 % p:
        raise InvariantViolationError("log of a principal unit is not divisible by p")
    den = (p - 1) * (log_k0 // p)
    if den % p == 0:
        raise InvariantViolationError("(p-1) log(1+p) / p is not a unit")
    mod = p ** (W - 1)
    x_q = log_q // p * pow(den, -1, mod) % mod
    pm = p ** m
    if x_q % pm or x_q // pm % p == 0:
        raise InvariantViolationError(f"Gamma-component valuation != m_q = {m}")
    return e * pow(x_q // pm, -1, p ** b) % pa


class SplittingData(NamedTuple):
    residue_degree: int
    prime_count: int
    p_exponent: int


def _order_in_tame_quotient(a: int, quotient: FieldSpec) -> int:
    """Order of the unit a in (Z/f')^x / H'."""
    fq = quotient.f
    if fq == 1:
        return 1
    hset = quotient.subgroup_elements
    x = a % fq
    if math.gcd(x, fq) != 1:
        raise ValueError(f"{a} is not a unit mod {fq}")
    y = x
    for e in range(1, euler_phi(fq) + 1):
        if y in hset:
            return e
        y = y * x % fq
    raise InvariantViolationError("order search fell through")


class TameData:
    """What a field's q-level groups share at every level: the tame quotient
    A = (Z/f_q)^x / H_q with inertia at q removed, its order `degree`, and
    the `order` of q in it.  `orbits` is residue's partition of A into
    <q>-orbits, None until a residue module has built and checked it."""

    __slots__ = ("quotient", "degree", "order", "orbits")

    def __init__(self, quotient: FieldSpec, q: int):
        self.quotient = quotient
        self.degree = quotient.tame_degree()
        self.order = _order_in_tame_quotient(q, quotient)
        self.orbits = None


def tame_data(field: FieldSpec, q: int) -> TameData:
    """q's TameData, built on the field's first request and kept on it, so
    the oracle's bound, the stabilization level and every level's splitting
    counts and residue modules read one record."""
    record = field.tame_records.get(q)
    if record is None:
        record = field.tame_records[q] = TameData(field.tame_quotient(q), q)
    return record


def splitting_count(field: FieldSpec, q: int, n: int) -> SplittingData:
    """(f_n, r_n, e_n) for q at level n, computed in the inertia quotient:
    residue degree, number of primes, and the exponent of the p-part of the
    residue field's unit group, from q's tame record."""
    p = field.p
    m = m_index(q, p)
    tame = tame_data(field, q)
    pn1 = p ** (n + 1)
    e_wild = mul_order(q, pn1)
    f_n = math.lcm(tame.order, e_wild)
    group_order = tame.degree * euler_phi(pn1)
    if group_order % f_n:
        raise InvariantViolationError("residue degree does not divide group order")
    r_n = group_order // f_n
    # v_p(q^{f_n} - 1) via lifting the exponent: the prime-to-p part of f_n
    # contributes v_p(q^{d} - 1) = m_q + 1, the p-part adds v_p(f_n).
    e_n = m + 1 + split_prime_part(f_n, p)[0]
    return SplittingData(f_n, r_n, e_n)


def stabilization_level(field: FieldSpec, q: int) -> int:
    """Smallest n at which the residue degree starts growing by a factor of
    p each level; beyond it primes stay inert level-to-level.

    By lifting the exponent, ord(q mod p^{n+1}) = ord(q mod p) p^{max(0, n - m_q)},
    so the p-part of f_n is p^{max(v_p(e), n - m_q)} with e the order of q in
    the tame quotient, and f_{n+1} = p f_n exactly when n >= m_q + v_p(e)."""
    return m_index(q, field.p) + split_prime_part(tame_data(field, q).order, field.p)[0]
