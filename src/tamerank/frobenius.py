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

from .arith import _wild_part, euler_phi, is_prime, mul_order, split_prime_part, unit_dlog, v_p
from .characters import DirichletCharacter, FieldSpec
from .errors import InvariantViolationError


@lru_cache(maxsize=None)
def m_index(q: int, p: int) -> int:
    """m_q = v_p(q^(p-1) - 1) - 1; p^{m_q} counts the primes of the
    rational tower above q.  Kept per (q, p), so the primality test runs
    once per pair rather than once per (class, q).  q^(p-1) is never formed
    in full: its residue r mod p^K is taken, K doubling while r = 1, and
    once r != 1, v_p(r - 1) < K is v_p(q^(p-1) - 1)."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == p:
        raise ValueError("q must differ from p")
    K = 2
    while (r := pow(q, p - 1, p ** K)) == 1:
        K *= 2
    return v_p(r - 1, p) - 1


def inertia_trivial(chi: DirichletCharacter, q: int) -> bool:
    """True iff q does not divide the conductor of chi."""
    if q == chi.p:
        raise ValueError("q must differ from p")
    return chi.conductor % q != 0


def sigma0_ok(chi: DirichletCharacter, q: int) -> bool:
    """Whether chi^{-1} omega is trivial on the non-p part of the Frobenius
    class of q, i.e. whether (chi^{-1} omega)(q) has p-power order.

    In integers: chi(q) = zeta_n^k for n = ord chi = p^a n0, p not dividing
    n0, and omega(q) = zeta_{p-1}^x with x the discrete log of q mod p, which
    every character of p reads from one `unit_dlog`.  (chi^{-1} omega)(q)
    has p-power order exactly when its p^a-th power zeta_{p-1}^{x p^a}
    zeta_{n0}^{-k} is 1, that is, when (p - 1) n0 divides x n - k (p - 1)."""
    p = chi.p
    if q == p:
        raise ValueError("q must differ from p")
    k = chi.exponent_at(q)
    if k is None:
        raise InvariantViolationError(
            "sigma0_ok called with q dividing the conductor; check inertia first"
        )
    n = chi.order
    x = unit_dlog(p, q % p)[0]
    return (x * n - k * (p - 1)) % ((p - 1) * split_prime_part(n, p)[1]) == 0


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
    log(q^{p-1}) / log((1+p)^{p-1}) = W(q) W(1+p)^{-1}, with W the unit
    group's `_wild_part`; with z_p of order p^b, u mod p^b needs x_q mod
    p^{m_q+b+1}, so both W are taken mod p^{m_q+b+1}.
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
    mod = p ** W
    den = _wild_part(1 + p, p, W, mod)
    if den % p == 0:
        raise InvariantViolationError("(p-1) log(1+p) / p is not a unit")
    x_q = _wild_part(q, p, W, mod) * pow(den, -1, mod // p) % (mod // p)
    pm = p ** m
    if x_q % pm or x_q // pm % p == 0:
        raise InvariantViolationError(f"Gamma-component valuation != m_q = {m}")
    return e * pow(x_q // pm, -1, p ** b) % pa


class SplittingData(NamedTuple):
    residue_degree: int
    prime_count: int
    p_exponent: int


def _least_in_class(fq: int, hset) -> list:
    """The least element of each class a H_q of Z/fq, for H_q the set `hset`
    of units mod fq, indexed by a mod fq.  In ascending order the first
    element met of a class is its least."""
    least = [None] * fq
    for a in range(fq):
        if least[a] is None:
            for h in hset:
                least[a * h % fq] = a
    return least


def _frobenius_orbits(fq: int, hset, q: int) -> tuple:
    """(where, heads, e): the <q>-orbits of A = (Z/fq)^x / H_q, all of one
    length e, with where[a] = (i, t0) for each unit a mod fq whose class is
    heads[i] q^t0 (None for a non-unit).  Raises InvariantViolationError
    when an orbit does not close or the lengths differ."""
    least = _least_in_class(fq, hset)
    heads, place = [], {}  # class a -> (i, t0) with a = heads[i] q^t0
    for a in range(fq):
        if least[a] in place or math.gcd(a, fq) != 1:
            continue
        x, t = a, 0
        while x not in place:
            place[x] = (len(heads), t)
            x, t = least[x * q % fq], t + 1
        if x != a or (heads and t != e):
            raise InvariantViolationError("a <q>-orbit in A does not close")
        heads.append(a)
        e = t
    return [place.get(c) for c in least], heads, e


class TameData:
    """What a field's q-level groups share at every level, built whole on
    creation: the prime-to-q part `fq` of f, the <q>-orbit partition
    `orbits` = (where, heads, e) of the tame quotient A = (Z/fq)^x / H_q
    with inertia at q removed, H_q the image of H mod fq, the `order` e of q
    in A, which is every orbit's length, and the order `degree` of A."""

    __slots__ = ("fq", "orbits", "order", "degree")

    def __init__(self, field: FieldSpec, q: int):
        self.fq = fq = split_prime_part(field.f, q)[1]
        hset = {h % fq for h in field.subgroup_elements}
        self.orbits = _frobenius_orbits(fq, hset, q)
        _, heads, self.order = self.orbits
        self.degree = len(heads) * self.order
        if self.degree * len(hset) != euler_phi(fq):
            raise InvariantViolationError("|A| |H_q| != phi(f_q)")


def tame_data(field: FieldSpec, q: int) -> TameData:
    """q's TameData, built on the field's first request and kept on it, so
    the oracle's bound, the stabilization level and every level's splitting
    counts and residue modules read one record."""
    record = field.tame_records.get(q)
    if record is None:
        record = field.tame_records[q] = TameData(field, q)
    return record


def splitting_count(field: FieldSpec, q: int, n: int) -> SplittingData:
    """(f_n, r_n, e_n) for q at level n, computed in the inertia quotient:
    residue degree, number of primes, and the exponent of the p-part of the
    residue field's unit group, from q's tame record."""
    p = field.p
    m = m_index(q, p)
    tame = tame_data(field, q)
    # ord(q mod p^{n+1}), by lifting the exponent (`stabilization_level`)
    e_wild = mul_order(q, p) * p ** max(0, n - m)
    f_n = math.lcm(tame.order, e_wild)
    group_order = tame.degree * (p - 1) * p ** n
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
