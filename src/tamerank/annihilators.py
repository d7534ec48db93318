"""Symbolic annihilator polynomials (1+T)^{p^m} - zeta * kappa0^{p^m}.

Only the degree of their lcm is ever needed, and the root sets form a
laminar family (any two are nested or disjoint), so the lcm degree is the
sum of p^m over the maximal members.  No p-adic coefficients are ever
materialized.
"""

from __future__ import annotations

from typing import List, Optional

from .characters import DirichletCharacter, FrozenValue, RootOfUnity
from .frobenius import admissible, m_index, sigma_p_value


class AnnihilatorPoly(FrozenValue):
    """(1+T)^{p^m} - zeta * kappa0^{p^m} with zeta of p-power order."""

    __slots__ = _fields = ("p", "m", "zeta")

    def __init__(self, p: int, m: int, zeta: RootOfUnity):
        if m < 0:
            raise ValueError("m must be nonnegative")
        if not zeta.order_is_p_power(p):
            raise ValueError("zeta must have p-power order")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "zeta", zeta)

    @property
    def degree(self) -> int:
        return self.p ** self.m


def annihilator(chi: DirichletCharacter, q: int) -> Optional[AnnihilatorPoly]:
    """The annihilator of the chi-quotient of the residue limit module at q,
    or None when that quotient has rank zero."""
    if not admissible(chi, q):
        return None
    return admissible_annihilator(chi, q, m_index(q, chi.p))


def admissible_annihilator(chi: DirichletCharacter, q: int, m: int) -> AnnihilatorPoly:
    """The annihilator at a q already known to lie in S_chi, with m = m_q."""
    return AnnihilatorPoly(chi.p, m, sigma_p_value(chi, q))


def contains(a: AnnihilatorPoly, b: AnnihilatorPoly) -> bool:
    """roots(a) <= roots(b), decided symbolically."""
    if a.p != b.p:
        raise ValueError("mixed primes")
    if a.m > b.m:
        return False
    return (a.zeta ** (a.p ** (b.m - a.m))) == b.zeta


def lcm_degree(polys: List[AnnihilatorPoly]) -> int:
    """Degree of the lcm: the union of the root sets is the disjoint union
    over maximal members of the containment order."""
    if not polys:
        raise ValueError("need at least one polynomial")
    distinct = list(dict.fromkeys(polys))
    maximal = [
        a
        for a in distinct
        if not any(b is not a and contains(a, b) for b in distinct)
    ]
    return sum(a.degree for a in maximal)
