"""Symbolic annihilator polynomials (1+T)^{p^m} - zeta * kappa0^{p^m}.

Only the degree of their lcm is ever needed, and the root sets form a
laminar family (any two are nested or disjoint), so the lcm degree is the
sum of p^m over the maximal members.  No p-adic coefficients are ever
materialized; a complex-embedding oracle provides an independent check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import List, Optional

from .characters import DirichletCharacter, RootOfUnity
from .frobenius import admissible, m_index, sigma_p_value


@dataclass(frozen=True)
class AnnihilatorPoly:
    """(1+T)^{p^m} - zeta * kappa0^{p^m} with zeta of p-power order."""

    p: int
    m: int
    zeta: RootOfUnity

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if not self.zeta.order_is_p_power(self.p):
            raise ValueError("zeta must have p-power order")

    @property
    def degree(self) -> int:
        return self.p ** self.m

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "zeta_order": self.zeta.order,
            "zeta_exponent": self.zeta.exponent_for(self.zeta.order),
        }


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


_K0 = 1.337  # any fixed real > 1; stands in for kappa0 = 1 + p


def lcm_degree_oracle(polys: List[AnnihilatorPoly], tol: float = 1e-9) -> int:
    """Count the union of root sets after embedding them into C.

    The roots of (m, zeta=e(k/p^a)) are K0 * e((k + j p^a)/p^{a+m}); two
    roots coincide exactly when the corresponding p-power roots of unity
    are equal, so a tolerance merge counts the union faithfully.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    points: list = []
    for a in polys:
        den = a.zeta.order
        k = a.zeta.exponent_for(den)
        for j in range(a.degree):
            angle = 2.0 * cmath.pi * (k / den + j) / a.degree
            z = _K0 * cmath.exp(1j * angle)
            if all(abs(z - w) > tol for w in points):
                points.append(z)
    return len(points)
