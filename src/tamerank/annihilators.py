"""Annihilator polynomials (1+T)^{p^m} - zeta_{p^a}^e * kappa0^{p^m} as
integer pairs (m, e).

For one character chi, every chi^{-1}(sigma_p) is a power of the same
zeta_{p^a}, p^a the p-part of ord chi, so the annihilator at q is the pair
(m_q, e) on that root.  Only the degree of their lcm is ever needed, and the
root sets form a laminar family (any two are nested or disjoint), so the lcm
degree is the sum of p^m over the maximal members.  No p-adic coefficients
are ever materialized.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .characters import DirichletCharacter
from .frobenius import admissible, m_index, sigma_p_value


def annihilator(chi: DirichletCharacter, q: int) -> Optional[Tuple[int, int]]:
    """The annihilator (m_q, e) of the chi-quotient of the residue limit
    module at q, or None when that quotient has rank zero."""
    if not admissible(chi, q):
        return None
    return m_index(q, chi.p), sigma_p_value(chi, q)


def lcm_degree(p: int, pa: int, pairs: List[Tuple[int, int]]) -> int:
    """Degree of the lcm of the annihilators (m, e) on zeta_pa.  The roots of
    (m, e) are the p^m-th roots of zeta_pa^e times kappa0, so (m_b, e_b)
    contains them exactly when m_b >= m and e p^{m_b - m} = e_b mod pa; the
    union of the root sets is the disjoint union over the pairs no other
    distinct pair contains."""
    if not pairs:
        raise ValueError("need at least one polynomial")
    distinct = {(m, e % pa) for m, e in pairs}
    return sum(
        p ** m
        for m, e in distinct
        if not any(mb > m and (e * p ** (mb - m) - eb) % pa == 0 for mb, eb in distinct)
    )
