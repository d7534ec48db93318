"""Helpers that only the tests use: random prime sets, a per-(field, q)
Frobenius profile, and the level-to-level norm-reduction check of the
residue modules.  Test modules import them as `from helpers import ...`."""

import random
from dataclasses import dataclass, field as dataclass_field

from tamerank.arith import is_prime
from tamerank.characters import FieldSpec
from tamerank.frobenius import admissible, inertia_trivial, m_index, sigma_p_value
from tamerank.residue import _LevelGroup, residue_module


def random_prime_sets(p: int, count: int, seed: int, pool_bound: int = 200) -> list:
    """Deterministic random subsets of primes != p, for consistency tests."""
    pool = [q for q in range(2, pool_bound) if is_prime(q) and q != p]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, 6)
        out.append(sorted(rng.sample(pool, size)))
    return out


@dataclass
class FrobeniusProfile:
    """Per-(field, q) decomposition data, cached for a list of characters."""

    field: FieldSpec
    q: int
    m_q: int
    ramified: bool
    per_chi: dict = dataclass_field(default_factory=dict)

    @classmethod
    def build(cls, field: FieldSpec, q: int, chars: list) -> "FrobeniusProfile":
        prof = cls(field, q, m_index(q, field.p), field.is_ramified(q))
        for chi in chars:
            ok = admissible(chi, q)
            entry = {"inertia_trivial": inertia_trivial(chi, q), "sigma0_ok": ok}
            if ok:
                entry["sigma_p_value"] = sigma_p_value(chi, q)
            prof.per_chi[chi] = entry
        return prof

    def to_dict(self) -> dict:
        out = {"q": self.q, "m_q": self.m_q, "ramified": self.ramified, "per_chi": {}}
        for chi, entry in self.per_chi.items():
            rec = {
                "inertia_trivial": entry["inertia_trivial"],
                "sigma0_ok": entry["sigma0_ok"],
            }
            if "sigma_p_value" in entry:
                val = entry["sigma_p_value"]
                rec["sigma_p_exponent"] = [
                    val.exponent.numerator,
                    val.exponent.denominator,
                ]
            out["per_chi"][chi.label()] = rec
        return out


def norm_reduction_surjective(field: FieldSpec, q: int, n: int) -> bool:
    """Whether every level-n coset receives a level-(n+1) coset under the
    reduction map; with surjective finite-field norms this forces the
    induced map on coinvariant quotients to have trivial cokernel."""
    lo = residue_module(field, q, n)
    hi = residue_module(field, q, n + 1)
    glo = _LevelGroup(field, q, n)
    lo_loc = {}
    qbar = glo.element(q, q)
    for idx, c in enumerate(lo.cosets):
        x = c
        for _ in range(lo.residue_degree):
            lo_loc[x] = idx
            x = glo.mul(x, qbar)
    hit = set()
    for c in hi.cosets:
        hit.add(lo_loc[glo.element(c[0], c[1])])
    return len(hit) == lo.num_cosets
