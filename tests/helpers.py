"""Helpers that only the tests use: random prime sets, a per-(field, q)
Frobenius profile, the level-to-level norm-reduction check of the residue
modules, the direct per-character Stickelberger buckets, and the
complex-embedding oracle for lcm degrees, and a read-only loader for the
benchmark's modules.  Test modules import them as `from helpers import ...`."""

import cmath
import importlib.util
import math
import random
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

from tamerank.arith import is_prime, split_prime_part, teichmuller_residue
from tamerank.characters import FieldSpec
from tamerank.frobenius import admissible, inertia_trivial, m_index, sigma_p_value
from tamerank.errors import InvariantViolationError
from tamerank.localring import local_ring
from tamerank.residue import _LevelGroup, residue_module


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name: str, monkeypatch):
    """Import benchmarks/<name>.py without writing bytecode under benchmarks/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
                rec["sigma_p_exponent"] = [val.k, val.order]
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


def direct_bucket_vectors(chi, n: int, N: int) -> tuple:
    """The level-n Stickelberger buckets of chi built directly, one pass over
    the residues mod f' p^{n+1} per character: the oracle for the shared
    residue table of `tamerank.stickelberger`."""
    p = chi.p
    m = chi.order
    fprime = split_prime_part(chi.conductor, p)[1]
    cond = chi.conductor
    pn = p ** n
    pn1 = p ** (n + 1)
    M = fprime * pn1

    # discrete log table for the principal units, base 1+p
    dlog = {}
    x = 1
    for j in range(pn):
        dlog[x] = j
        x = x * (1 + p) % pn1
    iteich = [None] + [pow(teichmuller_residue(r, p, n + 1), -1, pn1) for r in range(1, p)]

    chi_exp = chi.value_exponents()

    counts = [[0] * m for _ in range(pn)]
    for a in range(1, M):
        if a % p == 0:
            continue
        if fprime > 1 and math.gcd(a, fprime) != 1:
            continue
        k = -chi_exp[a % cond] % m  # the exponent of chi^{-1}(a)
        j = dlog[a * iteich[a % p] % pn1]
        counts[j][k] += a

    # combine the exponent buckets into ring vectors and divide by -M
    work = N + n + 3
    ring = local_ring(m, p, work)
    modw = ring.mod
    inv_f = pow(fprime, -1, modw)
    pdivisor = pn1
    vectors = []
    zvecs = [ring.zeta_vector(k) for k in range(m)]
    for j in range(pn):
        acc = [0] * ring.dim
        row = counts[j]
        for k in range(m):
            c = row[k]
            if c == 0:
                continue
            zv = zvecs[k]
            for i in range(ring.dim):
                acc[i] = (acc[i] + c * zv[i]) % modw
        out = []
        for v in acc:
            w = (-v) * inv_f % modw
            if w % pdivisor:
                raise InvariantViolationError(
                    "Stickelberger coefficient is not p-integral; "
                    "this construction only applies to odd characters != omega"
                )
            out.append((w // pdivisor) % p ** N)
        vectors.append(out)
    return vectors, local_ring(m, p, N)


_K0 = 1.337  # any fixed real > 1; stands in for kappa0 = 1 + p


def lcm_degree_oracle(polys: list, tol: float = 1e-9) -> int:
    """Oracle for `tamerank.annihilators.lcm_degree`: count the union of root
    sets after embedding them into C.

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
