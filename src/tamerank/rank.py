"""Z_p-ranks of the chi-quotients of the tamely ramified Iwasawa module.

For each character chi of G = Gal(K/Q) and a finite set S of rational primes
(p excluded), the rank of the chi-quotient is

    lambda_chi + sum_{q in S_chi} d_chi p^{m_q} - P_chi        (S_chi nonempty)
    lambda_chi                                                 (S_chi empty)

where S_chi keeps the q with trivial inertia and trivial sigma_0-value,
P_chi is 1 for omega, 0 for other odd chi, and d_chi deg F for even chi with
F the lcm of the annihilator polynomials.  Each annihilator is the integer
pair (m_q, e) with chi^{-1}(sigma_p) = zeta_{p^a}^e, p^a the p-part of
ord chi, so no root of unity is built on the way.  lambda_chi is the
Z_p-rank of the chi-quotient of the unramified Iwasawa module and is
supplied by a provider: an explicit table, the Stickelberger computation
(odd chi != omega), or Greenberg's conjecture as an explicitly flagged
conditional zero for even chi.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .annihilators import lcm_degree
from .arith import split_prime_part
from .characters import DirichletCharacter, FieldSpec, FrozenValue, field_characters, omega
from .errors import ConfigError, InvariantViolationError, LambdaUnavailableError
from .frobenius import admissible, m_index, sigma_p_value
from .stickelberger import lambda_minus

PROVENANCE_TABLE = "input-table"
PROVENANCE_GREENBERG = "conjectural-greenberg"
PROVENANCE_STICKELBERGER = "stickelberger-computed"
PROVENANCE_ZERO = "unconditional-zero"


class LambdaValue(FrozenValue):
    __slots__ = _fields = ("value", "provenance")

    def __init__(self, value: int, provenance: str):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "provenance", provenance)

    @property
    def conjectural(self) -> bool:
        return self.provenance == PROVENANCE_GREENBERG

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "provenance": self.provenance,
            "conjectural": self.conjectural,
        }


class LambdaProvider:
    """Resolution order: trivial character (always 0) > explicit table >
    Stickelberger (odd chi != omega) > Greenberg flag (even chi) > error.

    Values are Z_p-ranks of the chi-quotient of the unramified module; the
    Stickelberger path therefore multiplies its Weierstrass degree by d_chi.
    """

    __slots__ = ("table", "allow_greenberg", "allow_stickelberger")

    def __init__(self, table: Optional[Dict[str, int]] = None, allow_greenberg: bool = False,
                 allow_stickelberger: bool = False):
        self.table = {} if table is None else table
        self.allow_greenberg = allow_greenberg
        self.allow_stickelberger = allow_stickelberger

    def resolve(self, chi: DirichletCharacter) -> LambdaValue:
        if chi.is_trivial:
            return LambdaValue(0, PROVENANCE_ZERO)
        label = chi.label()
        if label in self.table:
            return LambdaValue(int(self.table[label]), PROVENANCE_TABLE)
        if "all" in self.table:
            return LambdaValue(int(self.table["all"]), PROVENANCE_TABLE)
        if self.allow_stickelberger and chi.is_odd and chi != omega(chi.p):
            res = lambda_minus(chi)
            return LambdaValue(chi.d_chi * res.lambda_, PROVENANCE_STICKELBERGER)
        if self.allow_greenberg and not chi.is_odd:
            return LambdaValue(0, PROVENANCE_GREENBERG)
        raise LambdaUnavailableError(label)


def _validate_s(S: Iterable[int], p: int) -> list:
    S = sorted(set(S))
    if p in S:
        raise ValueError("S must not contain p")
    return S


def s_chi(chi: DirichletCharacter, S: Iterable[int]) -> list:
    """The subset of S with trivial inertia and trivial sigma_0-value for chi."""
    return [q for q in _validate_s(S, chi.p) if admissible(chi, q)]


class RankRecord:
    """One character's rank; S_chi is the keys of m_map, in order."""

    __slots__ = ("character", "d_chi", "parity", "m_map", "deg_f", "p_chi", "lam", "rank")

    def __init__(self, character: str, d_chi: int, parity: int, m_map: dict,
                 deg_f: Optional[int], p_chi: Optional[int], lam: LambdaValue, rank: int):
        self.character = character
        self.d_chi = d_chi
        self.parity = parity
        self.m_map = m_map
        self.deg_f = deg_f
        self.p_chi = p_chi
        self.lam = lam
        self.rank = rank

    @property
    def conjectural(self) -> bool:
        return self.lam.conjectural

    def to_dict(self) -> dict:
        return {
            "character": self.character,
            "d_chi": self.d_chi,
            "parity": self.parity,
            "S_chi": list(self.m_map),
            "m_map": {str(q): m for q, m in self.m_map.items()},
            "degF": self.deg_f,
            "P_chi": self.p_chi,
            "lambda": self.lam.to_dict(),
            "rank": self.rank,
        }


def rank_chi(
    chi: DirichletCharacter, S: Iterable[int], provider: LambdaProvider
) -> RankRecord:
    """Rank of the chi-quotient for the prime set S; with S_chi empty it is
    lambda_chi, and degF and P_chi are None.  S is validated once, by s_chi,
    before lambda is resolved."""
    p = chi.p
    m_map = {q: m_index(q, p) for q in s_chi(chi, S)}
    lam = provider.resolve(chi)
    deg_f = p_chi = None
    rank = lam.value
    if m_map:
        pa = p ** split_prime_part(chi.order, p)[0]
        deg_f = lcm_degree(p, pa, [(m, sigma_p_value(chi, q)) for q, m in m_map.items()])
        if chi == omega(p):
            p_chi = 1
        elif chi.is_odd:
            p_chi = 0
        else:
            p_chi = chi.d_chi * deg_f
        rank += sum(chi.d_chi * p ** m for m in m_map.values()) - p_chi
        if rank < lam.value:
            raise InvariantViolationError("tame contribution went negative")
    return RankRecord(chi.label(), chi.d_chi, chi.parity, m_map, deg_f, p_chi, lam, rank)


class RankReport:
    __slots__ = ("field", "S", "records", "total")

    def __init__(self, field: FieldSpec, S: list, records: List[RankRecord], total: int):
        self.field = field
        self.S = S
        self.records = records
        self.total = total

    @property
    def conjectural(self) -> bool:
        return any(r.conjectural for r in self.records)


def rank_total(
    field: FieldSpec, S: Iterable[int], provider: LambdaProvider,
    subgroup: Optional[Iterable[int]] = None,
) -> RankReport:
    """One record per conjugacy class representative; the total is their sum
    (d_chi already accounts for the class size).  A lambda table label that
    names no representative is a ConfigError naming H by `subgroup`, the
    generators as the job spelt them, or by the field's own if it is None."""
    S = _validate_s(S, field.p)
    reps = [cl[0] for cl in field_characters(field)[1]]
    unknown = set(provider.table) - {"all"} - {chi.label() for chi in reps}
    if unknown:
        spelt = field.subgroup if subgroup is None else subgroup
        H = sorted({h % field.f for h in spelt} - {1 % field.f})  # reduced as FieldSpec reads it
        raise ConfigError(
            f"lambda table label {label!r} is neither 'all' nor a class representative"
            f" of the field p = {field.p}, f = {field.f}, H = {H}"
            for label in sorted(unknown)
        )
    records = [rank_chi(chi, S, provider) for chi in reps]
    return RankReport(field, S, records, sum(r.rank for r in records))
