"""Z_p-ranks of the chi-quotients of the tamely ramified Iwasawa module.

For each character chi of G = Gal(K/Q) and a finite set S of rational primes
(p excluded), the rank of the chi-quotient is

    lambda_chi + sum_{q in S_chi} d_chi p^{m_q} - P_chi        (S_chi nonempty)
    lambda_chi                                                 (S_chi empty)

where S_chi keeps the q with trivial inertia and trivial sigma_0-value,
P_chi is 1 for omega, 0 for other odd chi, and d_chi deg F for even chi with
F the lcm of the annihilator polynomials.  lambda_chi is the Z_p-rank of the
chi-quotient of the unramified Iwasawa module and is supplied by a provider:
an explicit table, the Stickelberger computation (odd chi != omega), or
Greenberg's conjecture as an explicitly flagged conditional zero for even chi.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterable, List, Optional

from .annihilators import admissible_annihilator, lcm_degree
from .characters import (
    DirichletCharacter,
    FieldSpec,
    class_representatives,
    enumerate_characters,
    omega,
)
from .errors import ConfigError, InvariantViolationError, LambdaUnavailableError
from .frobenius import admissible, m_index
from .stickelberger import DEFAULT_PRECISION, lambda_minus

PROVENANCE_TABLE = "input-table"
PROVENANCE_GREENBERG = "conjectural-greenberg"
PROVENANCE_STICKELBERGER = "stickelberger-computed"
PROVENANCE_ZERO = "unconditional-zero"


@dataclass(frozen=True)
class LambdaValue:
    value: int
    provenance: str
    conjectural: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "provenance": self.provenance,
            "conjectural": self.conjectural,
        }


@dataclass
class LambdaProvider:
    """Resolution order: trivial character (always 0) > explicit table >
    Stickelberger (odd chi != omega) > Greenberg flag (even chi) > error.

    Values are Z_p-ranks of the chi-quotient of the unramified module; the
    Stickelberger path therefore multiplies its Weierstrass degree by d_chi.
    """

    table: Dict[str, int] = dataclass_field(default_factory=dict)
    allow_greenberg: bool = False
    allow_stickelberger: bool = False
    stickelberger_precision: int = DEFAULT_PRECISION

    def resolve(self, chi: DirichletCharacter) -> LambdaValue:
        if chi.is_trivial:
            return LambdaValue(0, PROVENANCE_ZERO, False)
        label = chi.label()
        if label in self.table:
            return LambdaValue(int(self.table[label]), PROVENANCE_TABLE, False)
        if "all" in self.table:
            return LambdaValue(int(self.table["all"]), PROVENANCE_TABLE, False)
        if self.allow_stickelberger and chi.is_odd and chi != omega(chi.p):
            res = lambda_minus(chi, precision=self.stickelberger_precision)
            return LambdaValue(chi.d_chi * res.lambda_, PROVENANCE_STICKELBERGER, False)
        if self.allow_greenberg and not chi.is_odd:
            return LambdaValue(0, PROVENANCE_GREENBERG, True)
        raise LambdaUnavailableError(label)


def _validate_s(S: Iterable[int], p: int) -> list:
    S = sorted(set(S))
    if p in S:
        raise ValueError("S must not contain p")
    return S


def s_chi(chi: DirichletCharacter, S: Iterable[int]) -> list:
    """The subset of S with trivial inertia and trivial sigma_0-value for chi."""
    return [q for q in _validate_s(S, chi.p) if admissible(chi, q)]


@dataclass
class RankRecord:
    character: str
    d_chi: int
    parity: int
    s_chi: list
    m_map: dict
    deg_f: Optional[int]
    p_chi: Optional[int]
    lam: LambdaValue
    rank: int
    conjectural: bool

    def to_dict(self) -> dict:
        return {
            "character": self.character,
            "d_chi": self.d_chi,
            "parity": self.parity,
            "S_chi": list(self.s_chi),
            "m_map": {str(q): m for q, m in self.m_map.items()},
            "degF": self.deg_f,
            "P_chi": self.p_chi,
            "lambda": self.lam.to_dict(),
            "rank": self.rank,
        }


def rank_chi(
    chi: DirichletCharacter, S: Iterable[int], provider: LambdaProvider
) -> RankRecord:
    """Rank of the chi-quotient for the prime set S."""
    p = chi.p
    S = _validate_s(S, p)
    lam = provider.resolve(chi)
    selected = s_chi(chi, S)
    if not selected:
        return RankRecord(
            character=chi.label(),
            d_chi=chi.d_chi,
            parity=chi.parity,
            s_chi=[],
            m_map={},
            deg_f=None,
            p_chi=None,
            lam=lam,
            rank=lam.value,
            conjectural=lam.conjectural,
        )
    m_map = {q: m_index(q, p) for q in selected}
    deg_f = lcm_degree([admissible_annihilator(chi, q, m) for q, m in m_map.items()])
    if chi == omega(p):
        p_chi = 1
    elif chi.is_odd:
        p_chi = 0
    else:
        p_chi = chi.d_chi * deg_f
    tame = sum(chi.d_chi * p ** m for m in m_map.values())
    rank = lam.value + tame - p_chi
    if rank < lam.value:
        raise InvariantViolationError("tame contribution went negative")
    return RankRecord(
        character=chi.label(),
        d_chi=chi.d_chi,
        parity=chi.parity,
        s_chi=selected,
        m_map=m_map,
        deg_f=deg_f,
        p_chi=p_chi,
        lam=lam,
        rank=rank,
        conjectural=lam.conjectural,
    )


@dataclass
class RankReport:
    field: FieldSpec
    S: list
    records: List[RankRecord]
    total: int
    conjectural: bool


def rank_total(
    field: FieldSpec, S: Iterable[int], provider: LambdaProvider
) -> RankReport:
    """One record per conjugacy class representative; the total is their sum
    (d_chi already accounts for the class size)."""
    S = _validate_s(S, field.p)
    chars = enumerate_characters(field)
    reps = class_representatives(chars, field.p)
    unknown = set(provider.table) - {"all"} - {chi.label() for chi in reps}
    if unknown:
        raise ConfigError(
            f"lambda table label {label!r} is neither 'all' nor a class representative"
            f" of {field}"
            for label in sorted(unknown)
        )
    records = [rank_chi(chi, S, provider) for chi in reps]
    total = sum(r.rank for r in records)
    return RankReport(
        field=field,
        S=S,
        records=records,
        total=total,
        conjectural=any(r.conjectural for r in records),
    )


def rank_rational(S: Iterable[int], p: int) -> int:
    """Rank over the rational tower: sum p^{m_q} - max p^{m_q} over the
    q = 1 mod p members of S, and 0 when there are none."""
    S = _validate_s(S, p)
    selected = [q for q in S if q % p == 1]
    if not selected:
        return 0
    powers = [p ** m_index(q, p) for q in selected]
    return sum(powers) - max(powers)
