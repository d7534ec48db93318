"""Ranks of chi-quotients of tamely ramified Iwasawa modules over the
cyclotomic Z_p-tower of an abelian field, with a brute-force residue-module
oracle and a Stickelberger lambda provider for the minus side."""

from .annihilators import annihilator, lcm_degree
from .arith import (
    UnitGroupStructure,
    mul_order,
    padic_log,
    split_prime_part,
    unit_group,
    v_p,
)
from .characters import (
    DirichletCharacter,
    FieldSpec,
    compose,
    conjugacy_classes,
    enumerate_characters,
    omega,
)
from .errors import (
    ConfigError,
    InvariantViolationError,
    LambdaUnavailableError,
    OracleInconsistencyError,
    PrecisionError,
    TameRankError,
)
from .frobenius import (
    admissible,
    inertia_trivial,
    m_index,
    sigma0_ok,
    sigma_p_value,
    splitting_count,
    stabilization_level,
)
from .rank import (
    LambdaProvider,
    LambdaValue,
    RankRecord,
    rank_chi,
    rank_total,
    s_chi,
)
from .residue import (
    ResidueModule,
    chi_quotient_order,
    quotient_growth,
    residue_module,
)
from .stickelberger import (
    BernoulliB1,
    StickelbergerSeries,
    bernoulli_b1,
    lambda_minus,
    stickelberger_series,
)

__version__ = "0.1.0"
