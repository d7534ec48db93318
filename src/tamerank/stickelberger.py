"""Iwasawa series of Stickelberger type for odd characters.

The level-n series of an odd character chi (never omega itself) is

    sum_a (-a / M_n) chi^{-1}(a) (1+T)^{c_n(a)}    mod ((1+T)^{p^n} - 1, p^N)

over residues a prime to M_n = f' p^{n+1}, where f' is the prime-to-p part
of the conductor and c_n(a) is the discrete log, base 1+p, of the principal
unit a * omega(a)^{-1} mod p^{n+1}.  Coefficients live in O_chi, handled as
coordinate vectors mod p^N; their integrality (the division by p^{n+1} must
be exact) is asserted, never assumed.

The residue side does not depend on chi: the Stickelberger elements form a
distribution (Washington, Cyclotomic Fields, ch. 7).  So every unit a mod
M_n is filed once per (f', p, n) in a residue table, by j = c_n(a) and by
r = a mod f'p; by CRT each cell holds exactly one a.  Since c_n(M_n - a) =
c_n(a) and chi(-1) = -1, the pair a, M_n - a contributes (2a - M_n)
chi^{-1}(a) to its bucket, so the table keeps only the r below f'p/2.  A
character is then a projection of the table: bucket j, coordinate i, comes
from the dot product of row j with the column r -> coordinate i of
chi^{-1}(r).  Tables are shared by every character of one prime and dropped
when a character of another prime asks.

Two facts are used downstream and are both asserted at runtime: mu = 0 (some
coefficient is a unit) and level-to-level stability of the coefficients.
Both levels are projected from their own tables, so the stability check
compares two independent sums.  The lambda read-off, the index of the first
unit coefficient in the T-power basis, is exactly the quantity the rank
formula consumes; it is invariant under the usual variable reflection, and
the whole normalization is pinned by calibration against regular and
irregular primes in the test suite.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Tuple

from .arith import split_prime_part, teichmuller_residue
from .characters import DirichletCharacter, omega
from .errors import InvariantViolationError, PrecisionError
from .localring import _pdivmod_exact, cyclotomic_poly, local_ring

DEFAULT_PRECISION = 8


def _require_odd_not_omega(chi: DirichletCharacter) -> None:
    if not chi.is_odd:
        raise ValueError("the series is defined for odd characters only")
    if chi == omega(chi.p):
        raise ValueError("omega is excluded; its lambda needs a table entry")


class ResidueTable(NamedTuple):
    """Half the units a mod M = f' p^{n+1}: rows[j][s] is the a with
    c_n(a) = j and a = units[s] mod f'p, for the units below f'p/2.  The
    other half of row j is M - a, at -units[s] mod f'p."""

    units: tuple
    rows: list  # one array('q') per j in Z/p^n


def _residue_table(fprime: int, p: int, n: int) -> ResidueTable:
    """One walk over the table's units mod M = f' p^{n+1}, built cell by
    cell by CRT: a = r mod f' and a = omega(r) (1+p)^j mod p^{n+1}."""
    pn1 = p ** (n + 1)
    M = fprime * pn1
    half = (fprime * p + 1) // 2
    units = tuple(r for r in range(1, half) if math.gcd(r, fprime * p) == 1)
    e_f = pn1 * pow(pn1, -1, fprime) % M  # 1 mod f', 0 mod p^{n+1}
    e_p = fprime * pow(fprime, -1, pn1) % M  # 0 mod f', 1 mod p^{n+1}
    teich = [0] + [teichmuller_residue(t, p, n + 1) * e_p % M for t in range(1, p)]
    tame = [r % fprime * e_f % M for r in units]
    lifts = [teich[r % p] for r in units]
    rows = []
    u = 1  # (1+p)^j mod p^{n+1}
    for _ in range(p ** n):
        rows.append(array("q", [(b + t * u) % M for b, t in zip(tame, lifts)]))
        u = u * (1 + p) % pn1
    return ResidueTable(units, rows)


class _TableCache:
    """Residue tables of one prime, each built on first use.  Every
    character of a field shares its p, so a request for another prime starts
    a new working set and drops the old tables."""

    def __init__(self):
        self.p = None
        self.tables = {}

    def get(self, fprime: int, p: int, n: int) -> ResidueTable:
        if p != self.p:
            self.p, self.tables = p, {}
        key = (fprime, n)
        if key not in self.tables:
            self.tables[key] = _residue_table(fprime, p, n)
        return self.tables[key]


_TABLES = _TableCache()


def _bucket_vectors(chi: DirichletCharacter, n: int, N: int) -> Tuple[list, object]:
    """Coefficients on the (1+T)^j basis, j in Z/p^n, as ring vectors mod p^N."""
    p, m, cond = chi.p, chi.order, chi.conductor
    fprime = split_prime_part(cond, p)[1]
    table = _TABLES.get(fprime, p, n)
    pn1 = p ** (n + 1)
    modN = p ** N

    # column i holds coordinate i of chi^{-1}(r) over the table's units r;
    # sum_a a chi^{-1}(a) over row j is sum_r (2a - M) chi^{-1}(r), and it is
    # divided by -M, exactly at p
    ring = local_ring(m, p, N + n + 3)
    modw = ring.mod
    inv_f = pow(fprime, -1, modw)
    chi_exp = chi.value_exponents()
    columns = list(zip(*(ring.zeta_vector(-chi_exp[r % cond]) for r in table.units)))
    offsets = [fprime * pn1 * sum(column) for column in columns]
    vectors = []
    for row in table.rows:
        out = []
        for column, offset in zip(columns, offsets):
            w = (offset - 2 * sum(map(mul, row, column))) * inv_f % modw
            if w % pn1:
                raise InvariantViolationError(
                    "Stickelberger coefficient is not p-integral; "
                    "this construction only applies to odd characters != omega"
                )
            out.append(w // pn1 % modN)
        vectors.append(out)
    return vectors, local_ring(m, p, N)


@dataclass
class StickelbergerSeries:
    """Level-n series with coefficients as O_chi coordinate vectors mod p^N."""

    chi: DirichletCharacter
    level: int
    precision: int
    bucket_coefficients: list  # on the (1+T)^j basis
    _ring: object

    @property
    def length(self) -> int:
        return len(self.bucket_coefficients)

    def t_coefficient(self, i: int) -> list:
        """Coefficient of T^i: sum_j binom(j, i) * bucket_j."""
        p, N = self.chi.p, self.precision
        modN = p ** N
        dim = len(self.bucket_coefficients[0])
        out = [0] * dim
        for j in range(i, self.length):
            b = math.comb(j, i) % modN
            if b == 0:
                continue
            row = self.bucket_coefficients[j]
            for c in range(dim):
                out[c] = (out[c] + b * row[c]) % modN
        return out

    def is_unit_coefficient(self, i: int) -> bool:
        return self._ring.is_unit(self.t_coefficient(i))

    def first_unit_index(self) -> Optional[int]:
        for i in range(self.length):
            if self.is_unit_coefficient(i):
                return i
        return None

    def folded_buckets(self, lower_level: int) -> list:
        """Bucket coefficients reduced mod (1+T)^{p^lower_level} - 1."""
        p, N = self.chi.p, self.precision
        modN = p ** N
        size = p ** lower_level
        dim = len(self.bucket_coefficients[0])
        out = [[0] * dim for _ in range(size)]
        for j, row in enumerate(self.bucket_coefficients):
            tgt = out[j % size]
            for c in range(dim):
                tgt[c] = (tgt[c] + row[c]) % modN
        return out


def stickelberger_series(
    chi: DirichletCharacter, n: int, N: int = DEFAULT_PRECISION
) -> StickelbergerSeries:
    """Level-n Stickelberger series of the odd character chi != omega."""
    _require_odd_not_omega(chi)
    if n < 0:
        raise ValueError("level must be nonnegative")
    if N < 1:
        raise ValueError("precision must be positive")
    vectors, ring = _bucket_vectors(chi, n, N)
    return StickelbergerSeries(chi, n, N, vectors, ring)


@dataclass(frozen=True)
class LambdaResult:
    lambda_: int
    mu_zero: bool
    levels_used: Tuple[int, int]


def lambda_minus(
    chi: DirichletCharacter,
    precision: int = DEFAULT_PRECISION,
    start_level: int = 1,
    max_level: int = 4,
) -> LambdaResult:
    """lambda of the minus-side characteristic series for odd chi != omega.

    Verifies mu = 0 and stability across two consecutive levels n, n+1 with
    p^n > lambda; doubles the precision once before giving up.
    """
    _require_odd_not_omega(chi)
    p = chi.p
    N = precision
    for attempt in range(2):
        n = start_level
        low = stickelberger_series(chi, n, N)
        while n < max_level:
            high = stickelberger_series(chi, n + 1, N)
            if high.folded_buckets(n) != low.bucket_coefficients:
                break  # instability: retry with more digits
            lam_low = low.first_unit_index()
            if lam_low is None:
                raise InvariantViolationError(
                    "mu > 0 detected; this contradicts Ferrero-Washington "
                    "and signals a bug"
                )
            lam_high = None
            for i in range(lam_low + 1):
                if high.is_unit_coefficient(i):
                    lam_high = i
                    break
            if lam_high == lam_low and p ** n > lam_low:
                return LambdaResult(lam_low, True, (n, n + 1))
            n += 1
            low = high
        N *= 2
    raise PrecisionError(
        f"lambda for {chi.label()} unstable up to level {max_level} at "
        f"precision {N // 2}; retry with a larger precision or level"
    )


@dataclass(frozen=True)
class BernoulliB1:
    """Exact generalized Bernoulli number B_{1,chi} in Q(zeta_ord(chi)).

    Stored as Fractions on the power basis of the full cyclotomic polynomial;
    p-adic valuation is read through the same pinned local factor the series
    machinery uses (integer floor in the ramified case).
    """

    chi: DirichletCharacter
    coordinates: tuple

    @property
    def rational(self) -> Fraction:
        if len(self.coordinates) != 1:
            raise ValueError("value is not rational")
        return self.coordinates[0]

    def p_valuation(self) -> int:
        p = self.chi.p
        den = 1
        for c in self.coordinates:
            den = den * c.denominator // math.gcd(den, c.denominator)
        vden, d = split_prime_part(den, p)
        K = 12 + vden
        ring = local_ring(self.chi.order, p, K)
        modK = ring.mod
        inv_prime_part = pow(d, -1, modK)
        img = [0] * ring.dim
        for i, c in enumerate(self.coordinates):
            num = c.numerator * (den // c.denominator)
            scaled = num * inv_prime_part % modK
            zv = ring.zeta_vector(i) if i else None
            if i == 0:
                img[0] = (img[0] + scaled) % modK
            else:
                for t in range(ring.dim):
                    img[t] = (img[t] + scaled * zv[t]) % modK
        vnum = min(K if k == 0 else split_prime_part(k, p)[0] for k in img)
        if vnum >= K:
            raise PrecisionError("B1 vanished to working precision")
        return vnum - vden


def bernoulli_b1(chi: DirichletCharacter) -> BernoulliB1:
    """B_{1,chi} = (1/f) sum_{a=1}^{f} a chi(a), exactly."""
    if not chi.is_odd:
        raise ValueError("B_{1,chi} vanishes for even chi; rejected")
    f = chi.conductor
    m = chi.order
    buckets = [0] * m
    for a, k in enumerate(chi.value_exponents()):
        if k is not None:
            buckets[k] += a
    phi_m = list(cyclotomic_poly(m))
    _, rem = _pdivmod_exact(buckets, phi_m)
    width = len(phi_m) - 1
    rem = rem + [0] * (width - len(rem))
    coords = tuple(Fraction(c, f) for c in rem)
    return BernoulliB1(chi, coords)
