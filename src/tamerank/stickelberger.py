"""Iwasawa series of Stickelberger type for odd characters.

The level-n series of an odd character chi (never omega itself) is

    sum_a (-a / M_n) chi^{-1}(a) (1+T)^{c_n(a)}    mod ((1+T)^{p^n} - 1, p^N)

over residues a prime to M_n = f' p^{n+1}, where f' is the prime-to-p part
of the conductor and c_n(a) is the discrete log, base 1+p, of the principal
unit a * omega(a)^{-1} mod p^{n+1}.  Coefficients live in O_chi, handled as
coordinate vectors mod p^N with N = DEFAULT_PRECISION; their integrality (the
division by p^{n+1} must be exact) is asserted, never assumed.

The residue side does not depend on chi: the Stickelberger elements form a
distribution (Washington, Cyclotomic Fields, ch. 7).  So every unit a mod
M_n is filed once per (f', p, n) in a residue table, by j = c_n(a) and by
r = a mod f'p; by CRT each cell holds exactly one a.  Since c_n(M_n - a) =
c_n(a) and chi(-1) = -1, the pair a, M_n - a contributes (2a - M_n)
chi^{-1}(a) to its bucket, so the table keeps only the r below f'p/2.

The table is stored by column: the column of r is one int that holds
2(M_n - a) for each j in a fixed-width slot of its own (Kronecker
substitution).  A character is then a projection of the table: coordinate i
of every bucket at once is the multiply-accumulate, over r, of coordinate i
of chi^{-1}(r) times the column of r, which Python's big-int arithmetic runs
in C.  Tables are shared by every character of one prime and dropped when a
character of another prime asks.

The projection stays one int x per coordinate.  One multiple of ONES (a 1
in every slot) turns every slot into the numerator of its bucket sum, mod
p^w with w = N + n + 3 working digits, and x is then divided by P = p^{n+1}
as a whole: q, r = divmod(x, P).
A slot is S = 64 words bits wide and kept below 2^{S-1}, so every slot is
divisible by P exactly when r = 0 and the top b = bit_length(P) bits of
every slot of q are 0.  If every slot x_j is y_j P, then y_j < 2^{S-1} /
2^{b-1} = 2^k with k = S - b.  Conversely, if r = 0 and every y_j < 2^k,
then every y_j P < 2^S, so these are the base-2^S digits of x: x_j = y_j P.

A level is folded onto a lower level l by adding the p^{n-l} blocks of p^l
slots of q, as byte slices of one to_bytes, and only the p^l folded slots are
unpacked.  The sum never carries: p^{n-l} (2^k - 1) < P 2^k < 2^S.  A level's
own buckets are unpacked and reduced mod p^N only when its coefficients are
read, so a character whose lambda is read at level 1 never unpacks level 2.

lambda is read once per level, from the first unit T-coefficient of the
level-n series (see lambda_minus); mu = 0 is Ferrero-Washington, and no
finite level is taken to show otherwise.  A level is read only once the
level above, projected from its own table, folds exactly onto it, so that
check compares two independent sums.  The lambda read-off is exactly the
quantity the rank formula consumes; it is invariant under the usual
variable reflection, and the whole normalization is pinned by calibration
against regular and irregular primes in the test suite.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import ClassVar, NamedTuple, Optional, Tuple

from .arith import split_prime_part, teichmuller_residue, unit_group
from .characters import DirichletCharacter, omega
from .errors import InvariantViolationError, PrecisionError
from .localring import _pdivmod_exact, cyclotomic_poly, local_ring

DEFAULT_PRECISION = 8  # digits of every series coefficient
MAX_LEVEL = 4  # the highest level lambda_minus builds


def _work_digits(n: int) -> int:
    """Digits mod p that the level-n sums carry before the exact division by
    p^{n+1}; the series keeps DEFAULT_PRECISION of them."""
    return DEFAULT_PRECISION + n + 3


def _slot_words(count: int, M: int, p: int, n: int) -> int:
    """64-bit words per slot that hold, with the top bit spare, any sum of
    `count` products c v and one shift c, with 0 <= c < p^{_work_digits(n)}
    and 0 <= v <= 2M - 1."""
    bound = (count * (2 * M - 1) + 1) * (p ** _work_digits(n) - 1)
    return -(-(bound.bit_length() + 1) // 64)


def _pack(values, words: int) -> int:
    """The int whose slot j, bits [64 words j, 64 words (j+1)), holds
    values[j]; a value of 2^64 or more raises OverflowError."""
    cells = array("Q", bytes(8 * words * len(values)))
    cells[::words] = array("Q", values)
    if sys.byteorder == "big":
        cells.byteswap()
    return int.from_bytes(cells.tobytes(), "little")


def _unpack(x: int, count: int, words: int) -> list:
    """The first `count` slots of x >= 0, as _pack lays them out.  A slot
    value of 2^{64 words} or more carries into the next slot; only the last
    slot raises OverflowError."""
    cells = array("Q", x.to_bytes(8 * words * count, "little"))
    if sys.byteorder == "big":
        cells.byteswap()
    slots = cells[words - 1::words].tolist()
    for k in range(words - 2, -1, -1):
        slots = [high << 64 | low for high, low in zip(slots, cells[k::words])]
    return slots


def _ones(count: int, words: int) -> int:
    """The int with 1 in each of its first `count` slots."""
    return int.from_bytes((b"\1" + bytes(8 * words - 1)) * count, "little")


def _exact_quotient(x: int, divisor: int, ones: int, words: int) -> int:
    """x / divisor slot by slot, for slots below 2^{64 words - 1} laid out as
    ones has them; InvariantViolationError unless every slot is divisible."""
    q, r = divmod(x, divisor)
    k = 64 * words - divisor.bit_length()
    if r or q & ((1 << 64 * words) - (1 << k)) * ones:
        raise InvariantViolationError(
            "Stickelberger coefficient is not p-integral; "
            "this construction only applies to odd characters != omega"
        )
    return q


def _fold(x: int, count: int, words: int, size: int) -> int:
    """The sum of the count / size blocks of `size` slots of x; the caller
    keeps the sum of every slot below 2^{64 words}."""
    data = memoryview(x.to_bytes(8 * words * count, "little"))
    width = 8 * words * size
    return sum(int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width))


class ResidueTable(NamedTuple):
    """Half the units a mod M = f' p^{n+1}, one packed column per unit r =
    _table_units(f', p)[s] below f'p/2: slot j of columns[s] holds 2(M - a)
    for the a with c_n(a) = j and a = r mod f'p.  The other half of row j is
    M - a, at -r mod f'p.  A slot is `words` 64-bit words wide, enough for
    any sum over s of c_s columns[s], plus one c, with 0 <= c, c_s <
    p^{_work_digits(n)}, and a spare top bit."""

    columns: tuple  # one packed int per unit
    words: int


def _table_units(fprime: int, p: int) -> tuple:
    """The units r below f'p/2 that head the columns of every level's table."""
    return tuple(r for r in range(1, (fprime * p + 1) // 2) if math.gcd(r, fprime * p) == 1)


def _residue_table(fprime: int, p: int, n: int) -> ResidueTable:
    """One walk over the table's units mod M = f' p^{n+1}, built cell by
    cell by CRT: a = r mod f' and a = omega(r) (1+p)^j mod p^{n+1}."""
    pn1 = p ** (n + 1)
    M = fprime * pn1
    units = _table_units(fprime, p)
    words = _slot_words(len(units), M, p, n)
    e_f = pn1 * pow(pn1, -1, fprime) % M  # 1 mod f', 0 mod p^{n+1}
    e_p = fprime * pow(fprime, -1, pn1) % M  # 0 mod f', 1 mod p^{n+1}
    teich = [0] + [teichmuller_residue(t, p, n + 1) * e_p for t in range(1, p)]
    steps = [1]  # (1+p)^j mod p^{n+1}, j in Z/p^n
    for _ in range(p ** n - 1):
        steps.append(steps[-1] * (1 + p) % pn1)
    columns = []
    for r in units:
        # a = (r mod f') e_f + omega(r) e_p u mod M is never 0, so 2(M - a) = -2a mod 2M
        b, t = -2 * (r % fprime) * e_f, 2 * teich[r % p]
        columns.append(_pack([(b - t * u) % (2 * M) for u in steps], words))
    return ResidueTable(tuple(columns), words)


class _TableCache:
    """Residue tables, binomial rows and the table units' discrete logs of
    one prime, each built on first use.  Every character of a field shares
    its p, so a request for another prime starts a new working set and drops
    the old one."""

    def __init__(self):
        self.p = None
        self.entries = {}

    def _entry(self, p: int, key: tuple, build):
        if p != self.p:
            self.p, self.entries = p, {}
        if key not in self.entries:
            self.entries[key] = build()
        return self.entries[key]

    def get(self, fprime: int, p: int, n: int) -> ResidueTable:
        return self._entry(p, ("table", fprime, n), lambda: _residue_table(fprime, p, n))

    def unit_logs(self, conductor: int, fprime: int, p: int) -> tuple:
        """unit_group(conductor).dlog of each table unit of (f', p)."""
        dlog = unit_group(conductor).dlog
        return self._entry(p, ("logs", conductor, fprime),
                           lambda: tuple(dlog(r % conductor) for r in _table_units(fprime, p)))

    def binomials(self, p: int, n: int, i: int) -> list:
        """binom(j, i) mod p^DEFAULT_PRECISION for j in Z/p^n."""
        modN = p ** DEFAULT_PRECISION
        return self._entry(p, ("binomials", n, i),
                           lambda: [math.comb(j, i) % modN for j in range(p ** n)])


_TABLES = _TableCache()


@lru_cache(maxsize=1)
def _character_columns(chi: DirichletCharacter, digits: int) -> tuple:
    """Column c holds coordinate c of chi^{-1}(r) / f' mod p^digits over the
    table units r.  Every level of one lambda_minus call shares them, each
    reduced to its own working digits."""
    p, cond = chi.p, chi.conductor
    fprime = split_prime_part(cond, p)[1]
    ring = local_ring(chi.order, p, digits)
    inv_f = pow(fprime, -1, ring.mod)
    exponents = [-chi._exponent_at(logs) % chi.order for logs in _TABLES.unit_logs(cond, fprime, p)]
    vectors = {k: [c * inv_f % ring.mod for c in ring.zeta_vector(k)] for k in set(exponents)}
    return tuple(zip(*(vectors[k] for k in exponents)))


def _projection(chi: DirichletCharacter, n: int) -> tuple:
    """(quotients, words): coordinate i of bucket j, the coefficient of
    (1+T)^j for j in Z/p^n, is slot j of quotients[i], mod p^N."""
    p = chi.p
    fprime = split_prime_part(chi.conductor, p)[1]
    table = _TABLES.get(fprime, p, n)
    pn1 = p ** (n + 1)
    modw = p ** _work_digits(n)
    ones = _ones(p ** n, table.words)

    # Slot j of sum_s c_s columns[s] is sum_r 2(M - a) c_r; less M sum c,
    # shifted in as its residue mod p^w, it is sum_r (M - 2a) c_r, which is
    # sum_a -a chi^{-1}(a) / f' over row j, and it is divided by p^{n+1},
    # exactly at p
    quotients = []
    for column in _character_columns(chi, _work_digits(max(n, MAX_LEVEL))):
        column = [c % modw for c in column]
        shift = -fprime * pn1 * sum(column) % modw
        packed = sum(map(mul, column, table.columns)) + shift * ones
        quotients.append(_exact_quotient(packed, pn1, ones, table.words))
    return tuple(quotients), table.words


@dataclass
class StickelbergerSeries:
    """Level-n series with coefficients as O_chi coordinate vectors mod p^N,
    held packed: coordinate i of bucket j is slot j of quotients[i], reduced
    mod p^N, with slots `words` 64-bit words wide."""

    precision: ClassVar[int] = DEFAULT_PRECISION
    chi: DirichletCharacter
    level: int
    quotients: tuple  # one packed int per coordinate
    words: int

    @property
    def length(self) -> int:
        return self.chi.p ** self.level

    def _unpacked(self, quotients: tuple, count: int) -> list:
        modN = self.chi.p ** self.precision
        return [[y % modN for y in _unpack(q, count, self.words)] for q in quotients]

    @cached_property
    def bucket_columns(self) -> list:
        """Coordinate i of every bucket, unpacked on first read."""
        return self._unpacked(self.quotients, self.length)

    @property
    def bucket_coefficients(self) -> list:
        """The coefficients on the (1+T)^j basis, one vector per bucket."""
        return [list(v) for v in zip(*self.bucket_columns)]

    def t_coefficient(self, i: int) -> list:
        """Coefficient of T^i: sum_j binom(j, i) * bucket_j, column by column
        (binom(j, i) = 0 for j < i, so i >= length gives the zero vector)."""
        modN = self.chi.p ** self.precision
        combs = _TABLES.binomials(self.chi.p, self.level, i)
        return [sum(map(mul, combs, col)) % modN for col in self.bucket_columns]

    def is_unit_coefficient(self, i: int) -> bool:
        return local_ring(self.chi.order, self.chi.p, self.precision).is_unit(self.t_coefficient(i))

    def first_unit_index(self) -> Optional[int]:
        for i in range(self.length):
            if self.is_unit_coefficient(i):
                return i
        return None

    def folded_buckets(self, lower_level: int) -> list:
        """Bucket coefficients reduced mod (1+T)^{p^lower_level} - 1: row r
        sums the rows j = r mod p^lower_level.  Only the folded slots are
        unpacked."""
        size = self.chi.p ** lower_level
        folded = tuple(_fold(q, self.length, self.words, size) for q in self.quotients)
        return [list(v) for v in zip(*self._unpacked(folded, size))]


def stickelberger_series(chi: DirichletCharacter, n: int) -> StickelbergerSeries:
    """Level-n Stickelberger series of the odd character chi != omega."""
    if not chi.is_odd:
        raise ValueError("the series is defined for odd characters only")
    if chi == omega(chi.p):
        raise ValueError("omega is excluded; its lambda needs a table entry")
    if n < 0:
        raise ValueError("level must be nonnegative")
    return StickelbergerSeries(chi, n, *_projection(chi, n))


@dataclass(frozen=True)
class LambdaResult:
    lambda_: int
    mu_zero: bool
    levels_used: Tuple[int, int]


def lambda_minus(chi: DirichletCharacter) -> LambdaResult:
    """lambda of the minus-side characteristic series for odd chi != omega.

    Read once per level n = 1, 2, ...: mod p, (1+T)^{p^n} - 1 = T^{p^n}, so
    by the distribution relation (Washington, Cyclotomic Fields, ch. 7) the
    level-n series has the first p^n T-coefficients of the characteristic
    series mod p.  Its first unit coefficient is lambda; with none, lambda
    >= p^n.  Level n is read once level n+1 folds onto it exactly, else
    InvariantViolationError; no unit below level MAX_LEVEL raises
    PrecisionError.
    """
    low = stickelberger_series(chi, 1)
    for n in range(1, MAX_LEVEL):
        high = stickelberger_series(chi, n + 1)
        if high.folded_buckets(n) != low.bucket_coefficients:
            raise InvariantViolationError(
                f"the level {n + 1} series of {chi.label()} does not fold onto level {n}"
            )
        lam = low.first_unit_index()
        if lam is not None:
            return LambdaResult(lam, True, (n, n + 1))
        low = high
    raise PrecisionError(
        f"the series of {chi.label()} have no unit coefficient below level "
        f"MAX_LEVEL = {MAX_LEVEL}, so lambda >= {chi.p}^{MAX_LEVEL - 1}"
    )


@dataclass(frozen=True)
class BernoulliB1:
    """Exact generalized Bernoulli number B_{1,chi} in Q(zeta_ord(chi)).

    Stored as Fractions on the power basis of the full cyclotomic polynomial;
    p-adic valuation is read in the same pinned local ring the series
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
            zv = ring.zeta_vector(i)
            for t in range(ring.dim):
                img[t] = (img[t] + scaled * zv[t]) % modK
        vnum = min(K if k == 0 else split_prime_part(k, p)[0] for k in img)
        if vnum >= K:
            raise PrecisionError("B1 vanished to working precision")
        return vnum - vden


def bernoulli_b1(chi: DirichletCharacter) -> BernoulliB1:
    """B_{1,chi} = (1/f) sum_{a=1}^{f} a chi(a), exactly.

    The independent check of lambda_minus: for odd chi != omega, lambda >= 1
    exactly when p divides B_{1,chi^{-1}}.  It builds no series: it sums
    over one period of chi."""
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
