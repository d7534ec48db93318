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
M = M_n is filed once per (f', p, n) in a residue table, by j = c_n(a) and
by r = a mod f'p; by CRT each cell holds exactly one a.  Since c_n(M - a) =
c_n(a) and chi(-1) = -1, the pair a, M - a contributes (M - 2a) chi^{-1}(a)
to its bucket, so the table keeps only the r below f'p/2.

A cell is affine in one small index up to a floor.  With (1+p)^j = 1 + p v_j
mod p^{n+1}, 0 <= v_j < p^n, CRT gives a = rho_r + sigma_r v_j - M F_{r,j},
where rho_r = (r mod f') e_f + tau_r and sigma_r = p tau_r mod M, with
tau_r = omega(r) e_p mod M for the idempotents e_f, e_p of Z/M, and F_{r,j} =
floor((rho_r + sigma_r v_j) / M) < p^n.  So M - 2a = alpha_r + beta_r v_j +
2M F_{r,j}, with alpha_r = M - 2 rho_r and beta_r = -2 sigma_r.  The table
keeps the floors of r as one packed column: an int holding F_{r,j} in a
fixed-width slot j of its own (Kronecker substitution).  A column is built
whole, as Barrett's quotient (P. Barrett, CRYPTO '86) of rho_r ONES +
sigma_r V by M in every slot at once, V the packed v_j and ONES a 1 in
every slot, and checked: one packed range test reads every slot of the
remainder in [0, M).

With c_r a coordinate of chi^{-1}(r) / f', and A, B the sums over r of c_r
alpha_r and c_r beta_r, bucket j, the sum over r of c_r (M - 2a) / p^{n+1},
is (A + v_j B) / p^{n+1} + 2 f' sum_r c_r F_{r,j}.  As v_0 = 0 and v_1 = 1
(at n = 0 every beta_r is 0 mod p), every bucket is p-integral exactly when
p^{n+1} divides A and B: two scalar tests per coordinate and no division
per slot.  (Mod p^{n+1}, beta_r = p alpha_r, so B = pA and the second test
follows from the first on a table built right; it checks the beta_r.)  The
table keeps alpha_r and beta_r side by side in one int, so one sum of
products gives A and B.  The coordinate's buckets are then the slots, mod
p^N, of s0 ONES + s1 V + sum_r m_r F_r with s0 = A / p^{n+1}, s1 = B /
p^{n+1} and m_r = 2 f' c_r reduced mod p^N: one multiply-accumulate of the
columns, which Python's big-int arithmetic runs in C.  Every slot is below
the table's bound L = (p^N - 1)(1 + (U + 1)(p^n - 1)) + 1, U the columns.  A
slot is S = 32 words bits wide (WORD_BITS, the width of an array("I")
cell), as few words as keep (p + 1) L + p^N below 2^{S-1} and hold the
Barrett products of the table's build; level 1 takes the words of level 2.
Tables are shared by every character of one prime and dropped when a
character of another prime asks.

Level n+1 is checked against level n >= 1 on the packed sums.  Its p blocks
of p^n slots are added by halving (_fold: ceil(log2 p) steps of one mask, one
shift and one add on the whole int; each step's sums are sub-sums of the
whole, p slots below p L < 2^S, so no step carries).  To the folded int,
slots a_j < p L_{n+1}, z ONES is added, z the least multiple of p^N at or
above level n's bound L_n, and level n's int, slots l_j < L_n, is
subtracted, re-packed at the upper slot width only when the two tables'
words differ.  As L_n <= L_{n+1}, every slot a_j + z - l_j lies in (0, p
L_{n+1} + L_n + p^N), below 2^{S-1}.  If every slot x_j of such an int is
y_j p^N, then y_j < 2^{S-1} / 2^{d-1} = 2^{S-d} with d = bit_length(p^N);
conversely, if divmod(x, p^N) leaves 0 and a quotient whose slots y_j are
below 2^{S-d}, every y_j p^N is below 2^S, so these are the base-2^S digits
of x.  So one divmod, and the upper table's mask of the top d bits of every
slot, compare every folded slot with level n's mod p^N at once.  The T^0
coefficient of level 1, the sum of its p buckets, is its int folded to one
slot, below p L; at a higher level it is read from the unpacked buckets,
which only a character whose lambda is p or more reads, and it unpacks them
for its T^i anyway.  So a character whose lambda is 0 unpacks no slot.

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
from functools import cached_property, lru_cache
from operator import mul
from typing import NamedTuple, Optional, Tuple

from .arith import euler_phi, split_prime_part, teichmuller_residue, unit_group
from .characters import DirichletCharacter, FrozenValue, omega
from .errors import InvariantViolationError, PrecisionError
from .localring import _pdivmod, cyclotomic_poly, local_ring

DEFAULT_PRECISION = 8  # digits of every series coefficient
MAX_LEVEL = 4  # the highest level lambda_minus builds
WORD_BITS = 32  # a slot is a whole number of these words, array("I") cells


def _work_digits(n: int) -> int:
    """Digits mod p of the character coordinates a level-n projection reads:
    its scalars A and B are divided by p^{n+1} and kept mod p^N, N =
    DEFAULT_PRECISION, so N + n + 1 of them would do."""
    return DEFAULT_PRECISION + n + 3


def _barrett(M: int, p: int, n: int) -> tuple:
    """(k, m, top) of Barrett's reduction mod M of the slots x <= x_max =
    (M - 1) p^n of a level-n column before its floors are taken: with k =
    bits(x_max) + bits(M) and m = ceil(2^k / M), floor(x m / 2^k) = floor(x /
    M), and every product x m is at most top = x_max m."""
    x_max = (M - 1) * p ** n
    k = x_max.bit_length() + M.bit_length()
    m = -(-(1 << k) // M)
    return k, m, x_max * m


def _slot_bound(count: int, p: int, n: int) -> int:
    """L: every slot s0 + s1 v_j + sum of `count` products m_r F_{r,j} of a
    level-n projection, with s0, s1, m_r < p^N and v_j, F_{r,j} < p^n, is
    below it."""
    return (p ** DEFAULT_PRECISION - 1) * (1 + (count + 1) * (p ** n - 1)) + 1


def _slot_words(count: int, fprime: int, p: int, n: int) -> int:
    """The fewest WORD_BITS-bit words per slot of the level-n table of f',
    with `count` columns, that keep (p + 1) L + p^N below 2^{S-1} (the fold
    check's differences, see the module docstring) and hold the largest
    product of the table's Barrett reduction.  Level 1 takes the words of
    level 2, so the fold check every character runs re-packs nothing."""
    n = 2 if n == 1 else n
    fold = (p + 1) * _slot_bound(count, p, n) + p ** DEFAULT_PRECISION
    bits = max(fold.bit_length() + 1, _barrett(fprime * p ** (n + 1), p, n)[2].bit_length())
    return -(-bits // WORD_BITS)


# lambda_minus reads a character's lambda at level 1 once the level-2 series,
# projected from the residue table of (f', p, 2), folds onto it.  The largest
# such table is that of f' = f, so cli bounds its bytes before any table is
# built (its docstring gives the measured cases: 23.1 MB for p = 157, and
# 66.2 MB for p = 223, the last f = 1 prime admitted); a character whose
# lambda is p or more also reads level 3, p times larger, which lambda_minus
# bounds before it builds it, and level 4 likewise.
STICKELBERGER_TABLE_BOUND = 64 << 20


def _table_bytes(fprime: int, p: int, n: int) -> int:
    """Bytes of the packed columns of the (f', p, n) residue table, worked out
    without building it: phi(f'p)/2 columns of p^n slots of _slot_words words."""
    columns = euler_phi(fprime * p) // 2
    return columns * p ** n * (WORD_BITS // 8) * _slot_words(columns, fprime, p, n)


def _pack(values, words: int) -> int:
    """The int whose slot j, bits [S j, S (j+1)) with S = WORD_BITS words,
    holds values[j]; a value of 2^S or more raises OverflowError."""
    width = WORD_BITS // 8 * words
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _unpack(x: int, count: int, words: int) -> list:
    """The first `count` slots of x >= 0, as _pack lays them out.  A slot
    value of 2^{WORD_BITS words} or more carries into the next slot; only the
    last slot raises OverflowError."""
    cells = array("I", x.to_bytes(WORD_BITS // 8 * words * count, "little"))
    if sys.byteorder == "big":
        cells.byteswap()
    slots = cells[words - 1::words].tolist()
    for k in range(words - 2, -1, -1):
        slots = [high << WORD_BITS | low for high, low in zip(slots, cells[k::words])]
    return slots


def _ones(count: int, words: int) -> int:
    """The int with 1 in each of its first `count` slots."""
    return int.from_bytes((b"\1" + bytes(WORD_BITS // 8 * words - 1)) * count, "little")


def _exact_quotient(x: int, divisor: int, mask: int, error: str) -> int:
    """x / divisor slot by slot, for slots below 2^{S-1} and mask the top
    bit_length(divisor) bits of each; InvariantViolationError(error) unless
    all divide."""
    q, r = divmod(x, divisor)
    if r or q & mask:
        raise InvariantViolationError(error)
    return q


def _fold(x: int, count: int, words: int, size: int) -> int:
    """The sum of the count / size blocks of `size` slots of x, by halving:
    while more than one block is left, the upper floor(blocks / 2) are added
    onto the lower ceil(blocks / 2).  Each partial sum is a sub-sum of the
    whole, so the caller, by keeping the sum of every slot below 2^{WORD_BITS
    words}, keeps every step free of carries."""
    width = WORD_BITS * words * size
    blocks = count // size
    while blocks > 1:
        blocks = (blocks + 1) // 2
        x = (x & (1 << width * blocks) - 1) + (x >> width * blocks)
    return x


class ResidueTable(NamedTuple):
    """Half the units a mod M = f' p^{n+1}, by the units r =
    _table_units(f', p)[s] below f'p/2: for the a with c_n(a) = j and a = r
    mod f'p, M - 2a is alpha_s + beta_s v_j + 2M F_{s,j}; slot j of
    columns[s] holds the floor F_{s,j}, and scalars[s] is alpha_s + beta_s
    2^split, each reduced mod p^{N+n+1}.  The other half of row j is M - a,
    at -r mod f'p.  A slot is `words` WORD_BITS-bit words wide, and every
    slot of a projection s0 ONES + s1 steps + sum_s m_s columns[s], with s0,
    s1, m_s < p^N, is below `bound`."""

    columns: tuple  # one packed int of floors per unit
    scalars: tuple  # alpha_r + beta_r 2^split, each mod p^{N+n+1}
    split: int
    steps: int  # v_j in slot j
    words: int
    ones: int  # a 1 in every slot
    mask: int  # the top bit_length(p^N) bits of every slot, for the fold check
    bound: int


def _table_units(fprime: int, p: int) -> tuple:
    """The units r below f'p/2 that head the columns of every level's table."""
    return tuple(r for r in range(1, (fprime * p + 1) // 2) if math.gcd(r, fprime * p) == 1)


def _teichmuller_column(p: int, N: int) -> list:
    """omega(t) mod p^N at index t, 0 <= t < p, with 0 at t = 0: omega(g^i)
    = omega(g)^i for the generator g of the cached unit_group(p), the
    smallest primitive root mod p, so the column takes one lift and then one
    product per entry."""
    g = unit_group(p).generators[0]
    mod = p ** N
    w = teichmuller_residue(g, p, N)
    column = [0] * p
    t, x = 1, 1
    for _ in range(p - 1):
        column[t] = x
        t, x = t * g % p, x * w % mod
    return column


def _residue_table(fprime: int, p: int, n: int) -> ResidueTable:
    """Each column as a whole int.  By CRT, a = (r mod f') e_f + omega(r) u_j
    e_p mod M = f' p^{n+1}, with u_j = (1+p)^j = 1 + p v_j mod p^{n+1}, so
    the column of r is the floors of X = rho ONES + sigma V by M, slot by
    slot.  Every slot of X is at most x_max = (M - 1) p^n, so _barrett's
    quotient floor(x m / 2^k) is exactly floor(x / M), and with x_max m
    below 2^S it sits in the low S - k bits of slot j of X m / 2^k.  The
    remainder y_j = x - M F_j is checked to lie in [0, M): as M F_j <
    2^{S - bits(x_max)} and S >= 2 bits(x_max), every y_j lies within
    2^{S-2} of 0 and M < 2^{S-2}, so bit S-1 of slot j of Y + 2^{S-1} ONES
    is set exactly when y_j >= 0, and of Y + (2^{S-1} - M) ONES exactly
    when y_j >= M.  The scalars are kept mod Q = p^{N+n+1}, all that a
    projection's division by p^{n+1} and its residue mod p^N read, and put
    side by side at a split E above any sum of U products c alpha with c
    below p^{_work_digits(max(n, MAX_LEVEL))}, the digits of the character
    columns."""
    pn1 = p ** (n + 1)
    M = fprime * pn1
    units = _table_units(fprime, p)
    words = _slot_words(len(units), fprime, p, n)
    k, m, top = _barrett(M, p, n)
    S = WORD_BITS * words
    if top >> S:
        raise InvariantViolationError(f"({fprime}, {p}, {n}) residue table: x_max m overflows a slot")
    e_f = pn1 * pow(pn1, -1, fprime) % M  # 1 mod f', 0 mod p^{n+1}
    e_p = fprime * pow(fprime, -1, pn1)  # 0 mod f', 1 mod p^{n+1}
    pn = p ** n
    steps = [0]  # v_j, j in Z/p^n
    for _ in range(pn - 1):
        steps.append((steps[-1] * (1 + p) + 1) % pn)
    steps, ones = _pack(steps, words), _ones(pn, words)
    low, top_bits, Mones = ((1 << S - k) - 1) * ones, ones << S - 1, M * ones
    tau = [w * e_p % M for w in _teichmuller_column(p, n + 1)]  # by r mod p
    Q = p ** (DEFAULT_PRECISION + n + 1)
    E = (len(units) * (p ** _work_digits(max(n, MAX_LEVEL)) - 1) * (Q - 1)).bit_length()
    columns, scalars, inside = [], [], top_bits
    for r in units:
        t = tau[r % p]
        a, s = ((r % fprime) * e_f + t) % M, p * t % M
        x = a * ones + s * steps
        floors = x * m >> k & low
        y = x - M * floors + top_bits
        inside &= y ^ y - Mones
        columns.append(floors)
        scalars.append((M - 2 * a) % Q + (-2 * s % Q << E))  # alpha_r + beta_r 2^E, mod Q
    if inside != top_bits:
        raise InvariantViolationError(f"({fprime}, {p}, {n}) residue table: a floor is not floor(x / M)")
    mask = (ones << S) - (ones << S - (p ** DEFAULT_PRECISION).bit_length())
    return ResidueTable(tuple(columns), tuple(scalars), E, steps, words, ones, mask,
                        _slot_bound(len(units), p, n))


class _TableCache:
    """Residue tables, the table units' discrete logs and the scaled zeta
    vectors of one prime, each built on first use.  Every character of a
    field shares its p, so a request for another prime starts a new working
    set and drops the old one."""

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

    def scaled_zeta(self, order: int, fprime: int, p: int, digits: int) -> dict:
        """k -> the coordinates of zeta_order^k / f' mod p^digits, each paired
        with its multiple by 2 f' mod p^N, filled by _character_columns for
        the k its characters read."""
        return self._entry(p, ("zeta", order, fprime, digits), dict)

    def unit_logs(self, conductor: int, fprime: int, p: int) -> tuple:
        """Tuple i holds log i, in unit_group(conductor), of each table unit."""
        dlog = unit_group(conductor).dlog
        return self._entry(p, ("logs", conductor, fprime),
                           lambda: tuple(zip(*map(dlog, _table_units(fprime, p)))))


_TABLES = _TableCache()


@lru_cache(maxsize=1)
def _character_columns(chi: DirichletCharacter, digits: int) -> tuple:
    """One pair per coordinate c: coordinate c of chi^{-1}(r) / f' mod
    p^digits over the table units r, and the multipliers 2 f' times those,
    coordinate c of 2 chi^{-1}(r), mod p^N.  They are read one unit-group
    generator at a time; every level of one lambda_minus call shares them,
    and characters of one order share their vectors."""
    p, cond, order = chi.p, chi.conductor, chi.order
    fprime = split_prime_part(cond, p)[1]
    ring = local_ring(order, p, digits)
    logs = _TABLES.unit_logs(cond, fprime, p)
    exponents = [0] * len(logs[0])
    for weight, column in zip(chi.weights, logs):
        exponents = [(k - weight * x) % order for k, x in zip(exponents, column)]
    vectors = _TABLES.scaled_zeta(order, fprime, p, digits)
    missing = set(exponents).difference(vectors)
    if missing:
        inv_f, modN = pow(fprime, -1, ring.mod), p ** DEFAULT_PRECISION
        for k in missing:
            zeta = ring.zeta_vector(k)
            vectors[k] = [c * inv_f % ring.mod for c in zeta] + [2 * c % modN for c in zeta]
    columns = tuple(zip(*(vectors[k] for k in exponents)))
    return tuple(zip(columns[:ring.dim], columns[ring.dim:]))


def _projection(chi: DirichletCharacter, n: int) -> tuple:
    """(sums, table): coordinate i of bucket j, the coefficient of (1+T)^j
    for j in Z/p^n, is slot j of sums[i], mod p^N."""
    p = chi.p
    fprime = split_prime_part(chi.conductor, p)[1]
    table = _TABLES.get(fprime, p, n)
    pn1, modN = p ** (n + 1), p ** DEFAULT_PRECISION

    # bucket j is (A + v_j B) / p^{n+1} + sum_r m_r F_{r,j}
    sums = []
    for column, multipliers in _character_columns(chi, _work_digits(max(n, MAX_LEVEL))):
        AB = sum(map(mul, column, table.scalars))
        A, B = AB & (1 << table.split) - 1, AB >> table.split
        if A % pn1 or B % pn1:
            raise InvariantViolationError("Stickelberger coefficient is not p-integral; "
                                          "this construction only applies to odd characters != omega")
        s0, s1 = A // pn1 % modN, B // pn1 % modN
        sums.append(s0 * table.ones + s1 * table.steps + sum(map(mul, multipliers, table.columns)))
    return tuple(sums), table


class StickelbergerSeries:
    """Level-n series with coefficients as O_chi coordinate vectors mod p^N,
    held packed: coordinate i of bucket j is slot j of sums[i], reduced mod
    p^N, in the slots of its residue table."""

    precision = DEFAULT_PRECISION

    def __init__(self, chi: DirichletCharacter, level: int, sums: tuple, table: ResidueTable):
        self.chi = chi
        self.level = level
        self.sums = sums  # one packed int per coordinate
        self.table = table

    @property
    def length(self) -> int:
        return self.chi.p ** self.level

    @cached_property
    def bucket_columns(self) -> list:
        """Coordinate i of every bucket, unpacked on first read."""
        modN = self.chi.p ** self.precision
        return [[y % modN for y in _unpack(x, self.length, self.table.words)] for x in self.sums]

    def t_coefficient(self, i: int) -> list:
        """Coefficient of T^i: sum_j binom(j, i) * bucket_j, column by column
        (binom(j, i) = 0 for j < i, so i >= length gives the zero vector).
        T^0, the sum of the buckets, is at level 1 each int folded to one
        slot; a slot holds the sum of p slots, not of p^n."""
        modN = self.chi.p ** self.precision
        if i == 0 and self.level <= 1:
            return [_fold(x, self.length, self.table.words, 1) % modN for x in self.sums]
        combs = [math.comb(j, i) % modN for j in range(self.length)]
        return [sum(map(mul, combs, col)) % modN for col in self.bucket_columns]

    def is_unit_coefficient(self, i: int) -> bool:
        # a unit mod p is one at any precision: read it in the ring of the character columns
        return local_ring(self.chi.order, self.chi.p, _work_digits(MAX_LEVEL)).is_unit(self.t_coefficient(i))

    def first_unit_index(self) -> Optional[int]:
        for i in range(self.length):
            if self.is_unit_coefficient(i):
                return i
        return None


def _check_fold(high: StickelbergerSeries, low: StickelbergerSeries) -> None:
    """InvariantViolationError unless level n+1 = high.level, folded onto
    level n = low.level >= 1, equals it mod p^N slot by slot: every slot of
    fold(high) + z ONES - low, z the least multiple of p^N at or above the
    lower table's bound, lies in [0, 2^{S-1}) (see the module docstring), so
    _exact_quotient's test by p^N reads them all at once."""
    p, n, words = low.chi.p, low.level, high.table.words
    count, modN = p ** n, p ** low.precision
    cut = (1 << WORD_BITS * words * count) - 1  # the first p^n slots
    bias = -(-low.table.bound // modN) * modN * (high.table.ones & cut)  # z ONES
    mask = high.table.mask & cut
    error = f"the level {n + 1} series of {low.chi.label()} does not fold onto level {n}"
    for upper, lower in zip(high.sums, low.sums):
        if low.table.words != words:
            lower = _pack(_unpack(lower, count, low.table.words), words)
        _exact_quotient(_fold(upper, high.length, words, count) + bias - lower, modN, mask, error)


def stickelberger_series(chi: DirichletCharacter, n: int) -> StickelbergerSeries:
    """Level-n Stickelberger series of the odd character chi != omega."""
    if not chi.is_odd:
        raise ValueError("the series is defined for odd characters only")
    if chi == omega(chi.p):
        raise ValueError("omega is excluded; its lambda needs a table entry")
    if n < 0:
        raise ValueError("level must be nonnegative")
    return StickelbergerSeries(chi, n, *_projection(chi, n))


class LambdaResult(FrozenValue):
    __slots__ = _fields = ("lambda_", "levels_used")

    def __init__(self, lambda_: int, levels_used: Tuple[int, int]):
        object.__setattr__(self, "lambda_", lambda_)
        object.__setattr__(self, "levels_used", levels_used)


def lambda_minus(chi: DirichletCharacter) -> LambdaResult:
    """lambda of the minus-side characteristic series for odd chi != omega.

    Read once per level n = 1, 2, ...: mod p, (1+T)^{p^n} - 1 = T^{p^n}, so
    by the distribution relation (Washington, Cyclotomic Fields, ch. 7) the
    level-n series has the first p^n T-coefficients of the characteristic
    series mod p.  Its first unit coefficient is lambda; with none, lambda
    >= p^n.  Level n is read once level n+1 folds onto it exactly, else
    InvariantViolationError; no unit below level MAX_LEVEL, or a level-3 or
    level-4 residue table above STICKELBERGER_TABLE_BOUND bytes, raises
    PrecisionError before that table is built.
    """
    p = chi.p
    low = stickelberger_series(chi, 1)
    for n in range(1, MAX_LEVEL):
        size = _table_bytes(split_prime_part(chi.conductor, p)[1], p, n + 1) if n >= 2 else 0
        if size > STICKELBERGER_TABLE_BOUND:
            raise PrecisionError(
                f"lambda of {chi.label()} needs the level {n + 1} series, whose residue "
                f"table takes {size} bytes, above {STICKELBERGER_TABLE_BOUND}"
            )
        high = stickelberger_series(chi, n + 1)
        _check_fold(high, low)
        lam = low.first_unit_index()
        if lam is not None:
            return LambdaResult(lam, (n, n + 1))
        low = high
    raise PrecisionError(
        f"the series of {chi.label()} have no unit coefficient below level "
        f"MAX_LEVEL = {MAX_LEVEL}, so lambda >= {p}^{MAX_LEVEL - 1}"
    )


class BernoulliB1(FrozenValue):
    """Exact generalized Bernoulli number B_{1,chi} in Q(zeta_ord(chi)).

    Stored as integer coordinates on the power basis of the full cyclotomic
    polynomial, over the denominator f = chi.conductor; p-adic valuation is
    read in the same pinned local ring the series machinery uses (integer
    floor in the ramified case).
    """

    __slots__ = _fields = ("chi", "coordinates")

    def __init__(self, chi: DirichletCharacter, coordinates: tuple):
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "coordinates", coordinates)

    def p_valuation(self) -> int:
        """The least v_p of the coordinates of f B_{1,chi}, less v_p(f).  The
        coordinates are read mod p^K with K = 12 + v_p(f), so a B_{1,chi} of
        valuation 12 or more raises PrecisionError."""
        p = self.chi.p
        vf = split_prime_part(self.chi.conductor, p)[0]
        K = 12 + vf
        ring = local_ring(self.chi.order, p, K)
        modK = ring.mod
        img = [0] * ring.dim
        for i, c in enumerate(self.coordinates):
            zv = ring.zeta_vector(i)
            for t in range(ring.dim):
                img[t] = (img[t] + c * zv[t]) % modK
        vnum = min(K if k == 0 else split_prime_part(k, p)[0] for k in img)
        if vnum >= K:
            raise PrecisionError("B1 vanished to working precision")
        return vnum - vf


def bernoulli_b1(chi: DirichletCharacter) -> BernoulliB1:
    """B_{1,chi} = (1/f) sum_{a=1}^{f} a chi(a), exactly.

    The independent check of lambda_minus: for odd chi != omega, lambda >= 1
    exactly when p divides B_{1,chi^{-1}}.  It builds no series: it sums
    over one period of chi, and keeps the sum's remainder mod Phi_m, whose
    integer coordinates are f B_{1,chi}."""
    if not chi.is_odd:
        raise ValueError("B_{1,chi} vanishes for even chi; rejected")
    m = chi.order
    buckets = [0] * m
    for a, k in enumerate(chi.value_exponents()):
        if k is not None:
            buckets[k] += a
    phi_m = list(cyclotomic_poly(m))
    _, rem = _pdivmod(buckets, phi_m)
    width = len(phi_m) - 1
    return BernoulliB1(chi, tuple(rem + [0] * (width - len(rem))))
