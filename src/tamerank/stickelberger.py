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
substitution).  A column is built whole, from one packed int of the steps
(1+p)^j, and reduced mod 2M_n in every slot at once with Barrett's exact
quotient (P. Barrett, CRYPTO '86).  A character is then a projection of the
table: coordinate i of every bucket at once is the multiply-accumulate, over
r, of coordinate i of chi^{-1}(r) times the column of r, which Python's
big-int arithmetic runs in C.  Tables are shared by every character of one
prime and dropped when a character of another prime asks.

The projection stays one int x per coordinate.  One multiple of the table's
ONES (a 1 in every slot) turns every slot into the numerator of its bucket
sum, mod p^w with w = N + n + 3 working digits, and x is then divided by P =
p^{n+1} as a whole: q, r = divmod(x, P).  A slot is S = 32 words bits wide
(WORD_BITS, the width of an array("I") cell), as few words as hold it and the
Barrett products of the table's build, and kept below 2^{S-1}, so every slot
is divisible by P exactly when r = 0 and the top b = bit_length(P) bits of
every slot of q, the table's MASK, are 0.  If every slot x_j is y_j P, then
y_j < 2^{S-1} / 2^{b-1} = 2^k with k = S - b.  Conversely, if r = 0 and
every y_j < 2^k, then every y_j P < 2^S, so these are the base-2^S digits
of x: x_j = y_j P.

Level n+1 is checked against level n >= 1 on the packed quotients.  Its p
blocks of p^n slots are added by halving (_fold: ceil(log2 p) steps of one
mask, one shift and one add on the whole int; each step's sums are sub-sums
of the whole, which never carries: p (2^k - 1) < P 2^k <= 2^S).  To the
folded int, slots a_j, z ONES is added, z the least multiple of p^N at or
above 2^{S-b} with b = bit_length(p^{n+1}), and level n's quotient, slots
b_j, is subtracted, re-packed at the upper slot width only when the two
tables' words differ.  As b_j < 2^{S-b} <= z, a_j < 2^{S-b+1}, z < 2^{S-b} +
p^N and, with b >= 4, p^N < 2^{S-4} and 2^{S-b} <= 2^{S-4}, every slot a_j +
z - b_j lies in [0, 2^{S-2}).  So the test above, with divisor p^N and mask
the top bit_length(p^N) bits of every slot, passes exactly when every folded
slot equals level n's slot mod p^N.  The T^0 coefficient of a level, the sum
of its buckets, is its quotient folded to one slot.  So a character whose
lambda is 0 unpacks no slot, except to re-pack level n at a wider slot; a
level's buckets are unpacked only to read a T^i with i >= 1.

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

from .arith import euler_phi, smallest_primitive_root, split_prime_part, teichmuller_residue, unit_group
from .characters import DirichletCharacter, FrozenValue, omega
from .errors import InvariantViolationError, PrecisionError
from .localring import _pdivmod, cyclotomic_poly, local_ring

DEFAULT_PRECISION = 8  # digits of every series coefficient
MAX_LEVEL = 4  # the highest level lambda_minus builds
WORD_BITS = 32  # a slot is a whole number of these words, array("I") cells


def _work_digits(n: int) -> int:
    """Digits mod p that the level-n sums carry before the exact division by
    p^{n+1}; the series keeps DEFAULT_PRECISION of them."""
    return DEFAULT_PRECISION + n + 3


def _barrett(M: int, p: int, n: int) -> tuple:
    """(k, m, top) of Barrett's reduction mod 2M of the slots x <= x_max =
    (2M - 1) p^{n+1} of an unreduced column: with k = bits(x_max) + bits(2M)
    and m = ceil(2^k / 2M), floor(x m / 2^k) = floor(x / 2M), and every
    product x m is at most top = x_max m."""
    x_max = (2 * M - 1) * p ** (n + 1)
    k = x_max.bit_length() + (2 * M).bit_length()
    m = -(-(1 << k) // (2 * M))
    return k, m, x_max * m


def _slot_words(count: int, M: int, p: int, n: int) -> int:
    """The fewest WORD_BITS-bit words per slot that hold, with the top bit
    spare, any sum of `count` products c v and one shift c, with 0 <= c <
    p^{_work_digits(n)} and 0 <= v <= 2M - 1, and that hold the largest
    product of the table's Barrett reduction."""
    bound = (count * (2 * M - 1) + 1) * (p ** _work_digits(n) - 1)
    bits = max(bound.bit_length() + 1, _barrett(M, p, n)[2].bit_length())
    return -(-bits // WORD_BITS)


# lambda_minus reads a character's lambda at level 1 once the level-2 series,
# projected from the residue table of (f', p, 2), folds onto it.  The largest
# such table is that of f' = f, so cli bounds its bytes before any table is
# built (its docstring gives the measured cases); a character whose lambda is
# p or more also reads level 3, p times larger, which lambda_minus bounds
# before it builds it, and level 4 likewise.
STICKELBERGER_TABLE_BOUND = 64 << 20


def _table_bytes(fprime: int, p: int, n: int) -> int:
    """Bytes of the packed columns of the (f', p, n) residue table, worked out
    without building it: phi(f'p)/2 columns of p^n slots of _slot_words words."""
    columns = euler_phi(fprime * p) // 2
    return columns * p ** n * (WORD_BITS // 8) * _slot_words(columns, fprime * p ** (n + 1), p, n)


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


def _exact_quotient(x: int, divisor: int, mask: int, error: Optional[str] = None) -> int:
    """x / divisor slot by slot, for slots below 2^{S-1} and mask the top
    bit_length(divisor) bits of each; InvariantViolationError, with `error`
    if given, unless all divide."""
    q, r = divmod(x, divisor)
    if r or q & mask:
        raise InvariantViolationError(
            error or "Stickelberger coefficient is not p-integral; "
                     "this construction only applies to odd characters != omega"
        )
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
    """Half the units a mod M = f' p^{n+1}, one packed column per unit r =
    _table_units(f', p)[s] below f'p/2: slot j of columns[s] holds 2(M - a)
    for the a with c_n(a) = j and a = r mod f'p.  The other half of row j is
    M - a, at -r mod f'p.  A slot is `words` WORD_BITS-bit words wide,
    enough for any sum over s of c_s columns[s], plus one c, with 0 <= c, c_s
    < p^{_work_digits(n)}, and a spare top bit."""

    columns: tuple  # one packed int per unit
    words: int
    ones: int  # a 1 in every slot
    mask: int  # the top bit_length(p^{n+1}) bits of every slot


def _table_units(fprime: int, p: int) -> tuple:
    """The units r below f'p/2 that head the columns of every level's table."""
    return tuple(r for r in range(1, (fprime * p + 1) // 2) if math.gcd(r, fprime * p) == 1)


def _teichmuller_column(p: int, N: int) -> list:
    """omega(t) mod p^N at index t, 0 <= t < p, with 0 at t = 0: omega(g^i)
    = omega(g)^i for the smallest primitive root g mod p, so the column
    takes one lift and then one product per entry."""
    g = smallest_primitive_root(p)
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
    e_p mod M = f' p^{n+1}, with u_j = (1+p)^j mod p^{n+1}, and a is never 0,
    so 2(M - a) = -2a mod 2M: the column of r is X = B ONES + T U reduced mod
    2M slot by slot, with B = -2 (r mod f') e_f and T = -2 omega(r) e_p mod
    2M and U the packed u_j.  Every slot x of X is at most x_max = (2M - 1)
    p^{n+1}, so _barrett's quotient floor(x m / 2^k) is exactly floor(x /
    2M), and _slot_words keeps x_max m below 2^S, so it sits in the low S - k
    bits of slot j of X m / 2^k."""
    pn1 = p ** (n + 1)
    M = fprime * pn1
    M2 = 2 * M
    units = _table_units(fprime, p)
    words = _slot_words(len(units), M, p, n)
    k, m, top = _barrett(M, p, n)
    if top >> WORD_BITS * words:
        raise InvariantViolationError(f"({fprime}, {p}, {n}) residue table: x_max m overflows a slot")
    e_f = 2 * pn1 * pow(pn1, -1, fprime)  # twice the idempotent: 2 mod f', 0 mod p^{n+1}
    e_p = 2 * fprime * pow(fprime, -1, pn1)  # 0 mod f', 2 mod p^{n+1}
    # T of each r, by r mod p
    teich = [-w * e_p % M2 for w in _teichmuller_column(p, n + 1)]
    steps = [1]  # u_j, j in Z/p^n
    for _ in range(p ** n - 1):
        steps.append(steps[-1] * (1 + p) % pn1)
    S = WORD_BITS * words
    steps, ones = _pack(steps, words), _ones(p ** n, words)
    low = ((1 << S - k) - 1) * ones
    columns = []
    for r in units:
        x = -(r % fprime) * e_f % M2 * ones + teich[r % p] * steps
        columns.append(x - M2 * (x * m >> k & low))
    return ResidueTable(tuple(columns), words, ones, (ones << S) - (ones << S - pn1.bit_length()))


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
        """k -> zeta_order^k / f' mod p^digits as a coordinate vector, filled
        by _character_columns for the k its characters read."""
        return self._entry(p, ("zeta", order, fprime, digits), dict)

    def unit_logs(self, conductor: int, fprime: int, p: int) -> tuple:
        """Tuple i holds log i, in unit_group(conductor), of each table unit."""
        dlog = unit_group(conductor).dlog
        return self._entry(p, ("logs", conductor, fprime),
                           lambda: tuple(zip(*map(dlog, _table_units(fprime, p)))))


_TABLES = _TableCache()


@lru_cache(maxsize=1)
def _character_columns(chi: DirichletCharacter, digits: int) -> tuple:
    """Column c holds coordinate c of chi^{-1}(r) / f' mod p^digits over the
    table units r, read one unit-group generator at a time.  Every level of
    one lambda_minus call shares them, each reduced to its own working
    digits, and characters of one order share their vectors."""
    p, cond, order = chi.p, chi.conductor, chi.order
    fprime = split_prime_part(cond, p)[1]
    ring = local_ring(order, p, digits)
    inv_f = pow(fprime, -1, ring.mod)
    logs = _TABLES.unit_logs(cond, fprime, p)
    exponents = [0] * len(logs[0])
    for weight, column in zip(chi.weights, logs):
        exponents = [(k - weight * x) % order for k, x in zip(exponents, column)]
    vectors = _TABLES.scaled_zeta(order, fprime, p, digits)
    for k in set(exponents).difference(vectors):
        vectors[k] = [c * inv_f % ring.mod for c in ring.zeta_vector(k)]
    return tuple(zip(*(vectors[k] for k in exponents)))


def _projection(chi: DirichletCharacter, n: int) -> tuple:
    """(quotients, table): coordinate i of bucket j, the coefficient of
    (1+T)^j for j in Z/p^n, is slot j of quotients[i], mod p^N."""
    p = chi.p
    fprime = split_prime_part(chi.conductor, p)[1]
    table = _TABLES.get(fprime, p, n)
    pn1 = p ** (n + 1)
    modw = p ** _work_digits(n)

    # Slot j of sum_s c_s columns[s] is sum_r 2(M - a) c_r; less M sum c,
    # shifted in as its residue mod p^w, it is sum_r (M - 2a) c_r, which is
    # sum_a -a chi^{-1}(a) / f' over row j, and it is divided by p^{n+1},
    # exactly at p
    quotients = []
    for column in _character_columns(chi, _work_digits(max(n, MAX_LEVEL))):
        column = [c % modw for c in column]
        shift = -fprime * pn1 * sum(column) % modw
        packed = sum(map(mul, column, table.columns)) + shift * table.ones
        quotients.append(_exact_quotient(packed, pn1, table.mask))
    return tuple(quotients), table


class StickelbergerSeries:
    """Level-n series with coefficients as O_chi coordinate vectors mod p^N,
    held packed: coordinate i of bucket j is slot j of quotients[i], reduced
    mod p^N, in the slots of its residue table."""

    precision = DEFAULT_PRECISION

    def __init__(self, chi: DirichletCharacter, level: int, quotients: tuple, table: ResidueTable):
        self.chi = chi
        self.level = level
        self.quotients = quotients  # one packed int per coordinate
        self.table = table

    @property
    def length(self) -> int:
        return self.chi.p ** self.level

    @cached_property
    def bucket_columns(self) -> list:
        """Coordinate i of every bucket, unpacked on first read."""
        modN = self.chi.p ** self.precision
        return [[y % modN for y in _unpack(q, self.length, self.table.words)] for q in self.quotients]

    def t_coefficient(self, i: int) -> list:
        """Coefficient of T^i: sum_j binom(j, i) * bucket_j, column by column
        (binom(j, i) = 0 for j < i, so i >= length gives the zero vector).
        T^0, the sum of the buckets, is each quotient folded to one slot."""
        modN = self.chi.p ** self.precision
        if i == 0:
            return [_fold(q, self.length, self.table.words, 1) % modN for q in self.quotients]
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
    fold(high) + z ONES - low, z the least multiple of p^N at or above
    2^{S-b}, b = bit_length(p^{n+1}), lies in [0, 2^{S-1}) (see the module
    docstring), so _exact_quotient's test by p^N reads them all at once."""
    p, n, words = low.chi.p, low.level, high.table.words
    S, count, modN = WORD_BITS * words, p ** n, p ** low.precision
    ones = high.table.ones & (1 << S * count) - 1
    bias = -(-(1 << S - (p ** (n + 1)).bit_length()) // modN) * modN * ones  # z ONES
    mask = (ones << S) - (ones << S - modN.bit_length())
    error = f"the level {n + 1} series of {low.chi.label()} does not fold onto level {n}"
    for upper, lower in zip(high.quotients, low.quotients):
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
