import json
import math
import random
import sys

import pytest
from array import array
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    bucket_coefficients,
    direct_bucket_vectors,
    fold_by_blocks,
    folded_buckets,
    load_benchmark_module,
    residue_cells,
    residue_table_by_cells,
)
from tamerank import stickelberger
from tamerank.arith import is_prime, smallest_primitive_root, split_prime_part, teichmuller_residue
from tamerank.characters import FieldSpec, enumerate_characters, field_characters, omega
from tamerank.cli import parse_config, run
from tamerank.errors import InvariantViolationError
from tamerank.localring import local_ring
from tamerank.stickelberger import (
    DEFAULT_PRECISION,
    MAX_LEVEL,
    bernoulli_b1,
    lambda_minus,
    stickelberger_series,
)


def odd_characters(p):
    w = omega(p)
    return [w.power(i) for i in range(3, p - 1, 2)]  # odd i != 1


def test_series_rejects_even_and_omega():
    w = omega(5)
    with pytest.raises(ValueError):
        stickelberger_series(w.power(2), 1)
    with pytest.raises(ValueError):
        stickelberger_series(w, 1)
    with pytest.raises(ValueError):
        lambda_minus(w)


def test_series_constant_term_regular_prime():
    # 5 is regular: the constant coefficient is already a unit
    s = stickelberger_series(omega(5).power(3), 2)
    assert s.is_unit_coefficient(0)
    assert s.first_unit_index() == 0
    assert s.length == 25


def test_series_irregular_pair_37():
    # (37, 32) is irregular: B_{1, omega^31} = 0 mod 37, so the constant
    # term dies and the linear coefficient carries the unit
    s = stickelberger_series(omega(37).power(5), 2)
    assert not s.is_unit_coefficient(0)
    assert s.is_unit_coefficient(1)


def test_series_level_stability():
    chi = omega(5).power(3)
    lo = stickelberger_series(chi, 1)
    hi = stickelberger_series(chi, 2)
    assert folded_buckets(hi, 1) == bucket_coefficients(lo)


# (order, p) of coefficient rings: unramified of degree 1 and 2, and
# ramified (p | order)
UNIT_RINGS = [(2, 5), (4, 5), (12, 5), (4, 7), (6, 7), (21, 7), (6, 3), (18, 3), (22, 23), (4, 23)]


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from(UNIT_RINGS), st.data())
def test_unit_test_does_not_depend_on_precision(ring_key, data):
    # is_unit_coefficient reads its unit test in the ring of the character
    # columns, mod p^15, for coefficients mod p^N: a unit mod p is a unit at
    # either precision
    m, p = ring_key
    low = local_ring(m, p, DEFAULT_PRECISION)
    high = local_ring(m, p, stickelberger._work_digits(MAX_LEVEL))
    assert high.K == 15
    entry = st.one_of(st.integers(0, p ** DEFAULT_PRECISION - 1),
                      st.integers(0, p ** (DEFAULT_PRECISION - 1) - 1).map(p.__mul__))
    vec = data.draw(st.lists(entry, min_size=low.dim, max_size=low.dim))
    assert low.is_unit(vec) == high.is_unit(vec)


def test_lambda_regular_primes():
    for p in (5, 7):
        for chi in odd_characters(p):
            res = lambda_minus(chi)
            assert res.lambda_ == 0


def test_lambda_irregular_37():
    res = lambda_minus(omega(37).power(5))
    assert res.lambda_ == 1
    assert res.levels_used == (1, 2)


def test_lambda_level_insensitive():
    chi = omega(7).power(5)
    lam = lambda_minus(chi).lambda_
    assert [stickelberger_series(chi, n).first_unit_index() for n in (2, 3)] == [lam, lam]


def test_bernoulli_quadratic_conductor_3():
    chi = omega(3)  # the odd quadratic character mod 3
    b = bernoulli_b1(chi)
    assert b.coordinates == (-1,) and b.chi.conductor == 3  # B_{1,chi} = -1/3
    assert b.p_valuation() == -1


def test_bernoulli_rejects_even():
    with pytest.raises(ValueError):
        bernoulli_b1(omega(5).power(2))


def test_bernoulli_examples():
    assert bernoulli_b1(omega(5)).p_valuation() == 0
    assert bernoulli_b1(omega(37).power(31)).p_valuation() >= 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_bernoulli_threshold_matches_lambda(p):
    # lambda >= 1 iff p divides B_{1, chi^{-1}}
    w = omega(p)
    for i in range(3, p - 1, 2):
        chi = w.power(i)
        lam = lambda_minus(chi).lambda_
        divisible = bernoulli_b1(chi.inverse()).p_valuation() >= 1
        assert (lam >= 1) == divisible


def test_bernoulli_threshold_37():
    w = omega(37)
    for i in range(3, 36, 2):
        chi = w.power(i)
        lam = lambda_minus(chi).lambda_
        divisible = bernoulli_b1(chi.inverse()).p_valuation() >= 1
        assert (lam >= 1) == divisible
        assert lam == (1 if i == 5 else 0)


def test_aggregate_lambda_minus_37():
    # the irregularity index of 37 is 1, concentrated at omega^5
    total = sum(lambda_minus(omega(37).power(i)).lambda_ for i in range(3, 36, 2))
    assert total == 1


def test_lambda_known_irregular_primes():
    # classical tables: the irregular pair (p, k) puts lambda = 1 on the
    # omega^{p-k} component and nothing else
    w59 = omega(59)
    profile = {i: lambda_minus(w59.power(i)).lambda_ for i in range(3, 58, 2)}
    assert profile[15] == 1
    assert sum(profile.values()) == 1
    assert lambda_minus(omega(67).power(9)).lambda_ == 1
    assert lambda_minus(omega(67).power(11)).lambda_ == 0


def quad_char(p, f):
    chars = enumerate_characters(FieldSpec(p, f))
    return [c for c in chars if c.conductor == f and c.order == 2][0]


def test_lambda_split_prime_euler_factor():
    # imaginary quadratic characters: a split p kills the Euler factor
    # (1 - chi(p)) at the constant term, forcing lambda >= 1; inert p keeps
    # lambda = 0 for these small regular primes.  Classical table values.
    assert lambda_minus(quad_char(5, 4)).lambda_ == 1   # 5 splits in Q(i)
    assert lambda_minus(quad_char(13, 4)).lambda_ == 1  # 13 splits in Q(i)
    assert lambda_minus(quad_char(7, 4)).lambda_ == 0   # 7 inert in Q(i)
    assert lambda_minus(quad_char(7, 3)).lambda_ == 1   # 7 splits in Q(sqrt-3)
    assert lambda_minus(quad_char(5, 3)).lambda_ == 0   # 5 inert in Q(sqrt-3)


def test_lambda_with_nontrivial_tame_part():
    # odd sextic character over p = 3 with conductor 7: the coefficient ring
    # is ramified of degree 2; lambda must still be well defined and stable
    field = FieldSpec(3, 7)
    odd_sextics = [
        c for c in enumerate_characters(field) if c.order == 6 and c.is_odd
    ]
    assert odd_sextics
    res = lambda_minus(odd_sextics[0])
    assert res.lambda_ >= 0


def direct_lambda(chi):
    """(lambda, n): the first unit T-coefficient of direct_bucket_vectors at
    the least level n whose series has one."""
    modN = chi.p ** DEFAULT_PRECISION
    for n in range(1, MAX_LEVEL):
        buckets, ring = direct_bucket_vectors(chi, n, DEFAULT_PRECISION)
        for i in range(len(buckets)):
            coefficient = [sum(math.comb(j, i) * b[t] for j, b in enumerate(buckets)) % modN
                           for t in range(ring.dim)]
            if ring.is_unit(coefficient):
                return i, n
    return None


# primes l = 3 mod 4 below 400: chi_l, of conductor l, is the one odd
# character != omega of (3, l, H = <g^2>), g a primitive root mod l
CENSUS_CONDUCTORS = [ell for ell in range(7, 400, 4) if is_prime(ell)]


def test_lambda_census_quadratic_at_3():
    # lambda and the level it is read at match the direct build, and lambda
    # >= 1 exactly when 3 | B_{1, chi^{-1}} or the Euler factor 1 - chi(3)
    # vanishes; lambda >= 3 is read at level 2
    lambdas = {}
    for ell in CENSUS_CONDUCTORS:
        g = smallest_primitive_root(ell)
        field = FieldSpec(3, ell, (g * g % ell,))
        [chi] = [c for c in enumerate_characters(field) if c.is_odd and c.conductor == ell]
        res = lambda_minus(chi)
        n = res.levels_used[0]
        assert (res.lambda_, n) == direct_lambda(chi), ell
        assert res.levels_used == (n, n + 1)
        euler_vanishes = chi.value_exponents()[3 % ell] == 0
        divisible = bernoulli_b1(chi.inverse()).p_valuation() >= 1
        assert (res.lambda_ >= 1) == (divisible or euler_vanishes), ell
        lambdas[ell] = res.lambda_
    assert len(lambdas) == 39
    assert (lambdas[239], lambdas[311]) == (6, 4)
    assert {ell for ell, lam in lambdas.items() if lam >= 3} == {239, 311}


# fields whose odd characters have composite prime-to-p conductors f' in
# {3, 4, 5, 7, 12, 13, 20, 21}, rings of dimension 1 and 2, and lambda up to 2
COMPOSITE_FIELDS = [(3, 20), (5, 21), (7, 20), (11, 12), (13, 14), (5, 26)]


def test_lambda_on_composite_conductors_matches_the_direct_build(monkeypatch):
    # every odd class representative != omega: lambda and the level it is
    # read at match the dense direct build, and the lambda report passes the
    # benchmark's own B_1 and Euler-factor check
    checks = load_benchmark_module("checks", monkeypatch)
    fprimes, dims, lambdas = set(), set(), set()
    for p, f in COMPOSITE_FIELDS:
        doc = json.dumps({"p": p, "f": f})
        report = run(parse_config(doc), "lambda")
        assert checks.check_report("lambda", doc, json.dumps(report)) == [], doc
        rows = {row["character"]: row for row in report["rows"]}
        for chi in (cl[0] for cl in field_characters(FieldSpec(p, f))[1]):
            if not chi.is_odd or chi == omega(p):
                continue
            res = lambda_minus(chi)
            assert (res.lambda_, res.levels_used[0]) == direct_lambda(chi), chi.label()
            assert rows[chi.label()]["lambda"] == res.lambda_
            fprimes.add(split_prime_part(chi.conductor, p)[1])
            dims.add(local_ring(chi.order, p, DEFAULT_PRECISION).dim)
            lambdas.add(res.lambda_)
        assert len(rows) == sum(1 for cl in field_characters(FieldSpec(p, f))[1]
                                if cl[0].is_odd and cl[0] != omega(p))
    assert {3, 4, 5, 7, 12, 13, 20, 21} <= fprimes and dims == {1, 2} and lambdas == {0, 1, 2}


# every irregular pair (p, k) with 100 < p < 160 (Buhler-Harvey, "Irregular
# primes to 163 million", Math. Comp. 80 (2011)); 157 has two
IRREGULAR_PAIRS = {101: {68}, 103: {24}, 131: {22}, 149: {130}, 157: {62, 110}}


def test_lambda_wider_irregular_pairs():
    # lambda = 1 on omega^{p-k} for each irregular pair, and p | B_{1, omega^{-i}}
    # for exactly the odd i = p - k, cross-checked by the exact B_1.  The B_1
    # set already says "0 elsewhere", so the lambda of the next odd power is
    # checked only on the two smallest primes.
    for p, ks in IRREGULAR_PAIRS.items():
        w = omega(p)
        for k in ks:
            assert lambda_minus(w.power(p - k)).lambda_ == 1, (p, k)
            if p < 131:
                assert lambda_minus(w.power(p - k + 2)).lambda_ == 0, (p, k)
        divisible = {
            i for i in range(3, p - 1, 2)
            if bernoulli_b1(w.power(i).inverse()).p_valuation() >= 1
        }
        assert divisible == {p - k for k in ks}, p


def test_t_coefficient_matches_pascal_expansion():
    # sum_j b_j (1+T)^j expanded with (1+T)^j built row by row by Pascal's
    # rule; the second series has a coefficient ring of dimension 2
    chi12 = next(
        c for c in enumerate_characters(FieldSpec(5, 7)) if c.is_odd and c.order == 12
    )
    for s in (stickelberger_series(omega(5).power(3), 1), stickelberger_series(chi12, 2)):
        modN = s.chi.p ** s.precision
        dim = len(bucket_coefficients(s)[0])
        poly = [[0] * dim for _ in range(s.length)]
        binomials = [1]
        for b in bucket_coefficients(s):
            for i, c in enumerate(binomials):
                poly[i] = [(x + c * y) % modN for x, y in zip(poly[i], b)]
            binomials = [1] + [x + y for x, y in zip(binomials, binomials[1:])] + [1]
        assert [s.t_coefficient(i) for i in range(s.length + 1)] == poly + [[0] * dim]
    assert dim == 2


SHARED_TABLE_FIELDS = [(5, 1), (7, 13), (11, 7), (13, 5), (3, 8), (5, 21)]
# f' = 1 fields of the size the lambda-minus workload runs: two-word slots
WIDE_SLOT_FIELDS = [(23, 1), (29, 1)]
# the level-1 table of f' = 5 over 37 takes the three-word slots of its level 2
THREE_WORD_FIELD = (37, 5)
W = stickelberger.WORD_BITS


def test_t0_above_level_1_is_read_from_the_buckets():
    # a slot holds the sum of p slots, not of p^n: at (1, 37, 2), 37^2 slots
    # at the bound sum past 2^S, and T^0 is still their sum mod p^N
    table = stickelberger._TABLES.get(1, 37, 2)
    count, top = 37 ** 2, table.bound - 1
    assert count * top >= 2 ** (W * table.words) > 37 * top
    packed = stickelberger._pack([top] * count, table.words)
    series = stickelberger.StickelbergerSeries(omega(37).power(3), 2, (packed,), table)
    assert series.t_coefficient(0) == [count * top % 37 ** DEFAULT_PRECISION]


def test_shared_table_matches_direct_build():
    # every odd chi != omega, at levels 0, 1 and 2 on the shared-table fields
    # and 1 and 2 on the wide-slot ones, and three characters of f' = 5 at
    # level 1 on THREE_WORD_FIELD: the projection of the shared residue table
    # equals the direct per-character build
    levels = {field: (0, 1, 2) for field in SHARED_TABLE_FIELDS}
    levels.update({field: (1, 2) for field in WIDE_SLOT_FIELDS})
    levels[THREE_WORD_FIELD] = (1,)
    seen = set()
    for (p, f), ns in levels.items():
        w = omega(p)
        chars = [chi for chi in enumerate_characters(FieldSpec(p, f)) if chi.is_odd and chi != w]
        if (p, f) == THREE_WORD_FIELD:
            chars = [chi for chi in chars if chi.conductor % f == 0][:3]
        for chi in chars:
            fprime = split_prime_part(chi.conductor, p)[1]
            for n in ns:
                direct, ring = direct_bucket_vectors(chi, n, DEFAULT_PRECISION)
                assert bucket_coefficients(stickelberger_series(chi, n)) == direct, (chi.label(), n)
                seen.add(("words", stickelberger._TABLES.get(fprime, p, n).words))
            seen.add(("f' > 1", fprime > 1))
            seen.add(("p | conductor", chi.conductor % p == 0))
            seen.add(("dim", ring.dim))
    assert {("f' > 1", True), ("p | conductor", True), ("p | conductor", False), ("dim", 2),
            ("words", 1), ("words", 2), ("words", 3)} <= seen


# (f', p, n) tables whose Barrett product x_max m, of their build, needs more
# bits than their fold bound; for the first four it sets the slot's words
BARRETT_WORD_TABLES = [(1, 5, 3), (4, 3, 4), (17, 5, 2), (26, 3, 3)]
BARRETT_WIDTH_TABLES = BARRETT_WORD_TABLES + [(4, 7, 4), (6, 7, 4), (168, 5, 4), (34580, 3, 4)]


def slot_tables(monkeypatch):
    """(f', p, n, words, bound) for every table, up to MAX_LEVEL, of the
    lambda-minus fields, the fields above and the f = 1 census p < 400, and
    for BARRETT_WIDTH_TABLES; bound = (p^N - 1)(1 + (U + 1)(p^n - 1)) + 1 is
    above every slot of a projection s0 + s1 v_j + sum_r m_r F_{r,j}."""
    workloads = load_benchmark_module("workloads", monkeypatch)
    fields = [field[:2] for field in workloads.LAMBDA_FIELDS + workloads.LAMBDA_RANK_FIELDS]
    fields += SHARED_TABLE_FIELDS + WIDE_SLOT_FIELDS + [THREE_WORD_FIELD]
    fields += [(p, 1) for p in range(3, 400) if is_prime(p)]
    tables = [(fprime, p, n) for p, f in fields
              for fprime in range(1, f + 1) if f % fprime == 0 and fprime % p
              for n in range(MAX_LEVEL + 1)]
    for fprime, p, n in tables + BARRETT_WIDTH_TABLES:
        units = sum(1 for r in range(1, (fprime * p + 1) // 2) if math.gcd(r, fprime * p) == 1)
        bound = (p ** DEFAULT_PRECISION - 1) * (1 + (units + 1) * (p ** n - 1)) + 1
        yield fprime, p, n, stickelberger._slot_words(units, fprime, p, n), bound


def fold_bits(p, bound):
    """Bits, with the top one spare, of (p + 1) bound + p^N, above every slot
    of the fold check's difference."""
    return ((p + 1) * bound + p ** DEFAULT_PRECISION).bit_length() + 1


def test_slot_width_bound(monkeypatch):
    # a slot keeps (p + 1) bound + p^N below its top bit, holds the Barrett
    # product x_max m of the table's build, and is the fewest W-bit words
    # that do at its level, or at level 2 for level 1, whose width it takes
    widths = {}
    for fprime, p, n, words, bound in slot_tables(monkeypatch):
        top = stickelberger._barrett(fprime * p ** (n + 1), p, n)[2]
        assert fold_bits(p, bound) <= W * words, (fprime, p, n)
        assert top < 2 ** (W * words), (fprime, p, n)
        if n != 1:
            assert max(fold_bits(p, bound), top.bit_length()) > W * (words - 1), (fprime, p, n)
        widths[fprime, p, n] = words
    assert all(widths[f, p, 1] == words for (f, p, n), words in widths.items() if n == 2 and (f, p, 1) in widths)
    assert max(widths.values()) == 5 and widths[1, 29, 2] == widths[1, 37, 2] == 2


def test_barrett_quotient_is_exact(monkeypatch):
    # every slot x of rho ONES + sigma V is at most x_max = (M - 1) p^n; the
    # quotient floor(x m / 2^k) is floor(x / M) at x_max and just below its
    # multiple of M, where it errs first
    tables = set()
    for fprime, p, n, _, _ in slot_tables(monkeypatch):
        M = fprime * p ** (n + 1)
        k, m, top = stickelberger._barrett(M, p, n)
        x_max = (M - 1) * p ** n
        assert top == x_max * m
        for x in (x_max, x_max - x_max % M - 1):
            assert x * m >> k == x // M, (fprime, p, n, x)
        tables.add((fprime, p, n))
    assert len(tables) == 461


@pytest.mark.parametrize("fprime, p, n", BARRETT_WIDTH_TABLES)
def test_table_widens_its_slot_for_the_barrett_product(fprime, p, n):
    # x_max m needs more bits than the fold bound, and on BARRETT_WORD_TABLES
    # the fold bound alone fits one word fewer; the table builds, as wide
    # as x_max m needs, and equals the cell-by-cell build
    table = stickelberger._residue_table(fprime, p, n)
    top = stickelberger._barrett(fprime * p ** (n + 1), p, n)[2]
    assert fold_bits(p, table.bound) < top.bit_length() <= W * table.words
    assert (fold_bits(p, table.bound) <= W * (table.words - 1)) == ((fprime, p, n) in BARRETT_WORD_TABLES)
    assert table == residue_table_by_cells(fprime, p, n)


def test_table_refuses_a_slot_too_narrow_for_its_reduction(monkeypatch):
    # with one-word slots the (1, 23, 2) table's x_max m needs 47 bits: the
    # build raises rather than take a wrong floor
    monkeypatch.setattr(stickelberger, "_slot_words", lambda count, fprime, p, n: 1)
    with pytest.raises(InvariantViolationError, match=r"\(1, 23, 2\) residue table"):
        stickelberger._residue_table(1, 23, 2)


@pytest.mark.parametrize("p, N", [(3, 1), (3, 6), (5, 3), (7, 4), (13, 2), (23, 3), (101, 2)])
def test_teichmuller_column_matches_the_lift_of_each_unit(p, N):
    # the table's column, from powers of one lift, against a lift per t
    column = stickelberger._teichmuller_column(p, N)
    assert column == [0] + [teichmuller_residue(t, p, N) for t in range(1, p)]


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 23]), st.integers(1, 40), st.integers(0, 2))
def test_residue_table_matches_cell_by_cell_build(p, fprime, n):
    # the whole-column build equals the cell-by-cell one: floors, scalars,
    # steps, ones, bound and width
    assume(math.gcd(fprime, p) == 1 and fprime * p ** (n + 1) <= 30000)
    assert stickelberger._residue_table(fprime, p, n) == residue_table_by_cells(fprime, p, n)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 23]), st.integers(1, 40), st.integers(0, 2))
@example(7, 13, 2)  # two-word slots
@example(5, 1, 3)
@example(3, 4, 4)
@example(5, 17, 2)
@example(3, 26, 3)
@example(7, 4, 4)
@example(7, 6, 4)
@example(5, 168, 4)
@example(3, 34580, 4)
def test_table_carries_its_ones_and_mask(p, fprime, n):
    # ones has a 1 in each of the p^n slots, mask the top bit_length(p^N)
    # bits of each and steps v_j in slot j; every floor is below p^n, so
    # bound is above every slot of a projection, on the hypothesis tables and
    # every BARRETT_WIDTH_TABLES one
    assume(math.gcd(fprime, p) == 1)
    assume(fprime * p ** (n + 1) <= 30000 or (fprime, p, n) in BARRETT_WIDTH_TABLES)
    table = stickelberger._residue_table(fprime, p, n)
    S = W * table.words
    unpack = lambda x: stickelberger._unpack(x, p ** n, table.words)  # noqa: E731
    assert table.ones == stickelberger._ones(p ** n, table.words)
    assert table.mask == ((1 << S) - (1 << S - (p ** DEFAULT_PRECISION).bit_length())) * table.ones
    assert unpack(table.steps) == [(pow(1 + p, j, p ** (n + 1)) - 1) // p for j in range(p ** n)]
    assert max(max(unpack(column)) for column in table.columns) < p ** n
    top = p ** DEFAULT_PRECISION - 1
    assert top * (1 + (len(table.columns) + 1) * (p ** n - 1)) == table.bound - 1


@pytest.mark.parametrize("scale", [-1, 1])
def test_table_refuses_a_wrong_floor(monkeypatch, scale):
    # a Barrett multiplier off by m/1024 takes floors too small or too large
    # in some slot; the range test finds a remainder outside [0, M)
    barrett = stickelberger._barrett

    def skewed(M, p, n):
        k, m, top = barrett(M, p, n)
        m += scale * (m >> 10)
        return k, m, (M - 1) * p ** n * m

    monkeypatch.setattr(stickelberger, "_barrett", skewed)
    with pytest.raises(InvariantViolationError, match=r"\(1, 23, 2\) residue table: a floor is not"):
        stickelberger._residue_table(1, 23, 2)


def test_fold_never_carries(monkeypatch):
    # every slot of a projection is below bound, and p of them, a fold of
    # level n onto n - 1 or level 1 onto its T^0, sum below 2^{S-1}
    for _, p, n, words, bound in slot_tables(monkeypatch):
        assert p * bound < 2 ** (W * words - 1), (p, n)
    # and the fold adds full slots block by block, with no carry between them
    for fprime, p, n in [(1, 3, 2), (1, 5, 2), (13, 7, 2), (1, 23, 2), (5, 37, 1)]:
        table = stickelberger._TABLES.get(fprime, p, n)
        full = table.ones * (table.bound - 1)
        folded = stickelberger._fold(full, p ** n, table.words, p ** (n - 1))
        sums = stickelberger._unpack(folded, p ** (n - 1), table.words)
        assert sums == [p * (table.bound - 1)] * p ** (n - 1), (p, n)


def test_fold_check_differences_lie_below_the_top_bit(monkeypatch):
    # the packed fold check of level n+1 onto n >= 1 adds z ONES, z the least
    # multiple of p^N at or above the lower bound: with a folded slot a below
    # p bound_{n+1} and a lower slot b_j below bound_n, every slot a + z - b_j
    # lies in (0, 2^{S-1}), S the upper slot width, so _exact_quotient's test
    # reads it
    tables = {(fprime, p, n): (w, bound) for fprime, p, n, w, bound in slot_tables(monkeypatch)}
    pairs = [(fprime, p, n) for fprime, p, n in tables if n >= 1 and (fprime, p, n + 1) in tables]
    for fprime, p, n in pairs:
        (low, lower_bound), (high, upper_bound) = tables[fprime, p, n], tables[fprime, p, n + 1]
        N = p ** DEFAULT_PRECISION
        z = -(-lower_bound // N) * N
        assert low <= high and lower_bound <= upper_bound and z % N == 0
        assert 0 < z - (lower_bound - 1), (fprime, p, n)
        assert p * (upper_bound - 1) + z < 2 ** (W * high - 1), (fprime, p, n)
    assert {(1, p, n) for p in range(3, 158) if is_prime(p) for n in (1, 2, 3)} <= set(pairs)
    assert len(pairs) == 273


def _slots(seed: int, fill: str, count: int, k: int) -> list:
    """count slot values below 2^k: random, all 2^k - 1, or all 0."""
    if fill == "random":
        rng = random.Random(seed)
        return [rng.getrandbits(k) for _ in range(count)]
    return [2 ** k - 1 if fill == "max" else 0] * count


FILLS = st.sampled_from(["random", "max", "zero"])


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 3), st.integers(0, 2),
       st.integers(1, 5), st.integers(0, 2 ** 32), FILLS)
@example(3, 1, 0, 1, 0, "max")  # three blocks of one slot
@example(13, 3, 0, 5, 1, "max")  # 2197 blocks of one slot
@example(13, 3, 2, 2, 2, "random")  # 13 blocks of 169 slots
def test_fold_by_halving_matches_the_block_sum(p, n, lower, words, seed, fill):
    # slots below 2^k, k = W words - bit_length(p^{n+1}), so p^{n-l} of them
    # sum below 2^{W words}, folded from level n onto a level l < n
    assume(lower < n)
    k = W * words - (p ** (n + 1)).bit_length()
    x = stickelberger._pack(_slots(seed, fill, p ** n, k), words)
    args = (x, p ** n, words, p ** lower)
    assert stickelberger._fold(*args) == fold_by_blocks(*args)


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 5), st.integers(0, 2 ** 32), FILLS)
@example(1, 4, 2, 0, "max")  # one block: x itself
@example(2, 3, 1, 0, "max")
@example(7, 1, 3, 0, "random")
def test_fold_by_halving_adds_any_number_of_blocks(blocks, size, words, seed, fill):
    # one block, two, and every other count, with slots low enough that the
    # blocks sum below 2^{W words}
    k = W * words - blocks.bit_length()
    x = stickelberger._pack(_slots(seed, fill, blocks * size, k), words)
    args = (x, blocks * size, words, size)
    assert stickelberger._fold(*args) == fold_by_blocks(*args)
    if blocks == 1:
        assert stickelberger._fold(*args) == x


# (f', p, n) of the levels n < n+1 the packed fold check compares: one-,
# two- and three-word slots at equal widths, as level 1 takes the width of
# level 2; and one- to two-word pairs above level 1
EQUAL_WIDTH_PAIRS = [(4, 3, 1), (1, 5, 1), (13, 7, 1), (1, 23, 1), (1, 29, 1), (5, 37, 1)]
MIXED_WIDTH_PAIRS = [(1, 5, 2), (4, 3, 3), (7, 3, 3)]
_PAIR_CHARACTERS = {}


def _pair_character(fprime, p):
    """An odd character != omega whose conductor has prime-to-p part f'."""
    if (fprime, p) not in _PAIR_CHARACTERS:
        _PAIR_CHARACTERS[fprime, p] = next(
            c for c in enumerate_characters(FieldSpec(p, fprime))
            if c.is_odd and c != omega(p) and split_prime_part(c.conductor, p)[1] == fprime)
    return _PAIR_CHARACTERS[fprime, p]


@settings(max_examples=120, deadline=None, database=None)
@given(st.sampled_from(EQUAL_WIDTH_PAIRS + MIXED_WIDTH_PAIRS), st.integers(0, 2 ** 32),
       st.sampled_from(["random", "max", "zero"]),
       st.sampled_from(["none", "one", "p^(N-1)", "p^N", "carry", "upper", "independent"]),
       st.integers(1, 5))
@example((1, 23, 1), 0, "max", "carry", 1)
@example((5, 37, 1), 0, "max", "p^(N-1)", 1)
@example((1, 5, 2), 1, "random", "p^N", 3)
@example((1, 23, 1), 2, "zero", "none", 1)
@example((4, 3, 1), 0, "random", "p^N", 5)  # 5 p^N fits below the bound in neither direction
def test_packed_fold_check_matches_the_unpacked_comparison(pair, seed, fill, move, multiple):
    # sums within their tables' bounds: the upper level random (or every
    # slot at its bound, or 0, which folds below every lower slot) and the
    # lower level its fold mod p^N plus random multiples of p^N.  Moving a lower slot by a multiple of p^N passes the
    # check; by 1 or by p^{N-1}, or an upper slot by 1, fails it; and so does
    # moving slot 0 by 2^S mod p^N and slot 1 by -1 at once, which leaves
    # the whole int the same mod p^N.  The check agrees with the unpacked
    # comparison every time
    fprime, p, n = pair
    chi, rng = _pair_character(fprime, p), random.Random(seed)
    lo_table = stickelberger._TABLES.get(fprime, p, n)
    hi_table = stickelberger._TABLES.get(fprime, p, n + 1)
    lo_bound, hi_bound = lo_table.bound, hi_table.bound
    N, count = p ** DEFAULT_PRECISION, p ** n
    top = {"max": hi_bound - 1, "zero": 0}
    upper = [[top[fill] if fill in top else rng.randrange(hi_bound) for _ in range(p * count)]
             for _ in range(2)]
    lower = []
    for column in upper:
        folded = [sum(column[j::count]) % N for j in range(count)]
        lower.append([a + N * (((lo_bound - 1 - a) // N) if fill == "max" else
                               rng.randrange((lo_bound - a) // N)) for a in folded])
    if move == "independent":
        lower = [[rng.randrange(lo_bound) for _ in range(count)] for _ in lower]
    elif move == "upper":
        j = rng.randrange(p * count)
        upper[0][j] += 1 if upper[0][j] < hi_bound - 1 else -1
    elif move == "carry":
        c = 2 ** (W * hi_table.words) % N
        sign = 1 if lower[0][0] + c < lo_bound and lower[0][1] >= 1 else -1
        assume(lower[0][0] + sign * c >= 0 and lower[0][1] - sign < lo_bound)
        lower[0][0] += sign * c
        lower[0][1] -= sign
    elif move != "none":
        delta = {"one": 1, "p^(N-1)": N // p, "p^N": N * multiple}[move]
        j = rng.randrange(count)
        assume(lower[1][j] + delta < lo_bound or lower[1][j] >= delta)
        lower[1][j] += delta if lower[1][j] + delta < lo_bound else -delta
    assert all(0 <= y < lo_bound for column in lower for y in column)
    assert all(0 <= y < hi_bound for column in upper for y in column)
    hi = stickelberger.StickelbergerSeries(
        chi, n + 1, tuple(stickelberger._pack(c, hi_table.words) for c in upper), hi_table)
    lo = stickelberger.StickelbergerSeries(
        chi, n, tuple(stickelberger._pack(c, lo_table.words) for c in lower), lo_table)
    try:
        stickelberger._check_fold(hi, lo)
        passed = True
    except InvariantViolationError as exc:
        assert f"does not fold onto level {n}" in str(exc)
        passed = False
    assert passed == (folded_buckets(hi, n) == bucket_coefficients(lo))
    if move in ("none", "p^N"):
        assert passed
    elif move != "independent":
        assert not passed
    assert (lo_table.words < hi_table.words) == (pair in MIXED_WIDTH_PAIRS)


# (f', p, n) of the integrality test: f' = 1 and f' > 1, levels 0 to 2
INTEGRALITY_TABLES = [(1, 5, 0), (1, 5, 1), (1, 7, 2), (4, 3, 1), (5, 3, 2), (13, 7, 1), (7, 5, 2)]


@settings(max_examples=120, deadline=None, database=None)
@given(st.sampled_from(INTEGRALITY_TABLES),
       st.sampled_from(["random", "character", "multiple", "perturbed", "slot 0"]), st.integers(0, 2 ** 32))
@example((1, 7, 2), "character", 0)
@example((13, 7, 1), "perturbed", 0)
@example((1, 5, 1), "slot 0", 0)
def test_integrality_is_checked_slot_by_slot(key, kind, seed):
    # any coefficient vector c over the table units, not only a character's:
    # the two scalar tests of _projection pass exactly when p^{n+1} divides
    # every slot sum_r c_r (M - 2a) of the cells, and the buckets are then
    # those slots / p^{n+1}, mod p^N.  A character's column times a unit plus
    # multiples of p^{n+1} or a vector of such multiples is integral; a
    # random one, a character's with one entry moved by 1, or moved so that
    # slot 0 stays integral, almost never
    fprime, p, n = key
    chi, rng = _pair_character(fprime, p), random.Random(seed)
    P, M, digits = p ** (n + 1), fprime * p ** (n + 1), stickelberger._work_digits(MAX_LEVEL)
    D, modN = p ** digits, p ** DEFAULT_PRECISION
    rows = residue_cells(fprime, p, n)
    if kind == "random":
        c = [rng.randrange(D) for _ in rows]
    elif kind == "multiple":
        c = [P * rng.randrange(D // P) for _ in rows]
    else:
        column = stickelberger._character_columns(chi, digits)[0][0]
        unit = rng.randrange(1, D)
        unit += unit % p == 0
        c = [(unit * x + P * rng.randrange(p ** 3)) % D for x in column]
        if kind == "perturbed":
            j = rng.randrange(len(c))
            c[j] = (c[j] + 1) % D
        elif kind == "slot 0":
            # alpha_s e_r - alpha_r e_s, alpha = M - 2a at j = 0, adds 0 to slot 0
            r, s = rng.sample(range(len(c)), 2)
            c[r] = (c[r] + M - 2 * rows[s][0]) % D
            c[s] = (c[s] - M + 2 * rows[r][0]) % D
    slots = [sum(x * (M - 2 * cells[j]) for x, cells in zip(c, rows)) for j in range(p ** n)]
    integral = all(s % P == 0 for s in slots)
    assert integral or kind in ("random", "perturbed", "slot 0")
    assert slots[0] % P == 0 or kind != "slot 0"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stickelberger, "_character_columns",
                      lambda chi, digits: ((tuple(c), tuple(2 * fprime * x % modN for x in c)),))
        try:
            [sums], table = stickelberger._projection(chi, n)
        except InvariantViolationError as exc:
            assert "not p-integral" in str(exc)
            assert not integral, (key, kind)
            return
    assert integral, (key, kind)
    assert [y % modN for y in stickelberger._unpack(sums, p ** n, table.words)] == [s // P % modN for s in slots]


@pytest.mark.parametrize("scalar", ["alpha", "beta"])
def test_projection_refuses_a_table_whose_scalar_is_off(monkeypatch, scalar):
    # mod p^{n+1}, beta_r = p alpha_r, so B = pA and a character's A and B
    # are both divisible; with alpha_r or beta_r of one unit moved by 1, the
    # first or the second scalar test refuses the projection
    chi = omega(7).power(3)
    table = stickelberger._TABLES.get(1, 7, 2)
    P = 7 ** 3
    alpha, beta = table.scalars[0] & (1 << table.split) - 1, table.scalars[0] >> table.split
    assert (beta - 7 * alpha) % P == 0
    moved = table.scalars[0] + (1 if scalar == "alpha" else 1 << table.split)
    cache = stickelberger._TableCache()
    cache.p, cache.entries[("table", 1, 2)] = 7, table._replace(scalars=(moved,) + table.scalars[1:])
    monkeypatch.setattr(stickelberger, "_TABLES", cache)
    with pytest.raises(InvariantViolationError, match="not p-integral"):
        stickelberger._projection(chi, 2)


def test_exact_quotient_reads_every_slot():
    # slot 0 = D - (2^S mod D) and slot 1 = 1: the whole int is D + 2^S - (2^S
    # mod D), a multiple of D, but slot 0 is not; the quotient is 1 + floor(2^S
    # / D), at least 2^{S-b}, so it sets a high bit of slot 0.  D is the fold
    # check's divisor p^N, at the widths of the tables, in W-bit words
    for p, words in [(5, 1), (13, 2), (23, 2), (37, 3), (157, 3)]:
        D, S = p ** DEFAULT_PRECISION, W * words
        mask = ((1 << S) - (1 << S - D.bit_length())) * stickelberger._ones(2, words)
        crafted = D - 2 ** S % D + (1 << S)
        assert crafted % D == 0
        with pytest.raises(InvariantViolationError, match="^slot 0$"):
            stickelberger._exact_quotient(crafted, D, mask, "slot 0")
        assert stickelberger._exact_quotient(D * 3 + (D * 7 << S), D, mask, "") == 3 + (7 << S)
        with pytest.raises(InvariantViolationError):
            stickelberger._exact_quotient(D * 3 + 1 + (D << S), D, mask, "")


def test_pack_round_trip():
    # slot j of the packed int is values[j] on any host byte order, and the
    # slots read back; (2^W - 1) * sum_k 2^{W k} fills a slot to its top
    assert array("I").itemsize * 8 == W
    pack, unpack = stickelberger._pack, stickelberger._unpack
    values = [0, 1, 2 ** (W - 1), 2 ** W - 1, 12345]
    for words in (1, 2, 3):
        packed = pack(values, words)
        assert packed == sum(v << (W * words * j) for j, v in enumerate(values))
        assert unpack(packed, len(values), words) == values
        top = pack([2 ** W - 1] * 4, words) * sum(1 << (W * k) for k in range(words))
        assert unpack(top, 4, words) == [2 ** (W * words) - 1] * 4
        assert pack([2 ** (W * words) - 1] * 4, words) == top
    with pytest.raises(OverflowError):
        pack([2 ** W], 1)
    with pytest.raises(OverflowError):
        pack([2 ** (W * 3)], 3)
    with pytest.raises(OverflowError):
        unpack(2 ** (W * 2 * 3), 3, 2)


@pytest.mark.parametrize("p", [89, 157])
def test_pack_takes_steps_wider_than_a_word(p):
    # at level 4 the steps (1+p)^j mod p^5 of every p >= 89 pass 2^W; the
    # table's slots hold them whole
    n, pn1 = 4, p ** 5
    words = stickelberger._slot_words(len(stickelberger._table_units(1, p)), pn1, p, n)
    steps = [pow(1 + p, j, pn1) for j in range(0, p ** n, 99991)] + [pn1 - p + 1]
    assert max(steps) >= 2 ** W and words > 1
    packed = stickelberger._pack(steps, words)
    assert packed == sum(u << (W * words * j) for j, u in enumerate(steps))
    assert stickelberger._unpack(packed, len(steps), words) == steps


def test_lambda_job_builds_each_table_once(monkeypatch):
    # and each table's ones once, with the table: no projection builds them
    built, ones_callers = [], []

    def counted(fprime, p, n):
        built.append((fprime, p, n))
        return build(fprime, p, n)

    def counted_ones(count, words):
        ones_callers.append(sys._getframe(1).f_code.co_name)
        return ones(count, words)

    build, ones = stickelberger._residue_table, stickelberger._ones
    monkeypatch.setattr(stickelberger, "_residue_table", counted)
    monkeypatch.setattr(stickelberger, "_ones", counted_ones)
    monkeypatch.setattr(stickelberger, "_TABLES", stickelberger._TableCache())
    job = parse_config('{"p": 7, "f": 13}')
    run(job, "lambda")
    assert sorted(built) == [(1, 7, 1), (1, 7, 2), (13, 7, 1), (13, 7, 2)]
    assert ones_callers == ["_residue_table"] * 4
    # (13, 7, 2) has two-word slots, the others one
    for key in built:
        assert stickelberger._TABLES.get(*key) == residue_table_by_cells(*key)


def test_series_builds_only_its_own_level(monkeypatch):
    # the character side takes its units from _table_units, not from a table
    built = []

    def counted(fprime, p, n):
        built.append((fprime, p, n))
        return build(fprime, p, n)

    build = stickelberger._residue_table
    monkeypatch.setattr(stickelberger, "_residue_table", counted)
    monkeypatch.setattr(stickelberger, "_TABLES", stickelberger._TableCache())
    stickelberger_series(omega(5).power(3), 3)
    assert built == [(1, 5, 3)]


def test_lambda_zero_unpacks_no_slot(monkeypatch):
    # lambda = 0 is read from T^0, each level-1 sum folded to one slot, once
    # level 2 is checked against level 1 on the packed ints, which have one
    # width: no slot is unpacked on (23, 1), (17, 1), (7, 1), whose level 1
    # takes the two-word slots of its level 2, or f' = 13 over 7.  lambda = 6
    # >= 3 on (3, 239, H = [49]) unpacks the 3 level-1 and the 9 level-2
    # slots of each coordinate once, to read their T^i
    unpacked = []

    def counted(x, count, words):
        unpacked.append((count, words))
        return unpack(x, count, words)

    unpack = stickelberger._unpack
    monkeypatch.setattr(stickelberger, "_unpack", counted)
    chars = [omega(p).power(3) for p in (23, 17, 7)]
    chars += [c for c in enumerate_characters(FieldSpec(7, 13)) if c.is_odd and c.conductor % 13 == 0][:3]
    for chi in chars:
        assert lambda_minus(chi).lambda_ == 0
    assert unpacked == []
    [chi] = [c for c in enumerate_characters(FieldSpec(3, 239, (49,))) if c.is_odd and c.conductor == 239]
    assert lambda_minus(chi) == stickelberger.LambdaResult(6, (2, 3))
    assert sorted(unpacked) == [(3, 2), (9, 2)] * local_ring(chi.order, 3, DEFAULT_PRECISION).dim


def test_lambda_evaluates_each_character_once():
    # both levels of a lambda_minus call project the same character columns
    columns = stickelberger._character_columns
    columns.cache_clear()
    rows = run(parse_config('{"p": 7, "f": 13}'), "lambda")["rows"]
    info = columns.cache_info()
    assert info.misses == len(rows) and info.hits == len(rows)
    assert all(row["levels_used"] == [1, 2] for row in rows)
