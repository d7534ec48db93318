import math
import sys

import pytest
from array import array
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    bucket_coefficients,
    direct_bucket_vectors,
    folded_buckets,
    load_benchmark_module,
    residue_table_by_cells,
)
from tamerank import stickelberger
from tamerank.arith import is_prime, smallest_primitive_root, split_prime_part
from tamerank.characters import FieldSpec, enumerate_characters, omega
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
# f' = 1 fields of the size the lambda-minus workload runs: three-word slots
WIDE_SLOT_FIELDS = [(23, 1), (29, 1)]
W = stickelberger.WORD_BITS


def test_shared_table_matches_direct_build():
    # every odd chi != omega, at levels 0, 1 and 2 on the shared-table fields
    # and 1 and 2 on the wide-slot ones: the projection of the shared residue
    # table equals the direct per-character build
    levels = {field: (0, 1, 2) for field in SHARED_TABLE_FIELDS}
    levels.update({field: (1, 2) for field in WIDE_SLOT_FIELDS})
    seen = set()
    for (p, f), ns in levels.items():
        w = omega(p)
        for chi in enumerate_characters(FieldSpec(p, f)):
            if not chi.is_odd or chi == w:
                continue
            fprime = split_prime_part(chi.conductor, p)[1]
            for n in ns:
                direct, ring = direct_bucket_vectors(chi, n, DEFAULT_PRECISION)
                assert bucket_coefficients(stickelberger_series(chi, n)) == direct, (chi.label(), n)
                seen.add(("words", min(stickelberger._TABLES.get(fprime, p, n).words, 3)))
            seen.add(("f' > 1", fprime > 1))
            seen.add(("p | conductor", chi.conductor % p == 0))
            seen.add(("dim", ring.dim))
    assert {("f' > 1", True), ("p | conductor", True), ("p | conductor", False), ("dim", 2),
            ("words", 1), ("words", 2), ("words", 3)} <= seen


# (f', p, n) tables whose slot width is set by the Barrett product x_max m
# of their build, not by their sum bound
BARRETT_WIDTH_TABLES = [(4, 7, 4), (6, 7, 4), (168, 5, 4), (34580, 3, 4)]


def slot_tables(monkeypatch):
    """(f', p, n, words, bound) for every table, up to MAX_LEVEL, of the
    lambda-minus fields, the fields above and the f = 1 census p < 400, and
    for BARRETT_WIDTH_TABLES; bound = (U (2M - 1) + 1) (p^{N+n+3} - 1) is
    the largest slot before the exact division."""
    workloads = load_benchmark_module("workloads", monkeypatch)
    fields = [field[:2] for field in workloads.LAMBDA_FIELDS + workloads.LAMBDA_RANK_FIELDS]
    fields += SHARED_TABLE_FIELDS + WIDE_SLOT_FIELDS
    fields += [(p, 1) for p in range(3, 400) if is_prime(p)]
    tables = [(fprime, p, n) for p, f in fields
              for fprime in range(1, f + 1) if f % fprime == 0 and fprime % p
              for n in range(MAX_LEVEL + 1)]
    for fprime, p, n in tables + BARRETT_WIDTH_TABLES:
        units = sum(1 for r in range(1, (fprime * p + 1) // 2) if math.gcd(r, fprime * p) == 1)
        M = fprime * p ** (n + 1)
        bound = (units * (2 * M - 1) + 1) * (p ** (DEFAULT_PRECISION + n + 3) - 1)
        yield fprime, p, n, stickelberger._slot_words(units, M, p, n), bound


def test_slot_width_bound(monkeypatch):
    # a slot holds any sum of U products c * 2(M - a) and the shift c, with c
    # < p^{N+n+3}, keeps its top bit spare for the integrality check, and
    # holds the Barrett product x_max m of the table's build; it is the
    # fewest W-bit words that do
    for fprime, p, n, words, bound in slot_tables(monkeypatch):
        top = stickelberger._barrett(fprime * p ** (n + 1), p, n)[2]
        assert 2 * bound < 2 ** (W * words), (fprime, p, n)
        assert top < 2 ** (W * words), (fprime, p, n)
        assert max(2 * bound, top) >= 2 ** (W * (words - 1)), (fprime, p, n)


def test_barrett_quotient_is_exact(monkeypatch):
    # every slot x of a column before its reduction mod 2M is at most x_max
    # = (2M - 1) p^{n+1}; the quotient floor(x m / 2^k) is floor(x / 2M) at
    # x_max and just below its multiple of 2M, where it errs first
    tables = set()
    for fprime, p, n, _, _ in slot_tables(monkeypatch):
        M = fprime * p ** (n + 1)
        k, m, top = stickelberger._barrett(M, p, n)
        x_max = (2 * M - 1) * p ** (n + 1)
        assert top == x_max * m
        for x in (x_max, x_max - x_max % (2 * M) - 1):
            assert x * m >> k == x // (2 * M), (fprime, p, n, x)
        tables.add((fprime, p, n))
    assert len(tables) == 454


@pytest.mark.parametrize("fprime, p, n", BARRETT_WIDTH_TABLES)
def test_table_widens_its_slot_for_the_barrett_product(fprime, p, n):
    # the sum bound alone fits one word fewer than x_max m needs; the table
    # builds, wider, and equals the cell-by-cell build
    table = stickelberger._residue_table(fprime, p, n)
    units = len(stickelberger._table_units(fprime, p))
    M = fprime * p ** (n + 1)
    bound = (units * (2 * M - 1) + 1) * (p ** (DEFAULT_PRECISION + n + 3) - 1)
    assert 2 * bound < 2 ** (W * (table.words - 1))
    assert table == residue_table_by_cells(fprime, p, n)


def test_table_refuses_a_slot_too_narrow_for_its_reduction(monkeypatch):
    # with one-word slots the (1, 23, 2) table's x_max m needs 58 bits: the
    # build raises rather than reduce with a wrong quotient
    monkeypatch.setattr(stickelberger, "_slot_words", lambda count, M, p, n: 1)
    with pytest.raises(InvariantViolationError, match=r"\(1, 23, 2\) residue table"):
        stickelberger._residue_table(1, 23, 2)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 23]), st.integers(1, 40), st.integers(0, 2))
def test_residue_table_matches_cell_by_cell_build(p, fprime, n):
    # the whole-column build equals the cell-by-cell one, columns and width
    assume(math.gcd(fprime, p) == 1 and fprime * p ** (n + 1) <= 30000)
    assert stickelberger._residue_table(fprime, p, n) == residue_table_by_cells(fprime, p, n)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 23]), st.integers(1, 40), st.integers(0, 2))
@example(7, 13, 2)  # two-word slots
@example(7, 4, 4)
@example(7, 6, 4)
@example(5, 168, 4)
@example(3, 34580, 4)
def test_table_carries_its_ones_and_mask(p, fprime, n):
    # ones has a 1 in each of the p^n slots and mask the top bit_length(p^{n+1})
    # bits of each, on the hypothesis tables and every BARRETT_WIDTH_TABLES one
    assume(math.gcd(fprime, p) == 1)
    assume(fprime * p ** (n + 1) <= 30000 or (fprime, p, n) in BARRETT_WIDTH_TABLES)
    table = stickelberger._residue_table(fprime, p, n)
    S = W * table.words
    assert table.ones == stickelberger._ones(p ** n, table.words)
    assert table.mask == ((1 << S) - (1 << S - (p ** (n + 1)).bit_length())) * table.ones


def test_fold_never_carries(monkeypatch):
    # a quotient slot is below 2^k, k = W words - bit_length(p^{n+1}), so
    # p^{n-l} of them sum below 2^{W words}, for every level l < n
    for _, p, n, words, bound in slot_tables(monkeypatch):
        k = W * words - (p ** (n + 1)).bit_length()
        assert bound // p ** (n + 1) < 2 ** k, (p, n)
        for lower in range(n):
            assert p ** (n - lower) * (2 ** k - 1) < 2 ** (W * words), (p, n, lower)
    # and the fold adds full slots block by block, with no carry between them
    for p, n, words in [(3, 3, 1), (5, 2, 1), (7, 2, 2), (3, 2, 3)]:
        k = W * words - (p ** (n + 1)).bit_length()
        full = stickelberger._ones(p ** n, words) * (2 ** k - 1)
        for lower in range(n):
            folded = stickelberger._fold(full, p ** n, words, p ** lower)
            sums = stickelberger._unpack(folded, p ** lower, words)
            assert sums == [p ** (n - lower) * (2 ** k - 1)] * p ** lower, (p, n, lower)


def test_integrality_is_checked_slot_by_slot():
    # slot 0 = P - (2^S mod P) and slot 1 = 1: the whole int is P + 2^S - (2^S
    # mod P), a multiple of P, but slot 0 is not; the quotient is 1 + floor(2^S
    # / P), at least 2^k, so it sets a high bit of slot 0.  The widths are
    # those of the tables, in W-bit words
    for p, n, words in [(5, 0, 1), (5, 1, 2), (23, 2, 3), (157, 4, 5)]:
        P, S = p ** (n + 1), W * words
        mask = ((1 << S) - (1 << S - P.bit_length())) * stickelberger._ones(2, words)
        crafted = P - 2 ** S % P + (1 << S)
        assert crafted % P == 0
        with pytest.raises(InvariantViolationError, match="not p-integral"):
            stickelberger._exact_quotient(crafted, P, mask)
        assert stickelberger._exact_quotient(P * 3 + (P * 7 << S), P, mask) == 3 + (7 << S)
        with pytest.raises(InvariantViolationError):
            stickelberger._exact_quotient(P * 3 + 1 + (P << S), P, mask)


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


def test_lambda_zero_unpacks_p_slots_per_level(monkeypatch):
    # lambda = 0 is read at level 1: its p buckets are unpacked, and level 2
    # is unpacked only as folded onto level 1, never as its p^2 buckets
    unpacked = []

    def counted(x, count, words):
        unpacked.append(count)
        return unpack(x, count, words)

    unpack = stickelberger._unpack
    monkeypatch.setattr(stickelberger, "_unpack", counted)
    chi = omega(23).power(3)
    assert lambda_minus(chi) == stickelberger.LambdaResult(0, (1, 2))
    assert unpacked == [23] * 2 * local_ring(chi.order, 23, DEFAULT_PRECISION).dim


def test_lambda_evaluates_each_character_once():
    # both levels of a lambda_minus call project the same character columns
    columns = stickelberger._character_columns
    columns.cache_clear()
    rows = run(parse_config('{"p": 7, "f": 13}'), "lambda")["rows"]
    info = columns.cache_info()
    assert info.misses == len(rows) and info.hits == len(rows)
    assert all(row["levels_used"] == [1, 2] for row in rows)
