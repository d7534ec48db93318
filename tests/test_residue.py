import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    _LevelGroup,
    _snf_exponent,
    dense_chi_quotient_order,
    load_benchmark_module,
    module_cosets,
    norm_reduction_surjective,
    qmul_reference,
    qpow_reference,
    rank_estimate,
    tame_quotient,
    trivial_character,
)
from tamerank.arith import is_prime
from tamerank.characters import (
    FieldSpec,
    class_representatives,
    enumerate_characters,
    omega,
)
from tamerank.frobenius import (
    _least_in_class,
    inertia_trivial,
    m_index,
    sigma0_ok,
    splitting_count,
    stabilization_level,
)
import tamerank.arith as arith
import tamerank.frobenius as frobenius
import tamerank.localring as localring
import tamerank.residue as residue
from tamerank.arith import smallest_primitive_root, split_prime_part, teichmuller_residue, unit_group
from tamerank.cli import parse_config, run
from tamerank.errors import InvariantViolationError, OracleInconsistencyError
from tamerank.localring import cyclotomic_poly, local_ring
from tamerank.residue import (
    VALUATION_GUARD_DIGITS,
    chi_quotient_order,
    residue_module,
)


def test_module_shapes():
    m = residue_module(FieldSpec(3, 1), 7, 1)
    assert m.num_cosets == 2 and m.e_exp == 2
    m2 = residue_module(FieldSpec(3, 1), 19, 2)
    assert m2.num_cosets == 6 and m2.e_exp == 3
    m3 = residue_module(FieldSpec(3, 7), 7, 0)
    assert m3.num_cosets == 2 and m3.e_exp == 1


def total_exponent(module) -> int:
    """log_p of the order of the module (Z/p^{e_n})^{r_n}."""
    return module.e_exp * module.num_cosets


def test_total_exponent():
    for field, q, n in [(FieldSpec(3, 1), 7, 1), (FieldSpec(5, 7), 13, 1)]:
        m = residue_module(field, q, n)
        data = splitting_count(field, q, n)
        assert total_exponent(m) == data.p_exponent * data.prime_count


def test_snf_of_zero_module():
    assert _snf_exponent([], 0, 3, 4) == 0


def _span_size(gens: list, n: int, mod: int) -> int:
    """|S| for the subgroup S of (Z/mod)^n generated by gens, closed by
    adding generators until nothing new appears."""
    span = {(0,) * n}
    frontier = list(span)
    while frontier:
        new = []
        for s in frontier:
            for g in gens:
                t = tuple((a + b) % mod for a, b in zip(s, g))
                if t not in span:
                    span.add(t)
                    new.append(t)
        frontier = new
    return len(span)


@st.composite
def _presentations(draw):
    p = draw(st.sampled_from([3, 5]))
    e = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=1, max_value=3 if p == 3 else 2))
    row = st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n)
    return p, e, n, draw(st.lists(row, max_size=4))


@settings(max_examples=300, deadline=None, database=None)
@given(_presentations())
def test_snf_exponent_counts_the_quotient(presentation):
    # Z^n / (rows + p^e Z^n) = (Z/p^e)^n / S, so its exponent is n e - log_p |S|
    p, e, n, rows = presentation
    size = _span_size(rows, n, p ** e)
    log_size, rest = split_prime_part(size, p)
    assert rest == 1
    pe_rows = [[p ** e if i == c else 0 for i in range(n)] for c in range(n)]
    assert _snf_exponent(rows + pe_rows, n, p, e + VALUATION_GUARD_DIGITS) == n * e - log_size


def test_snf_exponent_refuses_a_free_direction():
    with pytest.raises(InvariantViolationError):
        _snf_exponent([[1, 0]], 2, 3, 1 + VALUATION_GUARD_DIGITS)


def test_chi_quotient_examples():
    field = FieldSpec(3, 1)
    m = residue_module(field, 7, 1)
    eps, w = trivial_character(3), omega(3)
    assert chi_quotient_order(m, eps) == 2
    assert chi_quotient_order(m, w) == 2
    # p does not divide |G| here, so the class pieces exhaust the module
    assert chi_quotient_order(m, eps) + chi_quotient_order(m, w) == total_exponent(m)


def test_rank_estimate_examples():
    field = FieldSpec(3, 1)
    eps, w = trivial_character(3), omega(3)
    assert rank_estimate(field, 7, eps, 1, 2) == 1
    assert rank_estimate(field, 7, w, 1, 2) == 1
    # sigma_0-condition fails for eps at q = 5: finite quotient, rank 0
    assert rank_estimate(field, 5, eps, 0, 1) == 0
    assert rank_estimate(field, 5, w, 0, 1) == 1


def test_rank_estimate_rejects_bad_levels():
    with pytest.raises(ValueError):
        rank_estimate(FieldSpec(3, 1), 7, trivial_character(3), 2, 2)


def test_rank_estimate_level_invariance():
    # the growth rate must not depend on which stabilized levels are sampled
    fs = FieldSpec(3, 1)
    eps = trivial_character(3)
    assert rank_estimate(fs, 7, eps, 1, 3) == 1
    assert rank_estimate(fs, 19, eps, 2, 4) == 3
    assert rank_estimate(fs, 19, omega(3), 2, 3) == rank_estimate(fs, 19, omega(3), 3, 4)


GRID_FIELDS = [FieldSpec(3, 1), FieldSpec(3, 7), FieldSpec(5, 1), FieldSpec(3, 8, (7,))]


@pytest.mark.parametrize("field", GRID_FIELDS)
def test_rank_estimate_matches_formula(field):
    p = field.p
    chars = enumerate_characters(field)
    reps = class_representatives(chars, p)
    qs = [q for q in (2, 3, 5, 7, 11) if q != p][:3]
    for q in qs:
        n0 = stabilization_level(field, q)
        for chi in reps:
            admissible = inertia_trivial(chi, q) and sigma0_ok(chi, q)
            expected = chi.d_chi * p ** m_index(q, p) if admissible else 0
            assert rank_estimate(field, q, chi, n0, n0 + 1) == expected


@pytest.mark.parametrize("field", GRID_FIELDS)
def test_class_ranks_sum_to_prime_count(field):
    chars = enumerate_characters(field)
    reps = class_representatives(chars, field.p)
    for q in [q for q in (2, 5, 7, 11) if q != field.p][:2]:
        n0 = stabilization_level(field, q)
        r = splitting_count(field, q, n0).prime_count
        total = sum(rank_estimate(field, q, chi, n0, n0 + 1) for chi in reps)
        assert total == r


def test_parity_decomposition():
    # |M_chi| = |M+_chi| * |M-_chi|; odd chi kills the plus part and even
    # chi kills the minus part
    field = FieldSpec(3, 1)
    m = residue_module(field, 7, 1)
    eps, w = trivial_character(3), omega(3)
    for chi in (eps, w):
        full = chi_quotient_order(m, chi)
        plus = chi_quotient_order(m, chi, "plus")
        minus = chi_quotient_order(m, chi, "minus")
        assert full == plus + minus
    assert chi_quotient_order(m, w, "plus") == 0
    assert chi_quotient_order(m, eps, "minus") == 0


def test_parity_decomposition_larger_field():
    field = FieldSpec(5, 7)
    chars = enumerate_characters(field)
    reps = class_representatives(chars, 5)
    n0 = stabilization_level(field, 11)
    m = residue_module(field, 11, n0 + 1)
    for chi in reps:
        full = chi_quotient_order(m, chi)
        plus = chi_quotient_order(m, chi, "plus")
        minus = chi_quotient_order(m, chi, "minus")
        assert full == plus + minus
        if chi.is_odd:
            assert plus == 0
        else:
            assert minus == 0


# oracle-grid fields whose dense presentations all have at most this many
# columns check both parities against the dense oracle too; the larger ones
# would take seconds, and check them against full = plus + minus instead
PARITY_COLUMNS = 36
PARTS = [None, "plus", "minus"]


def _oracle_grid_modules(monkeypatch, seed=0):
    """(job document, class representatives, modules) of each oracle-grid job,
    one module per (q, n) at the levels run_oracle uses, as it builds them."""
    workloads = load_benchmark_module("workloads", monkeypatch)
    for _, doc in workloads.generate("oracle-grid", seed):
        job = parse_config(doc)
        field = job.field
        reps = class_representatives(enumerate_characters(field), field.p)
        modules = []
        for q in sorted(job.S):
            s = stabilization_level(field, q)
            modules += [residue_module(field, q, n) for n in job.oracle_levels or (s, s + 1)]
        yield doc, reps, modules


def test_tree_elimination_matches_dense_on_oracle_grid(monkeypatch):
    # every chi_quotient_order call of the oracle-grid jobs at seed 0, and
    # both parities, on modules shared across characters and parts as
    # run_oracle shares them; module k takes its (chi, part) pairs rotated by
    # k, so each part's forest is first built for a different character
    for k, (doc, reps, modules) in enumerate(_oracle_grid_modules(monkeypatch)):
        dense_parts = max(m.num_cosets * chi.d_chi for m in modules for chi in reps) <= PARITY_COLUMNS
        pairs = [(chi, part) for chi in reps for part in PARTS]
        for i, m in enumerate(modules):
            shift = (k + i) % len(pairs)
            got = {(chi, part): chi_quotient_order(m, chi, part)
                   for chi, part in pairs[shift:] + pairs[:shift]}
            for chi in reps:
                where = (doc, m.q, m.level, chi.label())
                full, plus, minus = (got[chi, part] for part in PARTS)
                assert full == dense_chi_quotient_order(m, chi), where
                if dense_parts:
                    assert plus == dense_chi_quotient_order(m, chi, "plus"), where
                    assert minus == dense_chi_quotient_order(m, chi, "minus"), where
                assert full == plus + minus, where
                assert (plus if chi.is_odd else minus) == 0, where


def test_count_reduction_premise_on_oracle_grid(monkeypatch):
    # the forest keeps each generator's edge count mod the order of its
    # point, which is sound because chi(point_g)^{ord_g} = 1: a_g ord_g = 0
    # mod m for every oracle-grid module at seed 0 and every representative
    for doc, reps, modules in _oracle_grid_modules(monkeypatch):
        for m in modules:
            chi_quotient_order(m, reps[0])
            forest = m.forests[None]
            fp = m.field.f * m.field.p
            assert forest.points == tuple(point for point, _ in m.gen_actions)
            for point, order in zip(forest.points, forest.orders):
                assert pow(point, order, fp) == 1, (doc, point, order)
            for relations, _ in forest.orbits:
                for _, n in relations:
                    assert all(0 <= x < o for x, o in zip(n, forest.orders)), (doc, n)
            for chi in reps:
                a = chi.exponents_at(forest.points)
                assert all(x * o % chi.order == 0 for x, o in zip(a, forest.orders)), (
                    doc, m.q, chi.label())


def test_oracle_grid_takes_each_valuation_once_per_forest(monkeypatch):
    # every chi_quotient_order call of the oracle-grid jobs at seed 0, and
    # both parities: a module's characters share its forests' valuations, so
    # it takes at most one per distinct (m, u, b) that a forest meets
    calls = []
    valuation = localring.LocalCoefficientRing.valuation

    def counted(self, vec):
        calls.append(vec)
        return valuation(self, vec)

    monkeypatch.setattr(localring.LocalCoefficientRing, "valuation", counted)
    for doc, reps, modules in _oracle_grid_modules(monkeypatch):
        for m in modules:
            calls.clear()
            for part in PARTS:
                for chi in reps:
                    chi_quotient_order(m, chi, part)
            keys = set()
            for part, forest in m.forests.items():
                for chi in reps:
                    a = chi.exponents_at(forest.points)
                    keys |= {(part, chi.order, u, sum(x * y for x, y in zip(n, a)) % chi.order)
                             for relations, _ in forest.orbits for u, n in relations}
            where = (doc, m.q, m.level)
            assert len(calls) <= len(keys), where
            assert len(calls) == sum(len(forest.valuations) for forest in m.forests.values()), where


def test_twists_follow_the_walk_not_the_residue_degree():
    # 3 has residue degree 85683 at level 4 over Q(mu_13), and the module 4
    # cosets: the forest takes q^{-t} only for the t its walk meets
    field = FieldSpec(13, 1)
    reps = class_representatives(enumerate_characters(field), 13)
    m = residue_module(field, 3, 4)
    tracemalloc.start()
    try:
        got = [chi_quotient_order(m, chi) for chi in reps]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.residue_degree == 85683 and m.num_cosets == 4
    assert peak < 10 ** 6
    assert got == [dense_chi_quotient_order(m, chi) for chi in reps]


@st.composite
def _small_modules(draw):
    p = draw(st.sampled_from([3, 5]))
    f = draw(st.integers(min_value=1, max_value=12).filter(lambda f: math.gcd(f, p) == 1))
    q = draw(st.sampled_from([q for q in range(2, 100) if is_prime(q) and q != p]))
    n = draw(st.integers(min_value=0, max_value=2))
    field = FieldSpec(p, f)
    chi = draw(st.sampled_from(class_representatives(enumerate_characters(field), p)))
    return residue_module(field, q, n), chi, draw(st.sampled_from([None, "plus", "minus"]))


@settings(max_examples=150, deadline=None, database=None)
@given(_small_modules())
def test_tree_elimination_matches_dense(case):
    m, chi, part = case
    assume(m.num_cosets * chi.d_chi <= 40)
    assert chi_quotient_order(m, chi, part) == dense_chi_quotient_order(m, chi, part)


@st.composite
def _shared_calls(draw):
    """Two modules, one of Q(mu_p) and one of F(mu_p) with F of conductor f,
    and a run of (module, chi, part) calls on them.  The characters of
    Q(mu_p) serve both modules, which evaluate them at different points."""
    p = draw(st.sampled_from([3, 5]))
    f = draw(st.integers(min_value=2, max_value=12).filter(lambda f: math.gcd(f, p) == 1))
    primes = [q for q in range(2, 60) if is_prime(q) and q != p]
    levels = st.integers(min_value=0, max_value=2)
    small, large = FieldSpec(p, 1), FieldSpec(p, f)
    modules = [residue_module(small, draw(st.sampled_from(primes)), draw(levels)),
               residue_module(large, draw(st.sampled_from(primes)), draw(levels))]
    base = class_representatives(enumerate_characters(small), p)
    own = class_representatives(enumerate_characters(large), p)
    pairs = [(0, chi) for chi in base] + [(1, chi) for chi in base + own]
    calls = draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(PARTS)),
                          min_size=2, max_size=8))
    return [(modules[i], chi, part) for (i, chi), part in calls]


@settings(max_examples=60, deadline=None, database=None)
@given(_shared_calls())
def test_shared_module_answers_do_not_depend_on_call_order(calls):
    # the forests kept on a module and the exponents kept on a character
    # must give each call the answer of a fresh module
    for m, chi, part in calls:
        if m.num_cosets * chi.d_chi <= 40:
            assert chi_quotient_order(m, chi, part) == dense_chi_quotient_order(m, chi, part)
        else:
            fresh = residue_module(m.field, m.q, m.level)
            assert chi_quotient_order(m, chi, part) == chi_quotient_order(fresh, chi, part)


def test_level_group_class_is_least_in_its_h_orbit():
    # the lookup table agrees with min over H, for units and non-units
    for field, q in [(FieldSpec(5, 21, (8,)), 2), (FieldSpec(3, 8, (3,)), 5), (FieldSpec(7, 8, (3,)), 3),
                     (FieldSpec(5, 1), 7), (FieldSpec(3, 35, (4,)), 7)]:
        quotient = tame_quotient(field, q)
        fq, hset = quotient.f, quotient.subgroup_elements
        least = _least_in_class(fq, hset)
        for a in range(-fq, 3 * fq):
            assert least[a % fq] == min(a * h % fq for h in hset), (field, q, a)


def _assert_matches_element_walk(m):
    """The cosets of m partition its level group, listed element by element,
    and every table entry (j, t) of an image x reads x c_i = c_j Frob^t."""
    grp = _LevelGroup(m.field, m.q, m.level)
    frob, powers = grp.element(m.q, m.q), [grp.element(1, 1)]
    for _ in range(m.residue_degree - 1):
        powers.append(grp.mul(powers[-1], frob))
    cosets = module_cosets(m)
    assert all(grp.element(*c) == c for c in cosets)
    walk = {grp.mul(c, x): (j, t) for j, c in enumerate(cosets) for t, x in enumerate(powers)}
    elements = grp.elements()
    assert len(walk) == m.num_cosets * m.residue_degree == len(elements) and set(walk) == set(elements)
    for x, table in m.gen_actions + [(-1, m.j_action)]:
        image = grp.element(x, teichmuller_residue(x, m.field.p, m.level + 1))
        assert [walk[grp.mul(image, c)] for c in cosets] == table, (m.field, m.q, m.level, x)


@st.composite
def _level_groups(draw):
    """(field, q, n) with p in {3, 5, 7}, f <= 40 with a drawn H, q prime to
    f or dividing it, and n <= 2: at most 36 * 6 * 7^2 elements."""
    p = draw(st.sampled_from([3, 5, 7]))
    f = draw(st.integers(min_value=1, max_value=40).filter(lambda f: math.gcd(f, p) == 1))
    units = [a for a in range(2, f) if math.gcd(a, f) == 1]
    gens = draw(st.lists(st.sampled_from(units), max_size=2)) if units else []
    divisors = [q for q in range(2, f + 1) if f % q == 0 and is_prime(q)]
    coprime = [q for q in range(2, 100) if is_prime(q) and q != p and f % q]
    q = draw(st.sampled_from(divisors if divisors and draw(st.booleans()) else coprime))
    return FieldSpec(p, f, tuple(gens)), q, draw(st.integers(min_value=0, max_value=2))


@settings(max_examples=150, deadline=None, database=None)
@given(_level_groups())
def test_structural_cosets_match_the_element_walk(case):
    _assert_matches_element_walk(residue_module(*case))


def test_structural_cosets_match_the_element_walk_on_oracle_grid(monkeypatch):
    for seed in range(3):
        for _, _, modules in _oracle_grid_modules(monkeypatch, seed):
            for m in modules:
                _assert_matches_element_walk(m)


@pytest.mark.parametrize("p, q, n, cosets", [
    pytest.param(3, 7, 10, 2, id="10"),
    pytest.param(3, 7, 12, 2, id="12"),
    pytest.param(13, 3, 10, 4, id="13-3-10"),
])
def test_module_work_follows_its_cosets_not_its_group(p, q, n, cosets):
    # the level group has (p - 1) p^n elements (118098 for p = 3 at n = 10,
    # 12 * 13^10 for p = 13), the module 2 or 4 cosets; the unit group of
    # (Z/p^{n+1})^x starts cold, so the bound covers its discrete logs
    unit_group.cache_clear()
    tracemalloc.start()
    try:
        m = residue_module(FieldSpec(p, 1), q, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.num_cosets == cosets and peak < 2 ** 20


def test_oracle_builds_each_tame_record_once(monkeypatch):
    # two primes at two levels each: each q's orbits in the tame quotient,
    # and the class table they walk, are built once, for the bound check,
    # the stabilization level and both levels' splitting counts and
    # modules; the job builds no FieldSpec besides its own
    counts = {"field": 0, "orbits": 0, "least": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    job = parse_config('{"p": 5, "f": 7, "S": [2, 3], "lambda": {"table": {"all": 0}}}')
    assert not job.field.tame_records  # the job's own field, built on first use
    monkeypatch.setattr(FieldSpec, "__init__", counted("field", FieldSpec.__init__))
    monkeypatch.setattr(frobenius, "_frobenius_orbits", counted("orbits", frobenius._frobenius_orbits))
    monkeypatch.setattr(frobenius, "_least_in_class", counted("least", frobenius._least_in_class))
    report = run(job, "oracle")
    assert report["all_pass"] and {row["q"] for row in report["rows"]} == {2, 3}
    assert counts == {"field": 0, "orbits": 2, "least": 2}


def test_structural_checks_raise_on_corrupted_inputs(monkeypatch):
    # (Z/7)^x splits into the <2>-orbits {1, 2, 4} and {3, 6, 5}; sending 6
    # to the class of 4 walks the second orbit into the first
    field = FieldSpec(5, 7)
    least_in_class = frobenius._least_in_class

    def corrupted(fq, hset):
        least = least_in_class(fq, hset)
        least[6] = 4
        return least

    with monkeypatch.context() as patch:
        patch.setattr(frobenius, "_least_in_class", corrupted)
        with pytest.raises(InvariantViolationError, match="does not close"):
            residue_module(field, 2, 1)
    with monkeypatch.context() as patch:
        patch.setattr(frobenius, "euler_phi", lambda n: n)  # phi(7) read as 7
        with pytest.raises(InvariantViolationError, match="phi"):
            frobenius.TameData(field, 2)
    data = splitting_count(field, 2, 1)
    for wrong, message in [(data._replace(residue_degree=data.residue_degree + 1), "residue degree"),
                           (data._replace(prime_count=data.prime_count + 1), "coset count")]:
        with monkeypatch.context() as patch:
            patch.setattr(residue, "splitting_count", lambda *args: wrong)
            with pytest.raises(InvariantViolationError, match=message):
                residue_module(field, 2, 1)


def test_quotient_growth_raises_on_inconsistent_modules(monkeypatch):
    # q = 7 over (3, 1) stabilizes at level 1; levels 1 and 3 differ by 2 in
    # their residue exponent, so a growth of 1 or -2 is no integral rank
    field, q = FieldSpec(3, 1), 7
    chi = enumerate_characters(field)[1]
    lo, hi = residue_module(field, q, 1), residue_module(field, q, 3)
    assert hi.e_exp - lo.e_exp == 2
    for module in (lo, hi):
        with pytest.raises(OracleInconsistencyError, match="residue exponent did not grow"):
            residue.quotient_growth(module, lo, chi)
    for x0, x1 in [(0, 1), (2, 0)]:
        sizes = {lo: x0, hi: x1}
        monkeypatch.setattr(residue, "chi_quotient_order", lambda module, chi: sizes[module])
        with pytest.raises(OracleInconsistencyError, match=f"non-integral growth {x1 - x0}/2"):
            residue.quotient_growth(lo, hi, chi)


def test_norm_reduction_surjective():
    for field, q in [(FieldSpec(3, 1), 7), (FieldSpec(5, 1), 7), (FieldSpec(3, 7), 13)]:
        n0 = stabilization_level(field, q)
        for n in range(n0, n0 + 2):
            assert norm_reduction_surjective(field, q, n)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12),
       st.lists(st.integers(-50, 50), max_size=5), st.sampled_from([7, 3 ** 5, 13 ** 4]))
def test_pdivmod_divides_by_a_monic_and_commutes_with_reduction(a, tail, m):
    # a = quo b + rem over Z with deg rem < deg b, and the remainder of a
    # mod m by b mod m (still monic) is rem mod m
    b = tail + [1]
    quo, rem = localring._pdivmod(a, b)
    assert len(rem) < len(b) and (not rem or rem[-1])
    back = rem + [0] * (len(quo) + len(b) - len(rem))
    for i, c in enumerate(quo):
        for j, d in enumerate(b):
            back[i + j] += c * d
    assert localring._ptrim(back) == localring._ptrim(list(a))
    reduced = localring._pdivmod([c % m for c in a], [c % m for c in tail] + [1])[1]
    assert localring._ptrim([c % m for c in reduced]) == localring._ptrim([c % m for c in rem])


def test_pdivmod_refuses_a_non_monic_divisor():
    # 8 is 1 mod 7, but the division runs over Z, where [1, 8] is not monic
    for b in [[], [1, 2], [1, 8], [3, 0, -1]]:
        with pytest.raises(ValueError, match="monic"):
            localring._pdivmod([1, 2, 3], b)


OPERAND = st.lists(st.integers(0, 10 ** 12), max_size=7)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(-13, 13), min_size=1, max_size=7), OPERAND, OPERAND,
       st.sampled_from([3, 5, 7, 13]), st.integers(1, 12), st.integers(0, 20))
def test_qmul_and_qpow_match_the_product_reduced_term_by_term(tail, a, b, p, K, e):
    # (Z/p^K)[x]/(g) for a monic g of degree 1 to 7, on operands of deg g
    # coordinates or fewer: one reduction after the integer division gives
    # what reducing every partial product does
    g, m = tail + [1], p ** K
    a, b = [c % m for c in a[:len(tail)]], [c % m for c in b[:len(tail)]]
    assert localring._qmul(a, b, g, m) == qmul_reference(a, b, g, m)
    assert localring._qpow(a, e, g, m) == qpow_reference(a, e, g, m)


def test_zeta_is_a_root_of_cyclotomic():
    # zeta_{n0} must be a root of Phi_{n0} mod p^K; (7, 11) splits with d0 = 3
    for n0, p in [(12, 5), (8, 3), (5, 7), (16, 7), (7, 11)]:
        ring = local_ring(n0, p, 6)
        acc = [[0] * ring.dim for _ in range(ring.dim)]
        for i, c in enumerate(cyclotomic_poly(n0)):
            z = ring.zeta_matrix(i)
            acc = [[(a + c * b) % ring.mod for a, b in zip(r, zr)] for r, zr in zip(acc, z)]
        assert acc == [[0] * ring.dim for _ in range(ring.dim)]


# times the degree-11 search over F_13 and prints the seconds and the result
FIND_IRREDUCIBLE = """
import json, time
from tamerank.localring import _find_irreducible
t0 = time.monotonic()
g = _find_irreducible(13, 11)
print(json.dumps([time.monotonic() - t0, g]))
"""


def test_irreducible_search_skips_zero_constant_terms():
    # a character of order 46 at p = 13 needs d0 = 11; the 13^10 tails with
    # constant term 0 come first in the search order and must not be walked.
    # Walking them takes minutes, so the search runs in a child interpreter
    # that the timeout stops.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", FIND_IRREDUCIBLE], capture_output=True, text=True,
        timeout=30, env=dict(os.environ, PYTHONPATH=str(Path(localring.__file__).parents[1])),
    )
    assert proc.returncode == 0, proc.stderr
    seconds, g = json.loads(proc.stdout)
    assert seconds < 1.0
    assert len(g) == 12 and g[-1] == 1 and g[0] != 0


def test_irreducible_cyclotomic_skips_the_search(monkeypatch):
    # Phi_58 is irreducible mod 3 (d0 = 28): zeta_58 = x, and searching
    # F_{3^28} for a root would take minutes.  The ring is built directly so
    # that no cached ring hides the construction.
    def refuse(p, d):
        raise AssertionError(f"searched for an irreducible of degree {d} over F_{p}")

    monkeypatch.setattr(localring, "_find_irreducible", refuse)
    ring = localring.LocalCoefficientRing(58, 3, 8)
    assert ring.d0 == 28 and ring.dim == 28
    minus_one = (-1) % ring.mod
    assert ring.zeta_matrix(29) == [[minus_one if i == j else 0 for j in range(28)] for i in range(28)]


def test_ring_powers_do_not_recurse():
    # zeta_1012^1011 in a rank-1 ring: powers are built by a loop, not by
    # one recursive call per power
    g = smallest_primitive_root(1013)
    assert local_ring(1012, 1013, 8).zeta_vector(1011) == [
        pow(teichmuller_residue(g, 1013, 8), 1011, 1013 ** 8)
    ]


def test_local_ring_matrix_orders():
    ring = local_ring(12, 5, 6)
    assert ring.dim == 2
    z = ring.zeta_matrix(1)
    acc = z
    for _ in range(11):
        acc = [[sum(a * b for a, b in zip(row, col)) % ring.mod
                for col in zip(*z)] for row in acc]
    ident = [[1 if i == j else 0 for j in range(2)] for i in range(2)]
    assert acc == ident
    # the mu_4-component must match the Teichmueller pinning: zeta_12^3 acts
    # as the scalar teich(2) since omega(2) generates mu_4 in Z_5
    from tamerank.arith import teichmuller_residue

    z4 = ring.zeta_matrix(3)
    t = teichmuller_residue(2, 5, 6)
    assert z4 == [[t, 0], [0, t]]


def test_local_ring_pinning_with_larger_torsion():
    # n0 = 24, p = 7: Phi_24 has degree-2 factors and gcd(24, 6) = 6, so the
    # whole mu_6-component of the chosen root is forced by the pinning
    from tamerank.arith import teichmuller_residue

    ring = local_ring(24, 7, 6)
    assert ring.dim == 2
    t6 = teichmuller_residue(3, 7, 6)  # omega(3) generates mu_6 in Z_7
    assert ring.zeta_matrix(4) == [[t6, 0], [0, t6]]
    minus_one = (-1) % ring.mod
    assert ring.zeta_matrix(12) == [[minus_one, 0], [0, minus_one]]


@pytest.mark.parametrize(
    "m, p, sample",
    [
        (12, 13, None),  # n0 | p - 1
        (12, 5, None),  # searched and pinned, d0 = 2
        (24, 7, None),  # searched, pins mu_6
        (7, 11, None),  # split, d0 = 3
        (20, 5, None),  # w = 4
        (18, 3, None),  # w = 6
        (60, 5, None),  # d0 = 2 and w = 4
        (58, 3, (0, 1, 2, 13, 29, 30, 57)),  # Phi_58 irreducible mod 3, d0 = 28
    ],
)
def test_ring_vectors_agree_with_matrices(m, p, sample):
    ring = local_ring(m, p, 6)
    ks = range(m) if sample is None else sample
    for k in ks:
        assert ring.zeta_vector(k) == [row[0] for row in ring.zeta_matrix(k)]
    for a in ks:
        z = ring.zeta_matrix(a)
        for b in ks:
            prod = [sum(x * y for x, y in zip(row, ring.zeta_vector(b))) % ring.mod for row in z]
            assert prod == ring.zeta_vector(a + b), (a, b)


# (m, p) covering w = 1 and w > 1, d0 = 1 and d0 > 1; their (w, d0) are
# (1, 2), (1, 1), (6, 1), (1, 6), (2, 2), (1, 2), (2, 6) and (6, 1)
VALUATION_RINGS = [(4, 3), (4, 5), (9, 3), (9, 5), (24, 3), (24, 7), (21, 3), (21, 7)]


def _cyclic_product(a: list, b: list) -> list:
    """Product of two elements of Z[X]/(X^m - 1) on the powers of X."""
    m = len(a)
    out = [0] * m
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % m] += x * y
    return out


@st.composite
def _ideal_generators(draw):
    """(m, p, e, a): a = p^s (1 - zeta^t)^j u in Z[zeta_m], u drawn on the
    powers of zeta, as its coefficients on those powers (t = 0 gives 0)."""
    m, p = draw(st.sampled_from(VALUATION_RINGS))
    e = draw(st.integers(min_value=1, max_value=3))
    a = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=m, max_size=m))
    one_minus = [0] * m
    one_minus[0] += 1
    one_minus[draw(st.integers(min_value=0, max_value=m - 1))] -= 1
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a = _cyclic_product(a, one_minus)
    s = draw(st.integers(min_value=0, max_value=1))
    return m, p, e, [c * p ** s for c in a]


@settings(max_examples=200, deadline=None, database=None)
@given(_ideal_generators())
def test_valuation_counts_the_quotient_by_an_ideal(drawn):
    # O_chi / (a, p^e) has p^{d0 min(v(a), w e)} elements; the rows a e_i and
    # p^e e_i present it, and a Smith reduction counts it independently
    m, p, e, a = drawn
    K = e + VALUATION_GUARD_DIGITS
    ring = local_ring(m, p, K)
    vec = [sum(c * z for c, z in zip(a, col)) for col in zip(*map(ring.zeta_vector, range(m)))]
    mult = [[sum(c * row[i] for c, row in zip(a, rows)) for rows in zip(*map(ring.zeta_matrix, range(m)))]
            for i in range(ring.dim)]
    pe_rows = [[p ** e if i == c else 0 for c in range(ring.dim)] for i in range(ring.dim)]
    expected = _snf_exponent(mult + pe_rows, ring.dim, p, K)
    assert ring.d0 * min(ring.valuation(vec), ring.w * e) == expected


def test_valuation_fixed_values():
    for m, p in VALUATION_RINGS:
        ring = local_ring(m, p, 5)
        w, zero = ring.w, [0] * ring.dim
        assert ring.valuation([p] + zero[1:]) == w
        # p^2 x^(d0 - 1) y^(w - 1), p^2 times a unit
        assert ring.valuation([p ** 2 * (i == ring.dim - 1) for i in range(ring.dim)]) == 2 * w
        assert ring.valuation(zero) == w * 5
        assert ring.valuation([1] + zero[1:]) == 0
        assert ring.valuation(ring.zeta_vector(1)) == 0 and ring.is_unit(ring.zeta_vector(1))
        assert not ring.is_unit([p] + zero[1:])
        if w > 1:
            assert ring.valuation([1, -1] + zero[2:]) == 1  # 1 - y, the uniformizer
            # zeta_{p^alpha} - 1 has valuation 1, and a primitive p-th root's w / (p - 1)
            y = ring.zeta_vector(m // ring.pa)
            assert ring.valuation([c - (i == 0) for i, c in enumerate(y)]) == 1
            yp = ring.zeta_vector(m // p)
            assert ring.valuation([c - (i == 0) for i, c in enumerate(yp)]) == w // (p - 1)


# 608 (chi, q, pair of levels) checks over the five fields
LADDER_FIELDS = [(5, 7, [2, 11]), (3, 8, [5, 7]), (7, 1, [2, 3]), (13, 1, [3]), (3, 1, [7, 19])]


@pytest.mark.parametrize("p, f, S", LADDER_FIELDS)
def test_growth_up_the_level_ladder_is_the_tame_term(p, f, S):
    # from the stabilization level s of q up to s + 8, the chi-quotient grows
    # between every pair of consecutive levels by d_chi p^(m_q) for chi with
    # q in S_chi and by 0 for every other chi: the rank does not depend on
    # which stabilized levels the oracle reads
    field = FieldSpec(p, f)
    reps = class_representatives(enumerate_characters(field), p)
    for q in S:
        s = stabilization_level(field, q)
        tame = p ** m_index(q, p)
        ladder = [residue_module(field, q, n) for n in range(s, s + 9)]
        for lo, hi in zip(ladder, ladder[1:]):
            for chi in reps:
                admissible = inertia_trivial(chi, q) and sigma0_ok(chi, q)
                growth = residue.quotient_growth(lo, hi, chi)[2]
                assert growth == (chi.d_chi * tame if admissible else 0), (q, lo.level, chi.label())


# (f, SHA-256 of the report as benchmarks/worker.py writes it: indent 2, then
# a newline) of each deep oracle job, keyed by (p, q, levels).  The first two
# were taken while the logs in (Z/p^(n+1))^x were read by Pohlig-Hellman, the
# third while each Teichmueller point was lifted mod p^(n+1) and logged in
# that group.
DEEP_ORACLE_DIGESTS = {
    (5, 11, (0, 195)): (1, "b176f70cff5b19c5d18c4f1f6c419ccc13e6781d6d3730c0e90244adb1c85d49"),
    (13, 3, (1, 195)): (1, "ddb71c17e8fb15b404fc2850f5dce0379663201721fc066adbde2f1c1e2bc82c"),
    (7, 2, (2, 150)): (4, "baf7fcdcaa81d3da8ec4ad6c9752c1fdd860ce36d9aa157b4fd5520370349068"),
}


@pytest.mark.parametrize("p, q, levels", list(DEEP_ORACLE_DIGESTS))
def test_deep_oracle_level_passes_with_its_pinned_report(p, q, levels):
    # n1 = 195 is the deepest level the digit bound admits; the log of q in
    # (Z/p^196)^x takes one p-adic log, and each Teichmueller point's
    # exponent is p^n times a log mod p
    f, digest = DEEP_ORACLE_DIGESTS[p, q, levels]
    report = run(parse_config(json.dumps({"p": p, "f": f, "S": [q], "oracle_levels": list(levels)})), "oracle")
    assert report["all_pass"]
    text = json.dumps(report, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("q", [3, 7, 11])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_tables_read_the_lift_where_the_root_mod_p_is_not_one_mod_p_squared(q, n):
    # the generator point of (Z/40487)^x is 5, and B = (Z/40487^(n+1))^x is
    # generated by 10 for n >= 1, as 5^40486 = 1 mod 40487^2: each table entry
    # (j, t) of an image x reads c_j q^t = omega(x) c_i in B, omega(x) lifted
    # by teichmuller_residue
    p = 40487
    m = residue_module(FieldSpec(p, 1), q, n)
    pmod = p ** (n + 1)
    cosets = [b for _, b in module_cosets(m)]
    for x, table in m.gen_actions + [(-1, m.j_action)]:
        lift = teichmuller_residue(x, p, n + 1)
        for i, (j, t) in enumerate(table):
            assert cosets[j] * pow(q, t, pmod) % pmod == lift * cosets[i] % pmod, (q, n, x, i)


def test_deep_module_takes_no_lift_and_no_order_mod_its_level(monkeypatch):
    # every binding of teichmuller_residue and mul_order in the loaded
    # tamerank modules is wrapped, as the benchmark tracer rebinds names: the
    # level-195 module for (13, 1, [3]) lifts nothing, and takes orders only
    # below 13^196 (the order of q mod 13, for its residue degree)
    calls = []

    def recording(name, fn, modulus):
        def wrapped(*args):
            calls.append((name, modulus(*args)))
            return fn(*args)
        return wrapped

    wrappers = {
        arith.teichmuller_residue: recording("lift", arith.teichmuller_residue, lambda a, p, N: p ** N),
        arith.mul_order: recording("order", arith.mul_order, lambda a, modulus: modulus),
    }
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "tamerank" or name.startswith("tamerank.")):
            for key, value in list(vars(module).items()):
                if any(value is fn for fn in wrappers):
                    monkeypatch.setattr(module, key, wrappers[value])
    m = residue_module(FieldSpec(13, 1), 3, 195)
    assert m.level == 195 and m.num_cosets == 4
    assert not [c for c in calls if c[0] == "lift"]
    assert calls and all(modulus < 13 ** 196 for _, modulus in calls)
