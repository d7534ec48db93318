"""Acceptance suite: one test per criterion, each printing a pass line.

Every assertion is exact; the only tolerance anywhere is the 1e-9 complex
root merge inside the lcm-degree oracle.  Runtime guards use generous wall
clocks and the stated budgets.
"""

import itertools
import json
import random
import time

from helpers import (
    lcm_degree_oracle,
    random_prime_sets,
    rank_estimate,
    rank_rational,
    rational_prime_count,
)
from tamerank.annihilators import lcm_degree
from tamerank.arith import unit_group
from tamerank.characters import (
    FieldSpec,
    class_representatives,
    enumerate_characters,
    omega,
    trivial_character,
)
from tamerank.cli import parse_config, run
from tamerank.frobenius import (
    inertia_trivial,
    m_index,
    sigma0_ok,
    stabilization_level,
)
from tamerank.rank import LambdaProvider, rank_chi
from tamerank.residue import chi_quotient_order, residue_module
from tamerank.stickelberger import bernoulli_b1, lambda_minus


def _report(name, elapsed, budget):
    print(f"[PASS] {name} ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget


def grid_fields():
    return [FieldSpec(p, f) for p in (3, 5) for f in (1, 7, 8)]


def grid_primes(field):
    qs = []
    for q in (2, 3, 5, 7, 11, 13, 17, 19):
        if q != field.p and field.f % q != 0 and len(qs) < 4:
            qs.append(q)
    for q in (2, 3, 5, 7, 11, 13):
        if field.f % q == 0 and q != field.p:
            qs.append(q)
    return qs


def test_criterion_1_example_6_5():
    t0 = time.monotonic()
    job = parse_config(
        json.dumps(
            {"p": 5, "f": 1, "S": [7, 11], "lambda": {"mode": "table", "table": {"all": 0}}}
        )
    )
    report = run(job, "rank")
    ranks = [r["rank"] for r in report["records"]]
    assert [r["character"] for r in report["records"]] == [
        "eps",
        "omega^1",
        "omega^2",
        "omega^3",
    ]
    assert ranks == [0, 5, 0, 1]
    assert report["total"] == 6
    _report("criterion 1: per-character ranks (0,5,0,1), total 6", time.monotonic() - t0, 10.0)


def test_criterion_2_rank_oracle_grid():
    t0 = time.monotonic()
    cells = 0
    for field in grid_fields():
        reps = class_representatives(enumerate_characters(field), field.p)
        for q in grid_primes(field):
            n0 = stabilization_level(field, q)
            for chi in reps:
                admissible = inertia_trivial(chi, q) and sigma0_ok(chi, q)
                expected = chi.d_chi * field.p ** m_index(q, field.p) if admissible else 0
                assert rank_estimate(field, q, chi, n0, n0 + 1) == expected, (
                    field,
                    q,
                    chi.label(),
                )
                cells += 1
    assert cells > 200
    _report(f"criterion 2: rank oracle grid, {cells} cells exact", time.monotonic() - t0, 300.0)


def test_criterion_3_prime_counts():
    t0 = time.monotonic()
    expected = {(3, 7): 1, (3, 19): 3, (3, 163): 27, (5, 7): 5}
    for (p, q), count in expected.items():
        m = m_index(q, p)
        assert rational_prime_count(p, q, m + 1) == count
        assert count == p ** m
    _report("criterion 3: prime counts over the rational tower", time.monotonic() - t0, 10.0)


def test_criterion_4_lcm_degree_oracle():
    t0 = time.monotonic()
    rng = random.Random(0xFEED)
    checked = 0
    for _ in range(200):
        p = rng.choice([3, 5])
        # pairs (m, e) on zeta_{p^2}
        fam = [(rng.randint(0, 2), rng.randrange(p * p)) for _ in range(rng.randint(1, 6))]
        assert lcm_degree(p, p * p, fam) == lcm_degree_oracle(p, p * p, fam)
        for a, b in itertools.combinations(fam, 2):
            # nested or disjoint
            union = lcm_degree_oracle(p, p * p, [a, b])
            assert union in (max(p ** a[0], p ** b[0]), p ** a[0] + p ** b[0])
        checked += 1
    assert checked == 200
    _report("criterion 4: lcm-degree oracle equivalence, 200 families", time.monotonic() - t0, 30.0)


def test_criterion_5_trivial_character_consistency():
    t0 = time.monotonic()
    assert rank_rational([7, 13], 3) == 1
    assert rank_rational([7, 19], 3) == 1
    assert rank_rational([5], 3) == 0
    provider = LambdaProvider(table={"all": 0})
    for p in (3, 5, 7):
        eps = trivial_character(p)
        for S in random_prime_sets(p, 20, seed=1000 + p):
            assert rank_chi(eps, S, provider).rank == rank_rational(S, p)
    _report("criterion 5: trivial-character consistency", time.monotonic() - t0, 60.0)


def test_criterion_6_example_6_6():
    t0 = time.monotonic()
    field = FieldSpec(3, 8, (7,))
    chi = [c for c in enumerate_characters(field) if c.conductor == 8][0]
    rec = rank_chi(chi, [5, 7, 13], LambdaProvider(allow_greenberg=True))
    assert list(rec.m_map) == [5, 7]
    assert rec.deg_f == 1
    assert rec.rank == 1
    assert rec.conjectural
    _report("criterion 6: real quadratic example, rank 1 conjectural", time.monotonic() - t0, 10.0)


def test_criterion_7_stickelberger_lambda():
    t0 = time.monotonic()
    for p in (5, 7):
        w = omega(p)
        for i in range(3, p - 1, 2):
            res = lambda_minus(w.power(i))
            assert res.lambda_ == 0
    res37 = lambda_minus(omega(37).power(5))
    assert res37.lambda_ == 1
    for p in (5, 7, 11, 13, 37):
        w = omega(p)
        for i in range(3, p - 1, 2):
            chi = w.power(i)
            res = lambda_minus(chi)
            divisible = bernoulli_b1(chi.inverse()).p_valuation() >= 1
            assert (res.lambda_ >= 1) == divisible
    _report("criterion 7: stickelberger lambda and B1 threshold", time.monotonic() - t0, 120.0)


def test_criterion_8_parity_and_algebra():
    t0 = time.monotonic()
    # parity factorization and one-sided vanishing on every module of the
    # criterion-2 grid (both levels)
    for field in grid_fields():
        reps = class_representatives(enumerate_characters(field), field.p)
        for q in grid_primes(field):
            n0 = stabilization_level(field, q)
            for n in (n0, n0 + 1):
                module = residue_module(field, q, n)
                for chi in reps:
                    full = chi_quotient_order(module, chi)
                    plus = chi_quotient_order(module, chi, "plus")
                    minus = chi_quotient_order(module, chi, "minus")
                    assert full == plus + minus, (field, q, n, chi.label())
                    if chi.is_odd:
                        assert plus == 0
                    else:
                        assert minus == 0
    # character invariants over all tested fields
    extra = [FieldSpec(3, 8, (7,)), FieldSpec(3, 7, (6,)), FieldSpec(5, 7, (6,))]
    for field in grid_fields() + extra:
        chars = enumerate_characters(field)
        reps = class_representatives(chars, field.p)
        assert sum(c.d_chi for c in reps) == field.group_order
        w = omega(field.p)
        assert w in chars and w.is_odd
        g = unit_group(field.p).generators[0]
        for a in range(1, field.p):
            assert pow(g, w.value(a).exponent_for(field.p - 1), field.p) == a
    _report("criterion 8: parity suites and character invariants", time.monotonic() - t0, 300.0)
