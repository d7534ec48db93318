import itertools
import random

import pytest

from helpers import lcm_degree_oracle, sigma_p_value_oracle, trivial_character
from tamerank.annihilators import annihilator, lcm_degree
from tamerank.arith import split_prime_part
from tamerank.characters import FieldSpec, class_representatives, enumerate_characters, omega
from tamerank.frobenius import m_index
from tamerank.rank import LambdaProvider, rank_chi


def test_contains_examples():
    # (0, 0) lies inside (1, 0) on zeta_3, is disjoint from (1, 1), and a
    # repeated pair counts once
    assert lcm_degree(3, 3, [(0, 0), (1, 0)]) == 3
    assert lcm_degree(3, 3, [(0, 0), (1, 1)]) == 4
    assert lcm_degree(3, 3, [(0, 1), (0, 1)]) == 1
    # containment reads e p^{m_b - m} mod pa: zeta_9^1 cubed is zeta_9^3
    assert lcm_degree(3, 9, [(0, 1), (1, 3)]) == 3
    assert lcm_degree(3, 9, [(0, 1), (1, 6)]) == 4


def test_lcm_degree_examples():
    assert lcm_degree(3, 1, [(0, 0), (1, 0)]) == 3
    assert lcm_degree(3, 3, [(0, 0), (0, 1)]) == 2
    assert lcm_degree(3, 1, [(1, 0)]) == 3
    assert lcm_degree(3, 3, [(0, 0), (1, 1)]) == 4
    with pytest.raises(ValueError):
        lcm_degree(3, 3, [])


def test_annihilator_examples():
    eps = trivial_character(3)
    assert annihilator(eps, 19) == (1, 0)
    # sigma_0-condition fails: no annihilator is produced
    w5 = omega(5)
    assert annihilator(w5.power(3), 7) is None
    # admissible counterpart with the same (m, e)
    assert annihilator(w5, 7) == (1, 0)
    # ramified character
    cubic = [c for c in enumerate_characters(FieldSpec(3, 7, (6,))) if c.order == 3][0]
    assert annihilator(cubic, 7) is None
    # unramified at 31, which generates the cubic quotient: e = 2 on zeta_3
    cubic = [c for c in enumerate_characters(FieldSpec(3, 7, (6,)))
             if c.order == 3 and c.value(3).exponent_for(3) == 1][0]
    assert annihilator(cubic, 31) == (0, 2)


def _random_family(rng, p):
    # pairs (m, e) on zeta_{p^2}: every root of order 1, p and p^2
    return [(rng.randint(0, 2), rng.randrange(p * p)) for _ in range(rng.randint(1, 6))]


@pytest.mark.parametrize("p", [3, 5])
def test_lcm_degree_matches_oracle(p):
    rng = random.Random(20240 + p)
    for _ in range(100):
        fam = _random_family(rng, p)
        assert lcm_degree(p, p * p, fam) == lcm_degree_oracle(p, p * p, fam)


@pytest.mark.parametrize("p", [3, 5])
def test_laminar_property(p):
    # any two root sets are nested or disjoint in the complex picture
    rng = random.Random(777 + p)
    for _ in range(60):
        fam = _random_family(rng, p)
        for a, b in itertools.combinations(fam, 2):
            union = lcm_degree_oracle(p, p * p, [a, b])
            assert union in (max(p ** a[0], p ** b[0]), p ** a[0] + p ** b[0])
            assert lcm_degree(p, p * p, [a, b]) == union


@pytest.mark.parametrize("p", [3, 5])
def test_lcm_degree_bounds_and_symmetry(p):
    rng = random.Random(999 + p)
    for _ in range(60):
        fam = _random_family(rng, p)
        deg = lcm_degree(p, p * p, fam)
        assert max(p ** m for m, _ in fam) <= deg <= sum(p ** m for m, _ in fam)
        shuffled = fam[:]
        rng.shuffle(shuffled)
        assert lcm_degree(p, p * p, shuffled + fam) == deg


@pytest.mark.parametrize("p", [3, 5])
def test_all_trivial_zeta_gives_max(p):
    rng = random.Random(31337 + p)
    for _ in range(40):
        ms = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        fam = [(m, 0) for m in ms]
        assert lcm_degree(p, p * p, fam) == p ** max(ms)


# (p, f, H) and a chain of S sets; on (3, 91) the order of an even character
# can carry a factor 3, so its pairs can carry e != 0
DEG_F_CASES = [
    (3, 91, (), [[2, 5], [2, 5, 11, 17], [2, 5, 11, 17, 29, 31, 43, 47]]),
    (5, 7, (2, 11), [[2, 11], [2, 11, 3, 31], [2, 3, 11, 13, 31, 41, 61]]),
    (13, 105, (2,), [[2, 11], [2, 11, 29, 53], [2, 11, 29, 53, 79, 131]]),
]


@pytest.mark.parametrize("p, f, H, chain", DEG_F_CASES, ids=["3-91", "5-7-H2", "13-105-H2"])
def test_rank_deg_f_matches_the_complex_oracle(p, f, H, chain):
    # degF of every even representative against the complex oracle, fed the
    # pairs (m_q, e) of the root-of-unity oracle of sigma_p, q in S_chi
    field = FieldSpec(p, f, H)
    provider = LambdaProvider(table={"all": 0})
    shapes = set()
    for chi in class_representatives(enumerate_characters(field), p):
        if chi.is_odd:
            continue
        pa = p ** split_prime_part(chi.order, p)[0]
        for S in chain:
            rec = rank_chi(chi, S, provider)
            pairs = [(m_index(q, p), sigma_p_value_oracle(chi, q).exponent_for(pa)) for q in rec.m_map]
            assert [annihilator(chi, q) for q in rec.m_map] == pairs
            if not pairs:
                assert rec.deg_f is None
                continue
            assert rec.deg_f == lcm_degree_oracle(p, pa, pairs), (chi.label(), S)
            assert rec.p_chi == chi.d_chi * rec.deg_f
            shapes.add((len(pairs) > 1, any(e for _, e in pairs)))
    assert (True, False) in shapes
    if p == 3:
        assert (True, True) in shapes
