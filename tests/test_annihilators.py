import itertools
import random

import pytest

from helpers import lcm_degree_oracle
from tamerank.annihilators import AnnihilatorPoly, annihilator, contains, lcm_degree
from tamerank.characters import FieldSpec, RootOfUnity, enumerate_characters, omega, trivial_character

ONE = RootOfUnity(0, 1)
Z3 = RootOfUnity(1, 3)


def test_contains_examples():
    assert contains(AnnihilatorPoly(3, 0, ONE), AnnihilatorPoly(3, 1, ONE))
    assert not contains(AnnihilatorPoly(3, 0, ONE), AnnihilatorPoly(3, 1, Z3))
    assert contains(AnnihilatorPoly(3, 0, Z3), AnnihilatorPoly(3, 0, Z3))


def test_lcm_degree_examples():
    assert lcm_degree([AnnihilatorPoly(3, 0, ONE), AnnihilatorPoly(3, 1, ONE)]) == 3
    assert lcm_degree([AnnihilatorPoly(3, 0, ONE), AnnihilatorPoly(3, 0, Z3)]) == 2
    assert lcm_degree([AnnihilatorPoly(3, 1, ONE)]) == 3
    assert lcm_degree([AnnihilatorPoly(3, 0, ONE), AnnihilatorPoly(3, 1, Z3)]) == 4


def test_zeta_must_have_p_power_order():
    with pytest.raises(ValueError):
        AnnihilatorPoly(3, 0, RootOfUnity(1, 2))


def annihilator_record(a: AnnihilatorPoly) -> dict:
    return {"m": a.m, "zeta_order": a.zeta.order, "zeta_exponent": a.zeta.exponent_for(a.zeta.order)}


def test_serialization():
    a = AnnihilatorPoly(3, 1, RootOfUnity(2, 3))
    assert annihilator_record(a) == {"m": 1, "zeta_order": 3, "zeta_exponent": 2}
    assert a.degree == 3


def test_annihilator_examples():
    eps = trivial_character(3)
    a = annihilator(eps, 19)
    assert a == AnnihilatorPoly(3, 1, ONE)
    # sigma_0-condition fails: no annihilator is produced
    w5 = omega(5)
    assert annihilator(w5.power(3), 7) is None
    # admissible counterpart with the same (m, zeta)
    assert annihilator(w5, 7) == AnnihilatorPoly(5, 1, ONE)
    # ramified character
    cubic = [c for c in enumerate_characters(FieldSpec(3, 7, (6,))) if c.order == 3][0]
    assert annihilator(cubic, 7) is None


def _random_family(rng, p):
    out = []
    for _ in range(rng.randint(1, 6)):
        m = rng.randint(0, 2)
        a = rng.randint(0, 2)
        order = p ** a
        k = rng.randrange(order)
        out.append(AnnihilatorPoly(p, m, RootOfUnity(k, order)))
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_lcm_degree_matches_oracle(p):
    rng = random.Random(20240 + p)
    for _ in range(100):
        fam = _random_family(rng, p)
        assert lcm_degree(fam) == lcm_degree_oracle(fam)


@pytest.mark.parametrize("p", [3, 5])
def test_laminar_property(p):
    # any two root sets are nested or disjoint in the complex picture
    rng = random.Random(777 + p)
    for _ in range(60):
        fam = _random_family(rng, p)
        for a, b in itertools.combinations(fam, 2):
            nested = contains(a, b) or contains(b, a)
            union = lcm_degree_oracle([a, b])
            disjoint = union == a.degree + b.degree
            assert nested or disjoint


@pytest.mark.parametrize("p", [3, 5])
def test_lcm_degree_bounds_and_symmetry(p):
    rng = random.Random(999 + p)
    for _ in range(60):
        fam = _random_family(rng, p)
        deg = lcm_degree(fam)
        assert max(a.degree for a in fam) <= deg <= sum(a.degree for a in fam)
        shuffled = fam[:]
        rng.shuffle(shuffled)
        assert lcm_degree(shuffled + fam) == deg


@pytest.mark.parametrize("p", [3, 5])
def test_all_trivial_zeta_gives_max(p):
    rng = random.Random(31337 + p)
    for _ in range(40):
        ms = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        fam = [AnnihilatorPoly(p, m, ONE) for m in ms]
        assert lcm_degree(fam) == p ** max(ms)
