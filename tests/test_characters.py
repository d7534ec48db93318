import itertools
import math
import random

import pytest

from tamerank.arith import teichmuller_residue, unit_group
from tamerank.characters import (
    FieldSpec,
    RootOfUnity,
    compose,
    conjugacy_classes,
    enumerate_characters,
    omega,
    trivial_character,
)

FIELDS = [
    FieldSpec(3, 1),
    FieldSpec(5, 1),
    FieldSpec(3, 8, (7,)),
    FieldSpec(3, 7),
    FieldSpec(5, 7),
    FieldSpec(5, 8),
    FieldSpec(3, 7, (6,)),
]


def test_root_of_unity_normalization():
    z = RootOfUnity(5, 3)
    assert (z.k, z.order) == (2, 3)
    assert RootOfUnity(4, 8) == RootOfUnity(1, 2)
    assert RootOfUnity(0, 7).is_one


def test_root_of_unity_p_parts():
    z = RootOfUnity(1, 12)
    zp = z.p_power_part(3)
    z0 = z * zp.inverse()  # the prime-to-3 part
    assert zp.order == 3 and z0.order == 4
    assert zp * z0 == z
    assert RootOfUnity(1, 9).order_is_p_power(3)
    assert not RootOfUnity(1, 6).order_is_p_power(3)


def test_enumerate_q_mu5():
    chars = enumerate_characters(FieldSpec(5, 1))
    assert [c.label() for c in chars] == ["eps", "omega^1", "omega^2", "omega^3"]
    assert chars[1] == omega(5)


def test_enumerate_q_mu3():
    chars = enumerate_characters(FieldSpec(3, 1))
    assert [c.label() for c in chars] == ["eps", "omega^1"]


def test_enumerate_sqrt2_field():
    chars = enumerate_characters(FieldSpec(3, 8, (7,)))
    assert len(chars) == 4
    conductors = sorted(c.conductor for c in chars)
    assert conductors == [1, 3, 8, 24]


def test_characters_trivial_on_h():
    field = FieldSpec(3, 8, (7,))
    from tamerank.arith import crt

    h = crt(7, 8, 1, 3)
    for chi in enumerate_characters(field):
        assert chi.value(h).is_one


def test_evaluate_examples():
    chars = enumerate_characters(FieldSpec(3, 8, (7,)))
    chi8 = [c for c in chars if c.conductor == 8][0]
    assert chi8.value(5) == RootOfUnity(1, 2)
    assert chi8.value(2) is None
    w5 = omega(5)
    assert w5.value(2).order == 4


def test_omega_pinning():
    # omega(a) reduces to a mod p under the pinned identification
    for p in (3, 5, 7, 13):
        w = omega(p)
        g = unit_group(p).generators[0]
        assert teichmuller_residue(g, p, 1) == g % p
        for a in range(1, p):
            k = w.value(a).exponent_for(p - 1)
            assert pow(g, k, p) == a % p


def test_omega_parity_and_power():
    for p in (3, 5, 7):
        w = omega(p)
        assert w.is_odd
        assert w.power(p - 1).is_trivial
        assert trivial_character(p).parity == 1


def test_compose_examples():
    w3 = omega(3)
    assert compose(w3, w3, 1, -1).is_trivial
    chi8 = [c for c in enumerate_characters(FieldSpec(3, 8, (7,))) if c.conductor == 8][0]
    prod = compose(chi8, w3, 1, 1)
    assert prod.conductor == 24 and prod.parity == -1 and prod.order == 2
    chi = omega(5).power(2)
    assert compose(trivial_character(5), chi, 0, 1) == chi


@pytest.mark.parametrize("field", FIELDS)
def test_multiplicativity(field):
    chars = enumerate_characters(field)
    M = field.f * field.p
    units = [a for a in range(1, M) if math.gcd(a, M) == 1]
    rng = random.Random(field.p * 1000 + field.f)
    for chi in chars:
        for _ in range(200):
            a, b = rng.choice(units), rng.choice(units)
            va, vb, vab = chi.value(a), chi.value(b), chi.value(a * b)
            if va is None or vb is None:
                assert vab is None
            else:
                assert va * vb == vab


@pytest.mark.parametrize("field", FIELDS + [FieldSpec(3, 64), FieldSpec(5, 48), FieldSpec(7, 45)])
def test_value_exponents_match_value(field):
    # the walk over the generators gives chi(a) at every a mod the
    # conductor, None at the non-units; moduli 1, 4, 2^e and odd composites
    for chi in enumerate_characters(field):
        exponents = chi.value_exponents()
        assert len(exponents) == chi.conductor
        for a, k in enumerate(exponents):
            value = chi.value(a)
            assert k == (None if value is None else value.exponent_for(chi.order)), (chi, a)


@pytest.mark.parametrize("field", FIELDS)
def test_sum_d_chi_over_classes(field):
    chars = enumerate_characters(field)
    classes = conjugacy_classes(chars)
    assert sum(cl[0].d_chi for cl in classes) == field.group_order
    assert sum(len(cl) for cl in classes) == len(chars)
    for cl in classes:
        assert len({(c.d_chi, c.conductor, c.parity) for c in cl}) == 1


def test_conjugacy_examples():
    # values of omega-powers lie in Z_5: four singletons
    classes = conjugacy_classes(enumerate_characters(FieldSpec(5, 1)))
    assert [len(cl) for cl in classes] == [1, 1, 1, 1]
    # p=5: cubic characters of conductor 7 pair up (5 = 2 mod 3)
    chars = enumerate_characters(FieldSpec(5, 7, (6,)))
    cubics = [c for c in chars if c.order == 3]
    assert len(cubics) == 2
    classes = conjugacy_classes(chars)
    sizes = [len(cl) for cl in classes if cl[0].order == 3]
    assert sizes == [2]
    # p=7: cubic characters split into singletons (7 = 1 mod 3)
    chars7 = enumerate_characters(FieldSpec(7, 9))
    classes7 = conjugacy_classes(chars7)
    sizes7 = [len(cl) for cl in classes7 if cl[0].order == 3]
    assert sizes7 and all(s == 1 for s in sizes7)


def test_d_chi_values():
    # order 12 characters over Q_5 have local degree 2
    chars = enumerate_characters(FieldSpec(5, 7))
    twelve = [c for c in chars if c.order == 12]
    assert twelve and all(c.d_chi == 2 for c in twelve)
    # ramified: order 3 over Q_3 has degree phi(3) = 2
    chars3 = enumerate_characters(FieldSpec(3, 7))
    cubic = [c for c in chars3 if c.order == 3]
    assert cubic and all(c.d_chi == 2 for c in cubic)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(9, 1)
    with pytest.raises(ValueError):
        FieldSpec(3, 6)
    with pytest.raises(ValueError):
        FieldSpec(3, 8, (4,))
    fs = FieldSpec(3, 8, (7, 1))
    assert fs.subgroup == (7,)
    assert fs.group_order == 4


def test_serialization_fields():
    chi = omega(5)
    d = chi.to_dict()
    assert d["conductor"] == 5 and d["order"] == 4 and d["parity"] == -1
    assert d["d_chi"] == 1 and d["modulus"] == 5
    assert d["generator_exponents"] == [[1, 4]]


def brute_conductor(value, modulus):
    """Smallest d | modulus with the character `value` trivial on every unit
    u = 1 mod d."""
    for d in range(1, modulus + 1):
        if modulus % d == 0 and all(
            value(u).is_one
            for u in range(1 + d, modulus, d)
            if math.gcd(u, modulus) == 1
        ):
            return d


SUBFIELD_PAIRS = [
    (FieldSpec(5, 7), FieldSpec(5, 21)),
    (FieldSpec(3, 8, (7,)), FieldSpec(3, 8)),
]


@pytest.mark.parametrize("small,big", SUBFIELD_PAIRS)
def test_character_record_is_field_independent(small, big):
    copies = {c.label(): c for c in enumerate_characters(big)}
    M = big.f * big.p
    for chi in enumerate_characters(small):
        twin = copies[chi.label()]
        assert twin == chi and hash(twin) == hash(chi)
        assert twin.to_dict() == chi.to_dict()
        assert all(twin.value(a) == chi.value(a) for a in range(M))


@pytest.mark.parametrize("field", [f for pair in SUBFIELD_PAIRS for f in pair])
def test_conductor_matches_brute_force(field):
    M = field.f * field.p
    for chi in enumerate_characters(field):
        assert brute_conductor(chi.value, M) == chi.conductor


@pytest.mark.parametrize("modulus", [12, 40, 48, 64, 45, 63 * 4])
def test_unit_group_conductor_matches_brute_force(modulus):
    # every exponent vector, including those of imprimitive characters and
    # the 2-part pairs (-1, 3) of 2^3, 2^4 and 2^6
    units = unit_group(modulus)
    top = math.lcm(1, *units.orders)
    for expo in itertools.product(*(range(n) for n in units.orders)):
        weights = [e * (top // n) for e, n in zip(expo, units.orders)]

        def value(a):
            return RootOfUnity(sum(w * x for w, x in zip(weights, units.dlog(a))), top)

        assert units.conductor(expo) == brute_conductor(value, modulus), expo
