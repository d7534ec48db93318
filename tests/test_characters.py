import itertools
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    compose_oracle,
    conjugacy_classes_by_power,
    enumerate_characters_oracle,
    is_one,
    p_power_part,
    primitive_oracle,
    root_power,
    root_times,
)
from tamerank import characters
from tamerank.arith import UnitGroupStructure, teichmuller_residue, unit_group
from tamerank.characters import (
    DirichletCharacter,
    FieldSpec,
    RootOfUnity,
    compose,
    conjugacy_classes,
    enumerate_characters,
    field_characters,
    omega,
    trivial_character,
)
from tamerank.errors import InvariantViolationError

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
    assert is_one(RootOfUnity(0, 7))


def test_root_of_unity_p_parts():
    z = RootOfUnity(1, 12)
    zp = p_power_part(z, 3)
    z0 = root_times(z, root_power(zp, -1))  # the prime-to-3 part
    assert zp.order == 3 and z0.order == 4
    assert root_times(zp, z0) == z
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
        assert is_one(chi.value(h))


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
                assert root_times(va, vb) == vab


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


# each field with the kinds of its classes of size > 1: True where p divides
# the order (d_chi > 1 from the p-part), False where the order is prime to p
# and p has order > 1 modulo it.  Every class of (13, 105; H = <2>) is a
# singleton: every order divides 12, and 13 = 1 mod 12.
ORBIT_FIELDS = [
    (FieldSpec(5, 7), {False}),
    (FieldSpec(5, 72), {False}),
    (FieldSpec(13, 105, (2,)), set()),
    (FieldSpec(5, 11), {True}),
    (FieldSpec(3, 7), {True}),
    (FieldSpec(7, 29), {True, False}),
]


def assert_classes_match_power_orbits(field):
    """conjugacy_classes and the chi.power(t) oracle give the same classes:
    the same objects of `chars` in the same order, so the same
    representatives.  Returns the classes."""
    chars = enumerate_characters(field)
    position = {id(c): i for i, c in enumerate(chars)}
    classes = conjugacy_classes(chars)
    found = [[position[id(m)] for m in cl] for cl in classes]
    assert found == [[position[id(m)] for m in cl] for cl in conjugacy_classes_by_power(chars)]
    return classes


@pytest.mark.parametrize("field,kinds", ORBIT_FIELDS)
def test_classes_match_power_orbits(field, kinds):
    classes = assert_classes_match_power_orbits(field)
    assert {cl[0].order % field.p == 0 for cl in classes if len(cl) > 1} == kinds


@st.composite
def _fields(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    f = draw(st.integers(min_value=1, max_value=60).filter(lambda f: math.gcd(f, p) == 1))
    units = [h for h in range(1, f) if math.gcd(h, f) == 1] or [0]
    return FieldSpec(p, f, tuple(draw(st.lists(st.sampled_from(units), max_size=2))))


@settings(max_examples=40, deadline=None, database=None)
@given(_fields())
def test_classes_match_power_orbits_on_drawn_fields(field):
    assert_classes_match_power_orbits(field)


@st.composite
def _compositions(draw):
    """(chi, psi, e1, e2) with chi and psi drawn from the dual of a drawn field."""
    chars = enumerate_characters(draw(_fields()))
    exponent = st.integers(min_value=-30, max_value=30)
    return draw(st.sampled_from(chars)), draw(st.sampled_from(chars)), draw(exponent), draw(exponent)


@settings(max_examples=80, deadline=None, database=None)
@given(_compositions())
def test_compose_matches_the_root_of_unity_oracle(case):
    # the integer exponents k n / ord give the character the RootOfUnity
    # products give, and compose builds no RootOfUnity
    chi, psi, e1, e2 = case
    built = []
    init = characters.RootOfUnity.__init__

    def counted(self, k, order):
        init(self, k, order)
        built.append(self)

    characters.RootOfUnity.__init__ = counted
    try:
        got = compose(chi, psi, e1, e2)
    finally:
        characters.RootOfUnity.__init__ = init
    assert built == []
    assert got == compose_oracle(chi, psi, e1, e2)


def test_classifying_builds_no_character(monkeypatch):
    # enumeration builds one dual per block of (Z/fp)^x and assembles |G|
    # characters, none through the validating constructor; classification
    # builds no character, and the t-set cache misses once per distinct
    # (order, p)
    built, assembled, duals = [], [], []
    init = DirichletCharacter.__init__
    assemble = characters._assembled

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_assembled(p, entries):
        assembled.append(entries)
        return assemble(p, entries)

    def counted(dual):
        def wrapper(*args):
            duals.append(args[0])
            return dual(*args)
        return wrapper

    monkeypatch.setattr(DirichletCharacter, "__init__", counted_init)
    monkeypatch.setattr(characters, "_assembled", counted_assembled)
    monkeypatch.setattr(characters, "_cyclic_dual", counted(characters._cyclic_dual))
    monkeypatch.setattr(characters, "_two_dual", counted(characters._two_dual))
    tsets = lru_cache(maxsize=None)(characters._conjugating_exponents.__wrapped__)
    monkeypatch.setattr(characters, "_conjugating_exponents", tsets)
    pairs = set()
    for field, _ in ORBIT_FIELDS:
        chars = enumerate_characters(field)
        assert duals == [block[1] for block in unit_group(field.f * field.p).blocks]
        assert len(assembled) == field.group_order and built == []
        duals.clear()
        assembled.clear()
        conjugacy_classes(chars)
        assert built == [] and assembled == [] and duals == []
        pairs |= {(c.order, c.p) for c in chars}
        assert tsets.cache_info().misses == len(pairs)


def test_enumeration_reads_each_conductor_once(monkeypatch):
    # the conductor is read once per entry of each block's dual, on the
    # entry's own conductor group, and never per assembled character
    calls = []
    conductor = UnitGroupStructure.conductor

    def counted(self, exponents):
        calls.append(self.modulus)
        return conductor(self, exponents)

    monkeypatch.setattr(UnitGroupStructure, "conductor", counted)
    for field, blocks, reads in [
        # one cyclic block of 1030 entries
        (FieldSpec(1031, 1), [1030], 1030),
        # blocks 9, 5 and 7 of 6 + 4 + 6 entries for 6 * 4 * 6 characters
        (FieldSpec(5, 63), [6, 4, 6], 16),
        # blocks 16 and 3: an entry of the pair (-1, 3) mod 16 reads its
        # conductor on (Z/16)^x, then checks it on its own conductor's group
        (FieldSpec(3, 16), [8, 2], 2 * 8 + 2),
    ]:
        calls.clear()
        chars = enumerate_characters(field)
        assert len(chars) == field.group_order and len(calls) == reads
        assert [len(dual) for _, dual in characters._block_duals(unit_group(field.f * field.p))] == blocks


def test_direct_construction_checks_primitivity_and_powers_reuse_the_duals(monkeypatch):
    calls = []
    conductor = UnitGroupStructure.conductor

    def counted(self, exponents):
        calls.append(self.modulus)
        return conductor(self, exponents)

    monkeypatch.setattr(UnitGroupStructure, "conductor", counted)
    monkeypatch.setattr(characters, "_latest_block_duals", lru_cache(maxsize=1)(characters._block_duals))
    units = unit_group(35)
    imprimitive = (0, 1)  # trivial on the 5-part: conductor 7
    assert conductor(units, imprimitive) == 7
    with pytest.raises(ValueError, match="primitive"):
        DirichletCharacter(5, 35, imprimitive)
    calls.clear()
    chi = DirichletCharacter(5, 35, (1, 1))
    assert calls == [35]
    # the first power builds the duals of the blocks 5 and 7 of (Z/35)^x,
    # each entry reading its conductor once; later powers read none
    calls.clear()
    lifted = chi.power(4)
    assert lifted.modulus == 7 and sorted(calls) == [1] * 2 + [5] * 3 + [7] * 5
    calls.clear()
    assert chi.power(6).modulus == 5 and chi.inverse().modulus == 35 and calls == []


def test_cyclic_dual_lifts_through_the_blocks_generator(monkeypatch):
    # with 8 in place of 2 as the generator of (Z/25)^x, the generator 2 of
    # (Z/5)^x is 8^7, so the lift log d = 7 is not 1 mod 4 and the exponent
    # on (Z/5)^x is (e / 5) * 7; every entry agrees with chi(8) = zeta_20^e
    real = unit_group
    eight = UnitGroupStructure(25, (8,), (20,), (("cyclic", 25, 8, 20, ((2, 2), (5, 1))),))
    monkeypatch.setattr(characters, "unit_group", lambda m: eight if m == 25 else real(m))
    for e, (c, local, order, parity) in enumerate(characters._cyclic_dual(25, 20)):
        assert order == 20 // math.gcd(e, 20) and parity == (-1) ** e
        cond = characters.unit_group(c)
        for h, n, k in zip(cond.generators, cond.orders, local):
            # chi(h) = zeta_20^(e x) with h = 8^x, and zeta_n^k = zeta_20^(k 20 / n)
            assert e * eight.dlog(h)[0] % 20 == k * (20 // n) % 20, (e, h)
        assert c == (1 if e == 0 else 5 if e % 5 == 0 else 25)


def assert_same_character(chi, want):
    assert chi == want and hash(chi) == hash(want)
    assert (chi.p, chi.modulus, chi.exponents, chi.order, chi.parity, chi.d_chi) == (
        want.p, want.modulus, want.exponents, want.order, want.parity, want.d_chi)
    assert chi.units is want.units and chi.weights == want.weights
    assert chi.label() == want.label() and chi.to_dict() == want.to_dict()


@st.composite
def _block_fields(draw):
    """Fields whose conductors have 2-parts 4, 8 and 16 or square factors,
    among others."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    special = st.sampled_from([4, 8, 16, 24, 40, 48, 9, 25, 49, 63, 36, 45, 72, 80])
    f = draw(st.one_of(special, st.integers(min_value=1, max_value=60))
             .filter(lambda f: math.gcd(f, p) == 1))
    units = [h for h in range(1, f) if math.gcd(h, f) == 1] or [0]
    return FieldSpec(p, f, tuple(draw(st.lists(st.sampled_from(units), max_size=2))))


@settings(max_examples=60, deadline=None, database=None)
@given(_block_fields(), st.integers(min_value=-40, max_value=40), st.randoms(use_true_random=False))
def test_assembled_characters_match_the_one_at_a_time_oracle(field, t, rng):
    # the characters assembled from block entries are those the one-at-a-time
    # lift path builds through the validating constructor, in the same
    # order; so are their powers, inverses and products
    chars = enumerate_characters(field)
    expected = enumerate_characters_oracle(field)
    assert len(chars) == len(expected) == field.group_order
    for chi, want in zip(chars, expected):
        assert_same_character(chi, want)
    for chi in rng.sample(chars, min(len(chars), 40)):
        for power, s in ((chi.power(t), t), (chi.inverse(), -1)):
            assert_same_character(power, primitive_oracle(chi.p, chi.units, tuple(e * s for e in chi.exponents)))
        psi = rng.choice(chars)
        assert_same_character(compose(chi, psi, t, 1), compose_oracle(chi, psi, t, 1))


def test_class_partition_checks_raise(monkeypatch):
    chars = enumerate_characters(FieldSpec(5, 7))
    cubic = next(c for c in chars if c.order == 3)
    with pytest.raises(InvariantViolationError, match="escaped the dual group"):
        conjugacy_classes([c for c in chars if c is not cubic])
    cubic.parity = -1
    with pytest.raises(InvariantViolationError, match="disagree on cached data"):
        conjugacy_classes(chars)
    cubic.parity = 1
    tsets = characters._conjugating_exponents
    monkeypatch.setattr(characters, "_conjugating_exponents", lambda order, p: (1,))
    with pytest.raises(InvariantViolationError, match="size != d_chi"):
        conjugacy_classes(chars)
    # 19 has order 2 mod 5: a t-set (1, 2) in place of (1, 4) has the right
    # size, but the orbits it makes overlap
    monkeypatch.setattr(characters, "_conjugating_exponents",
                        lambda order, p: (1, 2) if order == 5 else tsets(order, p))
    with pytest.raises(InvariantViolationError, match="do not sum to"):
        conjugacy_classes(enumerate_characters(FieldSpec(19, 11)))
    field = FieldSpec(5, 7)
    object.__setattr__(field, "group_order", field.group_order + 1)
    with pytest.raises(InvariantViolationError, match="expected 25"):
        enumerate_characters(field)


def test_equal_characters_hash_equal_by_every_route():
    def twin(chars, chi):
        return next(c for c in chars if c.label() == chi.label())

    w3 = DirichletCharacter(5, 5, (3,))
    chi35 = next(c for c in enumerate_characters(FieldSpec(5, 7)) if c.conductor == 35)
    for chi, routes in [
        (w3, [omega(5).power(3), omega(5).power(7), omega(5).inverse()]),
        (chi35, [DirichletCharacter(5, 35, chi35.exponents)]),
    ]:
        routes += [chi.inverse().inverse(), twin(field_characters(FieldSpec(5, 7))[0], chi),
                   twin(field_characters(FieldSpec(5, 21))[0], chi)]
        assert all(r == chi and hash(r) == hash(chi) for r in routes)
        assert len({chi, *routes}) == 1
    # the same modulus and exponents under another p is another character
    chi3, chi5 = DirichletCharacter(3, 7, (2,)), DirichletCharacter(5, 7, (2,))
    assert chi3 != chi5 and len({chi3, chi5, DirichletCharacter(3, 7, (2,))}) == 2


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
            is_one(value(u))
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
