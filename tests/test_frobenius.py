import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FrobeniusProfile,
    gamma_unit_by_search,
    is_one,
    p_power_part,
    rational_prime_count,
    root_power,
    sigma0_ok_oracle,
    sigma_p_value_oracle,
    stabilization_level_by_search,
    trivial_character,
)
from tamerank import arith, frobenius, rank
from tamerank.arith import factorize, is_prime, v_p
from tamerank.characters import (
    FieldSpec,
    RootOfUnity,
    enumerate_characters,
    class_representatives,
    field_characters,
    omega,
)
from tamerank.errors import InvariantViolationError
from tamerank.frobenius import (
    inertia_trivial,
    m_index,
    sigma0_ok,
    sigma_p_value,
    splitting_count,
    stabilization_level,
)
from tamerank.rank import LambdaProvider, rank_total


def test_m_index_examples():
    assert m_index(19, 3) == 1
    assert m_index(7, 3) == 0
    assert m_index(163, 3) == 3
    assert m_index(7, 5) == 1


def test_m_index_doubles_its_precision_until_the_residue_moves():
    # 2^(p-1) = 1 mod p^2 at the Wieferich primes 1093 and 3511, and
    # 39367 = 1 + 2 3^9, so the residue mod p^2 reads 1 and K doubles:
    # once to p^4 at the Wieferich pairs, three times to 3^16 for 39367
    for q, p, m in [(2, 1093, 1), (2, 3511, 1), (39367, 3, 8)]:
        assert pow(q, p - 1, p * p) == 1
        assert m_index(q, p) == v_p(pow(q, p - 1) - 1, p) - 1 == m, (q, p)


def test_m_index_rejects_q_equal_p():
    with pytest.raises(ValueError):
        m_index(3, 3)


def test_inertia_trivial():
    chars = enumerate_characters(FieldSpec(3, 8, (7,)))
    chi8 = [c for c in chars if c.conductor == 8][0]
    assert inertia_trivial(chi8, 7)
    assert not inertia_trivial(chi8, 2)
    cubic = [c for c in enumerate_characters(FieldSpec(3, 7, (6,))) if c.order == 3][0]
    assert not inertia_trivial(cubic, 7)


def test_sigma0_for_trivial_character():
    eps = trivial_character(3)
    for q in (5, 7, 11, 13, 19, 31):
        assert sigma0_ok(eps, q) == (q % 3 == 1)


def test_sigma0_quadratic_over_3():
    chi8 = [c for c in enumerate_characters(FieldSpec(3, 8, (7,))) if c.conductor == 8][0]
    assert sigma0_ok(chi8, 5)
    assert not sigma0_ok(chi8, 13)


def test_sigma_p_trivial_sylow():
    # K = Q(mu_p): the p-Sylow subgroup of G is trivial
    assert sigma_p_value(omega(5), 7) == 0
    assert sigma_p_value(omega(5).power(3), 11) == 0


def cubic_character():
    chars = enumerate_characters(FieldSpec(3, 7, (6,)))
    for c in chars:
        if c.order == 3 and c.value(3) is not None and c.value(3).exponent_for(3) == 1:
            return c
    raise AssertionError("cubic character not found")


def test_sigma_p_cubic_field():
    chi = cubic_character()
    # 13 = -1 mod 7 lies in H: q splits in the cubic field, sigma_p trivial
    assert sigma_p_value(chi, 13) == 0
    # 31 = 3 mod 7 generates the quotient; u = 1 mod 3, so the value is
    # chi^{-1}(3) = zeta_3^2
    assert sigma_p_value(chi, 31) == 2


@pytest.mark.parametrize(
    "p, f, H, a_values",
    [(3, 7, (6,), {1}), (3, 19, (), {1, 2}), (5, 11, (), {1}), (7, 29, (), {1})],
    ids=["3-7-H6", "3-19", "5-11", "7-29"],
)
def test_sigma_p_matches_unit_search(p, f, H, a_values):
    # chi^{-1}(sigma_p) = z_p^{u^{-1}} on every character and prime q < 400,
    # with u found by exhaustive search rather than from p-adic logarithms,
    # read as an exponent on zeta_{p^a}, p^a the p-part of ord chi
    primes = [q for q in range(2, 400) if is_prime(q) and q != p]
    seen, asymmetric = set(), 0
    for chi in enumerate_characters(FieldSpec(p, f, H)):
        pa = p ** v_p(chi.order, p)
        for q in primes:
            if not inertia_trivial(chi, q):
                continue
            zp = p_power_part(root_power(chi.value(q), -1), p)
            if is_one(zp):
                assert sigma_p_value(chi, q) == 0
                continue
            a = v_p(zp.order, p)
            u = gamma_unit_by_search(p, q, a)
            u_inv = pow(u, -1, p ** a)
            assert sigma_p_value(chi, q) == root_power(zp, u_inv).exponent_for(pa), (chi.label(), q)
            seen.add((a, m_index(q, p)))
            asymmetric += u != u_inv
    assert {a for a, _ in seen} == a_values
    assert {0, 1, 2} <= {m for _, m in seen}
    # mod 3 every unit is its own inverse; elsewhere u != u^{-1} must occur
    assert (asymmetric > 0) == (p ** max(a_values) > 3)


def _outcome(fn, chi, q):
    try:
        return fn(chi, q)
    except (ValueError, InvariantViolationError) as exc:
        return type(exc)


def _sigma_p_exponent_oracle(chi, q):
    """The root-of-unity oracle's value, read as an exponent on zeta_{p^a},
    p^a the p-part of ord chi."""
    return sigma_p_value_oracle(chi, q).exponent_for(chi.p ** v_p(chi.order, chi.p))


@st.composite
def _fields_and_primes(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    f = draw(st.integers(min_value=1, max_value=120).filter(lambda f: math.gcd(f, p) == 1))
    units = [h for h in range(1, f) if math.gcd(h, f) == 1] or [0]
    H = tuple(draw(st.lists(st.sampled_from(units), max_size=2)))
    # primes q != p at random, p itself, and primes dividing f (ramified or not)
    qs = draw(st.lists(st.sampled_from([q for q in range(2, 200) if is_prime(q)]), min_size=1, max_size=4))
    if f > 1:
        qs += draw(st.lists(st.sampled_from(sorted(factorize(f))), max_size=2))
    return FieldSpec(p, f, H), qs


@settings(max_examples=120, deadline=None, database=None)
@given(_fields_and_primes())
def test_integer_sigma_path_matches_the_root_of_unity_oracles(drawn):
    field, qs = drawn
    for chi in class_representatives(enumerate_characters(field), field.p):
        for q in qs:
            assert _outcome(sigma0_ok, chi, q) == _outcome(sigma0_ok_oracle, chi, q), (chi, q)
            assert _outcome(sigma_p_value, chi, q) == _outcome(_sigma_p_exponent_oracle, chi, q), (chi, q)


def test_rank_chain_evaluates_sigma0_in_integers(monkeypatch):
    # a chain of S sets on each field: the rank jobs, enumeration included,
    # build no RootOfUnity, and each (modulus, q mod modulus) is solved by
    # one discrete log.  On (3, 91) records have two or more q in S_chi and
    # annihilators (m_q, e) with e != 0
    chains = {
        FieldSpec(13, 105, (2,)): [[2], [2, 11], [2, 11, 29], [2, 11, 29, 53], [2, 11, 29, 53, 79, 131]],
        FieldSpec(3, 91): [[2, 5], [2, 5, 11, 17], [2, 5, 11, 17, 29, 31, 43, 47]],
    }
    calls, roots, solved, annihilators = [], [], [], []

    init = RootOfUnity.__init__
    def counted_root(self, k, order):
        roots.append((k, order))
        init(self, k, order)

    sigma0 = frobenius.sigma0_ok
    def counted_sigma0(chi, q):
        calls.append((chi, q))
        return sigma0(chi, q)

    lcm_degree = rank.lcm_degree
    def recorded_lcm_degree(p, pa, pairs):
        annihilators.append(pairs)
        return lcm_degree(p, pa, pairs)

    dlog = arith.UnitGroupStructure.dlog
    def counted_dlog(self, a):
        solved.append((self.modulus, a))
        return dlog(self, a)

    monkeypatch.setattr(RootOfUnity, "__init__", counted_root)
    monkeypatch.setattr(frobenius, "sigma0_ok", counted_sigma0)
    monkeypatch.setattr(rank, "lcm_degree", recorded_lcm_degree)
    monkeypatch.setattr(arith.UnitGroupStructure, "dlog", counted_dlog)
    field_characters.cache_clear()
    arith.unit_dlog.cache_clear()
    for field, chain in chains.items():
        field_characters(field)
        solved.clear()
        for S in chain:
            rank_total(field, S, LambdaProvider(table={"all": 0}))
        assert solved and len(solved) == len(set(solved))
    field_characters.cache_clear()
    assert len(calls) == len(set(calls)) > 100
    assert any(len(pairs) > 1 and any(e for _, e in pairs) for pairs in annihilators)
    assert roots == []
    RootOfUnity(1, 3)
    assert roots == [(1, 3)]  # the count is live


def test_splitting_count_examples():
    assert splitting_count(FieldSpec(3, 1), 7, 1) == (3, 2, 2)
    assert splitting_count(FieldSpec(3, 1), 19, 2) == (3, 6, 3)
    assert splitting_count(FieldSpec(3, 7), 7, 0) == (1, 2, 1)


def test_rational_prime_count_remark():
    # p^{m_q} equals the prime count above q at level m_q + 1
    for p, q, expected in [(3, 7, 1), (3, 19, 3), (3, 163, 27), (5, 7, 5)]:
        m = m_index(q, p)
        assert rational_prime_count(p, q, m + 1) == expected
        assert expected == p ** m


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rational_count_grid(p):
    # stabilized counts match p^{m_q} on a grid of primes
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        if q == p:
            continue
        m = m_index(q, p)
        for n in range(m + 1, m + 3):
            assert rational_prime_count(p, q, n) == p ** m


FIELDS = [FieldSpec(3, 1), FieldSpec(5, 1), FieldSpec(3, 8, (7,)), FieldSpec(5, 7), FieldSpec(3, 7)]


@pytest.mark.parametrize("field", FIELDS)
def test_admissible_classes_account_for_all_primes(field):
    # sum of d_chi p^{m_q} over admissible classes equals the stabilized
    # number of primes above q
    chars = enumerate_characters(field)
    reps = class_representatives(chars, field.p)
    for q in (2, 3, 5, 7, 11, 13):
        if q == field.p:
            continue
        n0 = stabilization_level(field, q)
        r = splitting_count(field, q, n0).prime_count
        total = sum(
            chi.d_chi * field.p ** m_index(q, field.p)
            for chi in reps
            if inertia_trivial(chi, q) and sigma0_ok(chi, q)
        )
        assert total == r


def test_stabilization_level_examples():
    assert stabilization_level(FieldSpec(3, 1), 7) == 0
    assert stabilization_level(FieldSpec(5, 1), 7) == 1
    # ramified prime: the quotient tower stabilizes late for q = 7, p = 5
    assert stabilization_level(FieldSpec(5, 7), 7) == 1


# f with tame quotients whose orders carry a p-part: 7 and 19 for p = 3, 11
# for p = 5, 29 for p = 7, 23 for p = 11, 53 for p = 13
STABILIZATION_GRID = [
    (3, 1, ()), (3, 7, ()), (3, 19, ()), (3, 19, (7,)), (3, 56, (13,)),
    (5, 1, ()), (5, 11, ()), (5, 21, (2,)), (7, 29, ()), (7, 29, (28,)),
    (11, 23, ()), (13, 53, ()),
]


def test_stabilization_level_matches_the_search():
    # the formula m_q + v_p(e) against the level-by-level residue degrees,
    # on every prime q < 400, q != p, of every grid field, ramified q included
    seen = set()
    for p, f, H in STABILIZATION_GRID:
        field = FieldSpec(p, f, H)
        for q in range(2, 400):
            if not is_prime(q) or q == p:
                continue
            level = stabilization_level(field, q)
            assert level == stabilization_level_by_search(field, q), (p, f, H, q)
            seen.add((level > m_index(q, p), m_index(q, p) > 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    # m_q = 16: the formula gives 16, past the search's bound
    field = FieldSpec(3, 1)
    assert stabilization_level_by_search(field, 258280327) is None
    assert stabilization_level(field, 258280327) == 16


def test_frobenius_profile_serialization():
    field = FieldSpec(5, 1)
    chars = enumerate_characters(field)
    prof = FrobeniusProfile.build(field, 7, chars)
    d = prof.to_dict()
    assert d["q"] == 7 and d["m_q"] == 1 and d["ramified"] is False
    assert d["per_chi"]["omega^1"]["sigma0_ok"] is True
    assert d["per_chi"]["omega^1"]["sigma_p_exponent"] == [0, 1]
    assert d["per_chi"]["omega^3"]["sigma0_ok"] is False
    assert "sigma_p_exponent" not in d["per_chi"]["omega^3"]
