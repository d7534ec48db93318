import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import tamerank.arith as arith
from helpers import log_by_search
from tamerank.arith import (
    PRIME_BOUND,
    _try_dlog_in_cyclic,
    crt,
    factorize,
    is_prime,
    mul_order,
    padic_log,
    smallest_primitive_root,
    split_prime_part,
    teichmuller_residue,
    unit_group,
    v_p,
)
from tamerank.characters import FieldSpec

ODD_PRIMES = [3, 5, 7, 11, 13, 37]


def test_v_p_examples():
    assert v_p(360, 3) == 2
    assert v_p(1, 3) == 0
    assert v_p(14640, 5) == 1


def test_v_p_rejects_zero():
    with pytest.raises(ValueError):
        v_p(0, 3)


@given(
    st.integers(-(10 ** 9), 10 ** 9).filter(bool),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(0, 40),
)
def test_split_prime_part(n, ell, k):
    n *= ell ** k
    v, m = split_prime_part(n, ell)
    assert n == ell ** v * m and m % ell != 0 and v >= k


def test_split_prime_part_at_two():
    # FieldSpec.tame_quotient strips q from f, and q may be 2
    assert split_prime_part(40, 2) == (3, 5)
    assert split_prime_part(-12, 2) == (2, -3)
    assert FieldSpec(3, 40, (11,)).tame_quotient(2) == FieldSpec(3, 5, (1,))
    with pytest.raises(ValueError):
        split_prime_part(0, 2)


def test_v_p_rejects_even_prime():
    with pytest.raises(ValueError):
        v_p(8, 2)


@given(
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9).filter(lambda n: n != 0),
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9).filter(lambda n: n != 0),
    st.sampled_from([3, 5, 7, 13]),
)
def test_v_p_additive(m, n, p):
    assert v_p(m * n, p) == v_p(m, p) + v_p(n, p)


def test_mul_order_examples():
    assert mul_order(7, 9) == 3
    assert mul_order(1, 15) == 1
    assert mul_order(2, 5) == 4


def test_mul_order_rejects_non_units():
    with pytest.raises(ValueError):
        mul_order(6, 9)


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=2, max_value=500))
def test_mul_order_is_minimal(a, M):
    if math.gcd(a, M) != 1:
        return
    e = mul_order(a, M)
    assert pow(a, e, M) == 1
    for d in range(1, e):
        if e % d == 0:
            assert pow(a, d, M) != 1 or d == e


def test_odd_prime_check_runs_once_per_prime(monkeypatch):
    # fields, valuations and tame quotients of one p share one primality
    # test; a failing p is tested, and refused, on every call
    tested = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or real(n))
    arith._check_odd_prime.cache_clear()
    field = FieldSpec(13, 105, (2,))
    field.tame_quotient(7).tame_quotient(3)
    assert v_p(13 ** 3 * 7, 13) == 3 and v_p(26, 13) == 1
    assert tested == [13]
    for _ in range(2):
        with pytest.raises(ValueError):
            FieldSpec(15)
        with pytest.raises(ValueError):
            v_p(45, 15)
    assert tested == [13] + [15] * 4
    arith._check_odd_prime.cache_clear()


def test_is_prime_refuses_what_it_cannot_prove():
    # psi_12 is a strong pseudoprime to every base 2..37
    assert PRIME_BOUND == 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(3215031751)  # psi_4, caught by base 11
    for n in (PRIME_BOUND, PRIME_BOUND + 2):
        with pytest.raises(ValueError):
            is_prime(n)


def test_unit_group_examples():
    ug9 = unit_group(9)
    assert ug9.generators == (2,) and ug9.orders == (6,)
    ug8 = unit_group(8)
    assert ug8.generators == (7, 3) and ug8.orders == (2, 2)
    ug1 = unit_group(1)
    assert ug1.generators == () and ug1.phi == 1


def unit_from_exponents(ug, exponents) -> int:
    """The unit of (Z/M)^x with the given exponent vector on ug's generators."""
    x = 1 % ug.modulus
    for g, e in zip(ug.generators, exponents):
        x = x * pow(g, e, ug.modulus) % ug.modulus
    return x


@pytest.mark.parametrize("M", [1, 8, 9, 15, 24, 40, 56, 105, 296, 1000])
def test_unit_group_roundtrip(M):
    ug = unit_group(M)
    assert ug.phi == len([a for a in range(M) if math.gcd(a, M) == 1]) or M == 1
    rng = random.Random(M)
    units = [a for a in range(1, M) if math.gcd(a, M) == 1] or [0]
    for _ in range(100):
        a = rng.choice(units)
        vec = ug.dlog(a)
        assert unit_from_exponents(ug, vec) == a % M
        for e, n in zip(vec, ug.orders):
            assert 0 <= e < n


# odd p and n <= 12 with p^{n+1} <= 3^13, so that the search oracle tries at
# most 3^12 * 2 powers; 67 and 101 have a prime-order digit above 60, which
# the baby-step giant-step log reads
LOG_PRIMES = [3, 5, 7, 13, 67, 101]
LOG_MODULUS_BOUND = 3 ** 13


@st.composite
def _prime_power_moduli(draw):
    p = draw(st.sampled_from(LOG_PRIMES))
    n = draw(st.integers(0, 12).filter(lambda n: p ** (n + 1) <= LOG_MODULUS_BOUND))
    return p ** (n + 1)


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(_prime_power_moduli(), st.integers(3, 20).map(lambda e: 2 ** e)), st.data())
def test_dlog_matches_the_search_oracle(q, data):
    # B = (Z/p^{n+1})^x on its primitive root, and the 2-part pair (-1, 3):
    # a = (-1)^s 3^y, with s = 1 exactly when a is no power of 3
    a = data.draw(st.integers(1, q - 1).filter(lambda a: math.gcd(a, q) == 1))
    ug = unit_group(q)
    if q % 2:
        [g], [order] = ug.generators, ug.orders
        assert ug.dlog(a) == (log_by_search(a, g, order, q),)
    else:
        y = log_by_search(a, 3, q // 4, q)
        assert ug.dlog(a) == ((0, y) if y is not None else (1, log_by_search(-a, 3, q // 4, q)))


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(_prime_power_moduli(), st.integers(3, 20).map(lambda e: 2 ** e)), st.data())
def test_cyclic_log_gives_none_outside_the_subgroup(q, data):
    # <h> = <g^c> for a divisor c of ord g, and a target g^k, in <h> exactly
    # when c divides k; for q = 2^e, the targets a with a = 5, 7 mod 8 are
    # not in <3>
    if q % 2:
        [g], [phi] = unit_group(q).generators, unit_group(q).orders
        c = data.draw(st.sampled_from([c for c in range(1, phi + 1) if phi % c == 0]))
        h, order = pow(g, c, q), phi // c
        target = pow(g, data.draw(st.integers(0, phi - 1)), q)
    else:
        h, order = 3, q // 4
        target = data.draw(st.integers(1, q - 1).filter(lambda a: a % 2))
    factors = tuple(sorted(factorize(order).items()))
    assert _try_dlog_in_cyclic(target, h, order, q, factors) == log_by_search(target, h, order, q)


def test_smallest_primitive_root():
    assert smallest_primitive_root(9) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3


def test_teichmuller_examples():
    assert teichmuller_residue(2, 5, 2) == 7
    assert teichmuller_residue(1, 7, 5) == 1
    assert teichmuller_residue(13, 3, 2) == 1


def test_teichmuller_rejects_multiples():
    with pytest.raises(ValueError):
        teichmuller_residue(10, 5, 3)


@pytest.mark.parametrize("p", [3, 5, 7, 37])
def test_teichmuller_properties(p):
    N = 6
    for a in range(1, p):
        t = teichmuller_residue(a, p, N)
        assert t % p == a % p
        assert pow(t, p - 1, p ** N) == 1


def test_padic_log_examples():
    assert padic_log(4, 3, 3) == 21
    assert padic_log(1, 5, 4) == 0
    assert padic_log(6, 5, 2) == 5


def test_padic_log_rejects_non_principal():
    with pytest.raises(ValueError):
        padic_log(2, 5, 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_padic_log_is_additive(p):
    N = 8
    mod = p ** N
    rng = random.Random(p)
    for _ in range(25):
        u = 1 + p * rng.randrange(1, p ** (N - 1))
        v = 1 + p * rng.randrange(1, p ** (N - 1))
        lu = padic_log(u, p, N)
        lv = padic_log(v, p, N)
        luv = padic_log(u * v % mod, p, N)
        assert (lu + lv) % mod == luv


@pytest.mark.parametrize("p", [3, 5, 7])
def test_padic_log_valuation_matches_argument(p):
    N = 9
    rng = random.Random(100 + p)
    for _ in range(20):
        s = rng.randint(1, 3)
        unit = rng.randrange(1, p ** (N - s))
        while unit % p == 0:
            unit = rng.randrange(1, p ** (N - s))
        u = 1 + p ** s * unit
        assert v_p(padic_log(u, p, N), p) == s


def test_crt():
    assert crt(2, 7, 1, 3) == 16
    assert crt(0, 1, 4, 9) == 4
    with pytest.raises(ValueError):
        crt(1, 6, 1, 9)
