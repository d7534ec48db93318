import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import tamerank.arith as arith
from helpers import log_by_search, smallest_primitive_root_by_phi, tame_quotient
from tamerank.arith import (
    PRIME_BOUND,
    UnitGroupStructure,
    _log_of_order,
    crt,
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
from tamerank.errors import InvariantViolationError

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
    # the tame quotient strips q from f, and q may be 2
    assert split_prime_part(40, 2) == (3, 5)
    assert split_prime_part(-12, 2) == (2, -3)
    assert tame_quotient(FieldSpec(3, 40, (11,)), 2) == FieldSpec(3, 5, (1,))
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
    tame_quotient(tame_quotient(field, 7), 3)
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


def test_is_prime_matches_trial_division():
    # every n below 2 * 10^5, against a sieve of Eratosthenes: n < 2047 is
    # tested to base 2 alone, and the rest to bases 2 and 3
    bound = 2 * 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 2)
    for d in range(2, math.isqrt(bound) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, bound, d)))
    assert [n for n in range(bound) if is_prime(n)] == [n for n in range(bound) if sieve[n]]


# psi_t, the least strong pseudoprime to the first t prime bases, t = 1 .. 11
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
       3825123056546413051)


def strong_probable_prime(n: int, b: int) -> bool:
    """Whether odd n > b passes the strong test to base b."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(b, d, n)
    return x == 1 or any(pow(x, 2 ** i, n) == n - 1 for i in range(r))


@pytest.mark.parametrize("t", range(1, 12))
def test_is_prime_takes_one_more_base_from_psi_t(t):
    # psi_t passes the first t bases, and a later base proves it composite:
    # is_prime refuses it only if it tests psi_t to more than t bases, which
    # pins each bound of the base selection
    psi, bases = PSI[t - 1], (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert all(strong_probable_prime(psi, b) for b in bases[:t])
    assert not all(strong_probable_prime(psi, b) for b in bases[t:])
    assert not is_prime(psi)
    assert arith._MR_BOUNDS == PSI + (PRIME_BOUND,)


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
    # not in <3>.  Orders up to 60 take the brute-force log, larger ones
    # baby-step giant-step
    if q % 2:
        [g], [phi] = unit_group(q).generators, unit_group(q).orders
        c = data.draw(st.sampled_from([c for c in range(1, phi + 1) if phi % c == 0]))
        h, order = pow(g, c, q), phi // c
        target = pow(g, data.draw(st.integers(0, phi - 1)), q)
    else:
        h, order = 3, q // 4
        target = data.draw(st.integers(1, q - 1).filter(lambda a: a % 2))
    assert _log_of_order(target, h, order, q) == log_by_search(target, h, order, q)


# the blocks ell^e, e >= 2, that the exactness test joins; 13^(n+1) up to
# n = 400 stands apart, far past what the search oracle reaches
WILD_BLOCKS = {3: 12, 5: 9, 7: 7, 13: 6, 101: 3}


@st.composite
def _composite_moduli(draw):
    q = draw(st.sampled_from([1, 2, 4, 8]) | st.integers(3, 20).map(lambda e: 2 ** e))
    for ell in draw(st.lists(st.sampled_from(sorted(WILD_BLOCKS)), max_size=3, unique=True)):
        q *= ell ** draw(st.integers(2, WILD_BLOCKS[ell]))
    return q


@settings(max_examples=60, deadline=None, database=None)
@given(_composite_moduli() | st.integers(0, 400).map(lambda n: 13 ** (n + 1)), st.data())
def test_dlog_is_exact_on_every_block(M, data):
    # for x drawn in [0, n_1) x ... x [0, n_k), a = prod g_i^(x_i) has log x:
    # the tame and the ell-adic part of an ell^e block, the whole order of
    # (Z/4)^x and the 2-part pair (-1, 3) all read it back
    ug = unit_group(M)
    x = tuple(data.draw(st.integers(0, n - 1)) for n in ug.orders)
    assert ug.dlog(unit_from_exponents(ug, x)) == x


def test_dlog_refuses_a_wrong_wild_inverse():
    # W(2) = log_5(2^4) / 5 = 3 mod 5 on (Z/25)^x, so w = 2; with another w
    # the log of every a with W(a) != 0 fails its check and raises, and the
    # a with W(a) = 0, the Teichmueller lifts, keep their logs
    assert unit_group(25).blocks == (("cyclic", 25, 2, 20, 2),)
    units = [a for a in range(1, 25) if a % 5]
    for w in (1, 3, 4):
        ug = UnitGroupStructure(25, (2,), (20,), (("cyclic", 25, 2, 20, w),))
        for a in units:
            if pow(a, 4, 25) == 1:
                assert ug.dlog(a) == unit_group(25).dlog(a)
            else:
                with pytest.raises(InvariantViolationError):
                    ug.dlog(a)
    # likewise on 13^6, for the generator itself
    ug = unit_group(13 ** 6)
    kind, q, g, n, w = ug.blocks[0]
    wrong = UnitGroupStructure(q, ug.generators, ug.orders, ((kind, q, g, n, w + 1),))
    with pytest.raises(InvariantViolationError):
        wrong.dlog(g)


def test_dlog_raises_where_the_tame_log_finds_none():
    # 2 has order 3 mod 7, so -1 has no log to base 2, and a stored block
    # that takes 2 for a generator fails as the structure is built; on
    # 101, g^2 generates only the squares, and the baby-step giant-step log
    # finds none for g
    with pytest.raises(InvariantViolationError):
        UnitGroupStructure(7, (2,), (6,), (("cyclic", 7, 2, 6, None),))
    g = unit_group(101).generators[0]
    squares = UnitGroupStructure(101, (g * g,), (100,), (("cyclic", 101, g * g, 100, None),))
    with pytest.raises(InvariantViolationError):
        squares.dlog(g)


def test_smallest_primitive_root():
    assert smallest_primitive_root(9) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    # 5 generates F_40487^x, but 5^40486 = 1 mod 40487^2: the least root mod
    # every higher power of 40487 is 10
    assert smallest_primitive_root(40487) == 5
    assert smallest_primitive_root(40487 ** 2) == 10
    assert smallest_primitive_root(40487 ** 3) == 10


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from([ell for ell in range(3, 400) if is_prime(ell)]), st.integers(1, 4))
def test_smallest_primitive_root_matches_its_definition(ell, e):
    # the root is chosen mod ell and ell^2 alone; the oracle tests
    # g^(phi/r) mod ell^e for every prime r dividing phi = phi(ell^e)
    assert smallest_primitive_root(ell ** e) == smallest_primitive_root_by_phi(ell ** e)


def test_teichmuller_examples():
    assert teichmuller_residue(2, 5, 2) == 7
    assert teichmuller_residue(1, 7, 5) == 1
    assert teichmuller_residue(13, 3, 2) == 1
    assert teichmuller_residue(-1, 7, 3) == 7 ** 3 - 1


def test_teichmuller_rejects_multiples():
    with pytest.raises(ValueError):
        teichmuller_residue(10, 5, 3)


def test_teichmuller_needs_a_digit():
    for N in (0, -1):
        with pytest.raises(ValueError):
            teichmuller_residue(2, 5, N)


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from([3, 5, 7, 13, 101]), st.integers(1, 200), st.integers(-(10 ** 9), 10 ** 9))
def test_teichmuller_is_the_root_of_unity_above_a(p, N, a):
    # the unique (p - 1)-th root of unity mod p^N that is a mod p, for a of
    # either sign
    if a % p == 0:
        a += 1
    mod = p ** N
    t = teichmuller_residue(a, p, N)
    assert 0 <= t < mod and t % p == a % p and pow(t, p - 1, mod) == 1


def test_teichmuller_refuses_a_power_that_is_not_fixed(monkeypatch):
    # a lift x that x -> x^p does not fix raises: here every power is
    # taken one digit short, so a^(p^(N-1)) is only a's lift mod p^(N-1)
    real = pow

    def short(base, exp, mod=None):
        return real(base, exp // 5, mod) if exp == 5 ** 2 else real(base, exp, mod)

    monkeypatch.setattr(arith, "pow", short, raising=False)
    with pytest.raises(InvariantViolationError):
        teichmuller_residue(2, 5, 3)


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from([3, 5, 7, 13, 40487]), st.integers(0, 3), st.data())
def test_teichmuller_exponent_is_p_to_the_n_times_a_log_mod_p(p, n, data):
    # in B = (Z/p^(n+1))^x on g, omega(x) = g^(p^n L) with L the log of x
    # mod p to base g mod p (found here by trying every power of g mod p)
    x = data.draw(st.integers(1, p - 1))
    B = unit_group(p ** (n + 1))
    g = B.generators[0]
    L = log_by_search(x, g % p, p - 1, p)
    assert B.dlog(teichmuller_residue(x, p, n + 1))[0] == p ** n * L


def test_a_principal_log_prime_to_p_is_an_invariant_violation(monkeypatch):
    # W(u) divides log(u^(p - 1)) by p; a log that p does not divide is
    # refused there, so a unit group's log refuses it too
    B = unit_group(125)
    monkeypatch.setattr(arith, "padic_log", lambda u, p, N: 1)
    with pytest.raises(InvariantViolationError):
        arith._wild_part(2, 5, 3, 125)
    with pytest.raises(InvariantViolationError):
        B.dlog(7)


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


@given(st.sampled_from(ODD_PRIMES), st.integers(1, 30), st.integers(-(10 ** 6), 10 ** 6))
def test_padic_log_of_one_is_zero(p, N, k):
    assert padic_log(1 + p ** N * k, p, N) == 0


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(ODD_PRIMES), st.integers(1, 40), st.data())
def test_padic_log_is_the_limit_of_powers(p, N, data):
    # log u = (u^(p^N) - 1) / p^N mod p^N: u^(p^N) = exp(p^N log u), whose
    # terms past the first are 0 mod p^(2N + 1)
    u = 1 + p * data.draw(st.integers(0, p ** N))
    assert padic_log(u, p, N) == (pow(u, p ** N, p ** (2 * N)) - 1) // p ** N % p ** N


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
