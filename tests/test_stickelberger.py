from fractions import Fraction

import pytest

from helpers import direct_bucket_vectors
from tamerank import stickelberger
from tamerank.arith import split_prime_part
from tamerank.characters import FieldSpec, enumerate_characters, omega
from tamerank.cli import parse_config, run
from tamerank.stickelberger import (
    DEFAULT_PRECISION,
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
    assert hi.folded_buckets(1) == lo.bucket_coefficients


def test_lambda_regular_primes():
    for p in (5, 7):
        for chi in odd_characters(p):
            res = lambda_minus(chi)
            assert res.lambda_ == 0
            assert res.mu_zero


def test_lambda_irregular_37():
    res = lambda_minus(omega(37).power(5))
    assert res.lambda_ == 1
    assert res.mu_zero
    assert res.levels_used == (1, 2)


def test_lambda_level_insensitive():
    chi = omega(7).power(5)
    assert lambda_minus(chi, start_level=1).lambda_ == lambda_minus(chi, start_level=2).lambda_


def test_bernoulli_quadratic_conductor_3():
    chi = omega(3)  # the odd quadratic character mod 3
    b = bernoulli_b1(chi)
    assert b.rational == Fraction(-1, 3)
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
    assert res.mu_zero and res.lambda_ >= 0


def test_lambda_wider_irregular_pairs():
    # the irregular pairs (101, 68) and (103, 24) (Buhler-Harvey, "Irregular
    # primes to 163 million", Math. Comp. 80 (2011)): lambda = 1 on
    # omega^{p-k}, 0 on the next odd power, and p | B_{1, omega^{-i}} for
    # exactly the odd i = p - k, cross-checked here by the exact B_1
    for p, k in ((101, 68), (103, 24)):
        w = omega(p)
        assert lambda_minus(w.power(p - k)).lambda_ == 1
        assert lambda_minus(w.power(p - k + 2)).lambda_ == 0
        divisible = {
            i for i in range(3, p - 1, 2)
            if bernoulli_b1(w.power(i).inverse()).p_valuation() >= 1
        }
        assert divisible == {p - k}


SHARED_TABLE_FIELDS = [(5, 1), (7, 13), (11, 7), (13, 5), (3, 8), (5, 21)]


def test_shared_table_matches_direct_build():
    # every odd chi != omega at levels 0, 1 and 2: the projection of the
    # shared residue table equals the direct per-character build
    seen = set()
    for p, f in SHARED_TABLE_FIELDS:
        w = omega(p)
        for chi in enumerate_characters(FieldSpec(p, f)):
            if not chi.is_odd or chi == w:
                continue
            for n in (0, 1, 2):
                direct, ring = direct_bucket_vectors(chi, n, DEFAULT_PRECISION)
                assert stickelberger_series(chi, n).bucket_coefficients == direct, (chi.label(), n)
            seen.add(("f' > 1", split_prime_part(chi.conductor, p)[1] > 1))
            seen.add(("p | conductor", chi.conductor % p == 0))
            seen.add(("dim", ring.dim))
    assert {("f' > 1", True), ("p | conductor", True), ("p | conductor", False), ("dim", 2)} <= seen


def test_lambda_job_builds_each_table_once(monkeypatch):
    built = []

    def counted(fprime, p, n):
        built.append((fprime, p, n))
        return build(fprime, p, n)

    build = stickelberger._residue_table
    monkeypatch.setattr(stickelberger, "_residue_table", counted)
    monkeypatch.setattr(stickelberger, "_TABLES", stickelberger._TableCache())
    job = parse_config('{"p": 7, "f": 13}')
    run(job, "lambda")
    assert sorted(built) == [(1, 7, 1), (1, 7, 2), (13, 7, 1), (13, 7, 2)]
