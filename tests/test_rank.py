import pytest

from helpers import random_prime_sets, rank_rational
from tamerank.characters import (
    FieldSpec,
    enumerate_characters,
    field_characters,
    omega,
    trivial_character,
)
from tamerank.errors import LambdaUnavailableError
from tamerank.rank import (
    LambdaProvider,
    rank_chi,
    rank_total,
    s_chi,
)

ZERO_TABLE = LambdaProvider(table={"all": 0})


def test_s_chi_examples():
    w = omega(5)
    assert s_chi(w, [7, 11]) == [7, 11]
    assert s_chi(w.power(3), [7, 11]) == [11]
    chi8 = [c for c in enumerate_characters(FieldSpec(3, 8, (7,))) if c.conductor == 8][0]
    assert s_chi(chi8, [5, 7, 13]) == [5, 7]


def test_s_chi_rejects_p():
    with pytest.raises(ValueError):
        s_chi(omega(5), [5, 7])
    # rank_chi checks S before lambda: this even character has no lambda
    with pytest.raises(ValueError, match="S must not contain p"):
        rank_chi(omega(5).power(2), [5, 7], LambdaProvider())
    with pytest.raises(LambdaUnavailableError):
        rank_chi(omega(5).power(2), [7], LambdaProvider())


def test_rank_chi_q_mu5():
    eps = trivial_character(5)
    w = omega(5)
    assert rank_chi(eps, [7, 11], ZERO_TABLE).rank == 0
    rec = rank_chi(w, [7, 11], ZERO_TABLE)
    assert rec.rank == 5 and rec.m_map == {7: 1, 11: 0} and rec.p_chi == 1
    assert rank_chi(w.power(3), [7, 11], ZERO_TABLE).rank == 1
    assert rank_chi(w.power(2), [7, 11], ZERO_TABLE).rank == 0


def test_rank_chi_empty_s_chi_returns_lambda():
    prov = LambdaProvider(table={"all": 4})
    w = omega(3)
    rec = rank_chi(w.power(0), [], prov)  # trivial character resolves to 0
    assert rec.rank == 0
    chi = omega(5).power(2)
    rec2 = rank_chi(chi, [2], prov)  # 2 = 3 mod 5 fails the sigma_0 test
    assert list(rec2.m_map) == [] and rec2.rank == 4


def test_rank_total_example_6_5():
    report = rank_total(FieldSpec(5, 1), [7, 11], ZERO_TABLE)
    assert [r.rank for r in report.records] == [0, 5, 0, 1]
    assert report.total == 6
    assert not report.conjectural


def test_rank_total_small():
    assert rank_total(FieldSpec(3, 1), [5], ZERO_TABLE).total == 0


def test_rank_total_empty_s_is_lambda_sum():
    prov = LambdaProvider(table={"all": 2})
    report = rank_total(FieldSpec(5, 1), [], prov)
    # eps still resolves to 0 unconditionally
    assert report.total == 3 * 2


# nested fields, each the next one's subfield
NESTED_FIELDS = [FieldSpec(5, 7, (6,)), FieldSpec(5, 7), FieldSpec(5, 21)]
# 3 and 7 divide some f; m_q is 1 for 7 and 43, 2 for 251 and 0 otherwise
NESTED_S = [2, 3, 7, 11, 43, 251]


def _records_by_class(field):
    """rank_total's records without their label, keyed by the member labels
    of their class, for a lambda table whose value depends on the class alone."""
    classes = field_characters(field)[1]
    members = [tuple(sorted(m.label() for m in cl)) for cl in classes]
    table = {cl[0].label(): sum(map(len, key)) for cl, key in zip(classes, members)}
    report = rank_total(field, NESTED_S, LambdaProvider(table=table))
    records = [{k: v for k, v in r.to_dict().items() if k != "character"} for r in report.records]
    return dict(zip(members, records))


@pytest.mark.parametrize("small,big", [(0, 1), (1, 2), (0, 2)])
def test_record_is_field_independent(small, big):
    # the representative, and so the character label, may differ
    mine = _records_by_class(NESTED_FIELDS[small])
    theirs = _records_by_class(NESTED_FIELDS[big])
    assert any(r["S_chi"] and r["d_chi"] > 1 for r in mine.values())
    for members, record in mine.items():
        assert members in theirs, members
        assert theirs[members] == record, members


def test_rank_rational_examples():
    assert rank_rational([7, 13], 3) == 1
    assert rank_rational([5], 3) == 0
    assert rank_rational([7, 19], 3) == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_trivial_character_consistency(p):
    eps = trivial_character(p)
    for S in random_prime_sets(p, 20, seed=p * 11):
        assert rank_chi(eps, S, ZERO_TABLE).rank == rank_rational(S, p)


def test_monotonicity_in_s():
    w = omega(5)
    prov = ZERO_TABLE
    sets = [[7], [7, 11], [7, 11, 31], [7, 11, 31, 41]]
    ranks = [rank_chi(w, S, prov).rank for S in sets]
    assert ranks == sorted(ranks)
    eps = trivial_character(3)
    sets3 = [[7], [7, 13], [7, 13, 19], [7, 13, 19, 163]]
    ranks3 = [rank_chi(eps, S3, prov).rank for S3 in sets3]
    assert ranks3 == sorted(ranks3)


def test_rank_at_least_lambda():
    prov = LambdaProvider(table={"all": 3})
    for chi in enumerate_characters(FieldSpec(5, 1)):
        for S in random_prime_sets(5, 10, seed=4242):
            lam = prov.resolve(chi).value
            assert rank_chi(chi, S, prov).rank >= lam


def test_even_single_prime_rank_is_lambda():
    # even chi with a single admissible prime: degF = p^{m_q} cancels the
    # tame contribution entirely
    prov = LambdaProvider(table={"all": 2})
    chi = omega(5).power(2)
    rec = rank_chi(chi, [11], prov)
    assert list(rec.m_map) == [11] and rec.rank == 2


def test_greenberg_flag_marks_conjectural():
    chi8 = [c for c in enumerate_characters(FieldSpec(3, 8, (7,))) if c.conductor == 8][0]
    rec = rank_chi(chi8, [5, 7, 13], LambdaProvider(allow_greenberg=True))
    assert list(rec.m_map) == [5, 7]
    assert rec.deg_f == 1 and rec.p_chi == 1
    assert rec.rank == 1 and rec.conjectural
    assert rec.lam.provenance == "conjectural-greenberg"


def test_lambda_resolution_order():
    # explicit table beats stickelberger, and eps is always zero
    prov = LambdaProvider(table={"omega^3": 9, "all": 1}, allow_stickelberger=True)
    w = omega(5)
    assert prov.resolve(trivial_character(5)).value == 0
    assert prov.resolve(w.power(3)).value == 9
    assert prov.resolve(w.power(2)).value == 1
    # stickelberger path for an odd character with no table entry
    prov2 = LambdaProvider(allow_stickelberger=True)
    val = prov2.resolve(w.power(3))
    assert val.value == 0 and val.provenance == "stickelberger-computed"


def test_lambda_unavailable():
    prov = LambdaProvider()
    with pytest.raises(LambdaUnavailableError):
        prov.resolve(omega(5).power(2))
    # omega itself never goes through stickelberger or greenberg
    prov2 = LambdaProvider(allow_stickelberger=True, allow_greenberg=True)
    with pytest.raises(LambdaUnavailableError):
        prov2.resolve(omega(5))


def test_stickelberger_scaled_by_d_chi():
    # the provider returns Z_p-ranks: d_chi times the series degree
    field = FieldSpec(3, 7)
    odd_sextics = [c for c in enumerate_characters(field) if c.order == 6 and c.is_odd]
    chi = odd_sextics[0]
    assert chi.d_chi == 2
    prov = LambdaProvider(allow_stickelberger=True)
    from tamerank.stickelberger import lambda_minus

    assert prov.resolve(chi).value == chi.d_chi * lambda_minus(chi).lambda_
