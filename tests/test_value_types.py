"""The package's value types: equality and hash are those of their field
tuple, their constructors take fields by position and by keyword, mutable
defaults are fresh per instance, and the cache keys are immutable."""

import pytest

from tamerank.annihilators import AnnihilatorPoly
from tamerank.characters import FieldSpec, RootOfUnity, field_characters
from tamerank.cli import JobConfig
from tamerank.rank import PROVENANCE_TABLE, LambdaProvider, LambdaValue
from tamerank.stickelberger import LambdaResult

# (value, an equal value built from other arguments, an unequal value, the
# field tuple whose hash is the value's); a RootOfUnity field is written as
# its own field tuple, which hashes the same
CASES = [
    (FieldSpec(5, 7, (2,)), FieldSpec(5, 7, (9, 1, 2)), FieldSpec(5, 7), (5, 7, (2,))),
    (RootOfUnity(2, 6), RootOfUnity(-2, 3), RootOfUnity(1, 6), (1, 3)),
    (AnnihilatorPoly(3, 1, RootOfUnity(2, 3)), AnnihilatorPoly(3, 1, RootOfUnity(4, 6)),
     AnnihilatorPoly(3, 0, RootOfUnity(2, 3)), (3, 1, (2, 3))),
    (LambdaValue(2, PROVENANCE_TABLE), LambdaValue(2, "input-table"),
     LambdaValue(2, "conjectural-greenberg"), (2, "input-table")),
    (LambdaResult(0, True, (1, 2)), LambdaResult(0, True, (1, 2)), LambdaResult(0, True, (2, 3)),
     (0, True, (1, 2))),
]


@pytest.mark.parametrize("value, twin, other, fields", CASES, ids=[type(case[0]).__name__ for case in CASES])
def test_equality_and_hash_follow_the_field_tuple(value, twin, other, fields):
    assert value == twin and hash(value) == hash(twin) == hash(fields)
    assert value != other
    assert value != fields  # a value equals only its own type
    assert len({value, twin, other}) == 2


def test_constructors_take_fields_by_position_and_keyword():
    assert FieldSpec(5, 7, (9,)) == FieldSpec(p=5, f=7, subgroup=(2,)) == FieldSpec(5, subgroup=(2, 8), f=7)
    assert FieldSpec(5, 7, (9, 8, 1, 2)).subgroup == (2,)
    assert FieldSpec(5).f == 1 and FieldSpec(5).subgroup == ()
    table = {"all": 3}
    prov = LambdaProvider(dict(table), True, False)
    assert (prov.table, prov.allow_greenberg, prov.allow_stickelberger) == (table, True, False)
    prov = LambdaProvider(table=table, allow_greenberg=True)
    assert prov.table is table and prov.allow_greenberg and not prov.allow_stickelberger


def test_mutable_defaults_are_fresh():
    first, second = LambdaProvider(), LambdaProvider()
    first.table["all"] = 1
    assert second.table == {}
    assert JobConfig(5).provider is not JobConfig(5).provider


@pytest.mark.parametrize("value, name", [(FieldSpec(5, 7), "f"), (FieldSpec(5, 7), "subgroup"),
                                         (RootOfUnity(1, 3), "k"), (RootOfUnity(1, 3), "order")])
def test_cache_keys_are_immutable(value, name):
    before = hash(value)
    with pytest.raises(AttributeError):
        setattr(value, name, 1)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert hash(value) == before


def test_field_properties_are_cached_on_a_frozen_field():
    field = FieldSpec(7, 13, (3,))
    assert field.subgroup_elements == {1, 3, 9}
    assert field.group_order == 4 * 6
    assert field.subgroup_elements is field.subgroup_elements


def test_every_spelling_of_a_subgroup_is_one_field():
    # H = {1, 2, 4} mod 7 spelt by either generator is one FieldSpec, so
    # field_characters enumerates it once
    first, second = FieldSpec(5, 7, (2,)), FieldSpec(5, 7, (4,))
    assert first == second and hash(first) == hash(second) and second.subgroup == (2,)
    assert field_characters(first) is field_characters(second)
    # the non-cyclic H = {1, 27, 64, 90} mod 91, spelt four ways
    field = FieldSpec(5, 91, (90, 64))
    assert field.subgroup == (27, 64) and field.subgroup_elements == {1, 27, 64, 90}
    for spelling in ((27, 90), (64, 27, 1), (90, 64, 27, 1)):
        assert FieldSpec(5, 91, spelling) == field
