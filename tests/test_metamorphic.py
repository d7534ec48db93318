"""Metamorphic rank tests: how a rank moves when S grows by one prime, and
that a conjugacy class shares one record.

For a class representative chi, a prime set S and a prime q outside it,
delta = rank(S + {q}) - rank(S) lies in [0, d_chi p^{m_q}].  It is 0 when q
is not admissible for chi, and the full d_chi p^{m_q} when q is admissible
and chi is odd, except that omega loses P_omega = 1 on the step that makes
S_omega nonempty.  lambda is the same on both sides, so a zero table serves.
"""

import itertools

import pytest

from tamerank.characters import FieldSpec, conjugacy_classes, enumerate_characters, omega
from tamerank.frobenius import admissible, m_index
from tamerank.rank import LambdaProvider, rank_chi

ZERO_TABLE = LambdaProvider(table={"all": 0})

# each pool mixes admissible and inadmissible primes, primes dividing f, and
# primes with m_q > 0 (7 for p = 5, 19 for p = 3 and for p = 7)
FIELDS_AND_POOLS = [
    (FieldSpec(5, 1), [2, 3, 7, 11, 31]),
    (FieldSpec(3, 8), [2, 5, 7, 13, 19]),
    (FieldSpec(5, 7), [2, 3, 7, 11, 29]),
    (FieldSpec(7, 1), [2, 3, 13, 19, 29]),
    (FieldSpec(3, 7), [2, 5, 7, 13, 19]),
    (FieldSpec(5, 21, (8,)), [2, 3, 7, 11]),
]


def _record(rec):
    return rec.rank, rec.s_chi, rec.m_map, rec.deg_f, rec.p_chi


@pytest.mark.parametrize("field, pool", FIELDS_AND_POOLS, ids=lambda x: str(x))
def test_rank_step_as_s_grows(field, pool):
    p = field.p
    subsets = [S for k in range(len(pool) + 1) for S in itertools.combinations(pool, k)]
    for cls in conjugacy_classes(enumerate_characters(field)):
        chi = cls[0]
        records = {S: rank_chi(chi, S, ZERO_TABLE) for S in subsets}
        for S, rec in records.items():
            for member in cls[1:]:
                assert _record(rank_chi(member, S, ZERO_TABLE)) == _record(rec), (member, S)
            for q in set(pool) - set(S):
                delta = records[tuple(sorted(S + (q,)))].rank - rec.rank
                step = chi.d_chi * p ** m_index(q, p)
                assert 0 <= delta <= step, (chi, S, q)
                if not admissible(chi, q):
                    assert delta == 0, (chi, S, q)
                elif chi == omega(p):
                    assert delta == (step if rec.s_chi else step - 1), (S, q)
                elif chi.is_odd:
                    assert delta == step, (chi, S, q)
