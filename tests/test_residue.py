import pytest

from helpers import norm_reduction_surjective
from tamerank.characters import (
    FieldSpec,
    class_representatives,
    enumerate_characters,
    omega,
    trivial_character,
)
from tamerank.frobenius import (
    inertia_trivial,
    m_index,
    sigma0_ok,
    splitting_count,
    stabilization_level,
)
import tamerank.localring as localring
from tamerank.arith import smallest_primitive_root, teichmuller_residue
from tamerank.localring import cyclotomic_poly, local_ring
from tamerank.residue import (
    chi_quotient_order,
    rank_estimate,
    residue_module,
)


def test_module_shapes():
    m = residue_module(FieldSpec(3, 1), 7, 1)
    assert m.num_cosets == 2 and m.e_exp == 2
    m2 = residue_module(FieldSpec(3, 1), 19, 2)
    assert m2.num_cosets == 6 and m2.e_exp == 3
    m3 = residue_module(FieldSpec(3, 7), 7, 0)
    assert m3.num_cosets == 2 and m3.e_exp == 1


def test_total_exponent():
    for field, q, n in [(FieldSpec(3, 1), 7, 1), (FieldSpec(5, 7), 13, 1)]:
        m = residue_module(field, q, n)
        data = splitting_count(field, q, n)
        assert m.total_exponent == data.p_exponent * data.prime_count


def test_snf_of_zero_module():
    from tamerank.residue import _snf_exponent

    assert _snf_exponent([], 0, 3, 4) == 0


def test_chi_quotient_examples():
    field = FieldSpec(3, 1)
    m = residue_module(field, 7, 1)
    eps, w = trivial_character(3), omega(3)
    assert chi_quotient_order(m, eps) == 2
    assert chi_quotient_order(m, w) == 2
    # p does not divide |G| here, so the class pieces exhaust the module
    assert chi_quotient_order(m, eps) + chi_quotient_order(m, w) == m.total_exponent


def test_rank_estimate_examples():
    field = FieldSpec(3, 1)
    eps, w = trivial_character(3), omega(3)
    assert rank_estimate(field, 7, eps, 1, 2) == 1
    assert rank_estimate(field, 7, w, 1, 2) == 1
    # sigma_0-condition fails for eps at q = 5: finite quotient, rank 0
    assert rank_estimate(field, 5, eps, 0, 1) == 0
    assert rank_estimate(field, 5, w, 0, 1) == 1


def test_rank_estimate_rejects_bad_levels():
    with pytest.raises(ValueError):
        rank_estimate(FieldSpec(3, 1), 7, trivial_character(3), 2, 2)


def test_rank_estimate_level_invariance():
    # the growth rate must not depend on which stabilized levels are sampled
    fs = FieldSpec(3, 1)
    eps = trivial_character(3)
    assert rank_estimate(fs, 7, eps, 1, 3) == 1
    assert rank_estimate(fs, 19, eps, 2, 4) == 3
    assert rank_estimate(fs, 19, omega(3), 2, 3) == rank_estimate(fs, 19, omega(3), 3, 4)


GRID_FIELDS = [FieldSpec(3, 1), FieldSpec(3, 7), FieldSpec(5, 1), FieldSpec(3, 8, (7,))]


@pytest.mark.parametrize("field", GRID_FIELDS)
def test_rank_estimate_matches_formula(field):
    p = field.p
    chars = enumerate_characters(field)
    reps = class_representatives(chars, p)
    qs = [q for q in (2, 3, 5, 7, 11) if q != p][:3]
    for q in qs:
        n0 = stabilization_level(field, q)
        for chi in reps:
            admissible = inertia_trivial(chi, q) and sigma0_ok(chi, q)
            expected = chi.d_chi * p ** m_index(q, p) if admissible else 0
            assert rank_estimate(field, q, chi, n0, n0 + 1) == expected


@pytest.mark.parametrize("field", GRID_FIELDS)
def test_class_ranks_sum_to_prime_count(field):
    chars = enumerate_characters(field)
    reps = class_representatives(chars, field.p)
    for q in [q for q in (2, 5, 7, 11) if q != field.p][:2]:
        n0 = stabilization_level(field, q)
        r = splitting_count(field, q, n0).prime_count
        total = sum(rank_estimate(field, q, chi, n0, n0 + 1) for chi in reps)
        assert total == r


def test_parity_decomposition():
    # |M_chi| = |M+_chi| * |M-_chi|; odd chi kills the plus part and even
    # chi kills the minus part
    field = FieldSpec(3, 1)
    m = residue_module(field, 7, 1)
    eps, w = trivial_character(3), omega(3)
    for chi in (eps, w):
        full = chi_quotient_order(m, chi)
        plus = chi_quotient_order(m, chi, "plus")
        minus = chi_quotient_order(m, chi, "minus")
        assert full == plus + minus
    assert chi_quotient_order(m, w, "plus") == 0
    assert chi_quotient_order(m, eps, "minus") == 0


def test_parity_decomposition_larger_field():
    field = FieldSpec(5, 7)
    chars = enumerate_characters(field)
    reps = class_representatives(chars, 5)
    n0 = stabilization_level(field, 11)
    m = residue_module(field, 11, n0 + 1)
    for chi in reps:
        full = chi_quotient_order(m, chi)
        plus = chi_quotient_order(m, chi, "plus")
        minus = chi_quotient_order(m, chi, "minus")
        assert full == plus + minus
        if chi.is_odd:
            assert plus == 0
        else:
            assert minus == 0


def test_norm_reduction_surjective():
    for field, q in [(FieldSpec(3, 1), 7), (FieldSpec(5, 1), 7), (FieldSpec(3, 7), 13)]:
        n0 = stabilization_level(field, q)
        for n in range(n0, n0 + 2):
            assert norm_reduction_surjective(field, q, n)


def test_zeta_is_a_root_of_cyclotomic():
    # zeta_{n0} must be a root of Phi_{n0} mod p^K; (7, 11) splits with d0 = 3
    for n0, p in [(12, 5), (8, 3), (5, 7), (16, 7), (7, 11)]:
        ring = local_ring(n0, p, 6)
        acc = [[0] * ring.dim for _ in range(ring.dim)]
        for i, c in enumerate(cyclotomic_poly(n0)):
            z = ring.zeta_matrix(i)
            acc = [[(a + c * b) % ring.mod for a, b in zip(r, zr)] for r, zr in zip(acc, z)]
        assert acc == [[0] * ring.dim for _ in range(ring.dim)]


def test_irreducible_cyclotomic_skips_the_search(monkeypatch):
    # Phi_58 is irreducible mod 3 (d0 = 28): zeta_58 = x, and searching
    # F_{3^28} for a root would take minutes.  The ring is built directly so
    # that no cached ring hides the construction.
    def refuse(p, d):
        raise AssertionError(f"searched for an irreducible of degree {d} over F_{p}")

    monkeypatch.setattr(localring, "_find_irreducible", refuse)
    ring = localring.LocalCoefficientRing(58, 3, 8)
    assert ring.d0 == 28 and ring.dim == 28
    minus_one = (-1) % ring.mod
    assert ring.zeta_matrix(29) == [[minus_one if i == j else 0 for j in range(28)] for i in range(28)]


def test_ring_powers_do_not_recurse():
    # zeta_1012^1011 in a rank-1 ring: powers are built by a loop, not by
    # one recursive call per power
    g = smallest_primitive_root(1013)
    assert local_ring(1012, 1013, 8).zeta_vector(1011) == [
        pow(teichmuller_residue(g, 1013, 8), 1011, 1013 ** 8)
    ]


def test_local_ring_matrix_orders():
    ring = local_ring(12, 5, 6)
    assert ring.dim == 2
    z = ring.zeta_matrix(1)
    acc = z
    for _ in range(11):
        acc = [[sum(a * b for a, b in zip(row, col)) % ring.mod
                for col in zip(*z)] for row in acc]
    ident = [[1 if i == j else 0 for j in range(2)] for i in range(2)]
    assert acc == ident
    # the mu_4-component must match the Teichmueller pinning: zeta_12^3 acts
    # as the scalar teich(2) since omega(2) generates mu_4 in Z_5
    from tamerank.arith import teichmuller_residue

    z4 = ring.zeta_matrix(3)
    t = teichmuller_residue(2, 5, 6)
    assert z4 == [[t, 0], [0, t]]


def test_local_ring_pinning_with_larger_torsion():
    # n0 = 24, p = 7: Phi_24 has degree-2 factors and gcd(24, 6) = 6, so the
    # whole mu_6-component of the chosen root is forced by the pinning
    from tamerank.arith import teichmuller_residue

    ring = local_ring(24, 7, 6)
    assert ring.dim == 2
    t6 = teichmuller_residue(3, 7, 6)  # omega(3) generates mu_6 in Z_7
    assert ring.zeta_matrix(4) == [[t6, 0], [0, t6]]
    minus_one = (-1) % ring.mod
    assert ring.zeta_matrix(12) == [[minus_one, 0], [0, minus_one]]
