"""Brute-force finite-level Galois modules for the tame primes.

At level n the p-part of (O_{K_n}/q)^x is induced from the decomposition
subgroup: primes above q are the cosets of <Frob_q>, each contributing a
cyclic group Z/p^{e_n} on which Frobenius acts as multiplication by q.  All
group data lives in modular arithmetic: an element of Gal(K_n/Q), taken
modulo inertia, is a pair (tame class, unit mod p^{n+1}), and the cosets
come from the structure of that group, not from a walk over its elements
(`residue_module`).  chi-quotients are read from a presentation over
O_chi = Z_p[zeta_m], which makes this an implementation-independent check on
every rank-formula ingredient.

The presentation has d = dim O_chi generators per coset and d relation rows
per coset and generator of G, r d columns in all.  It is never written out:
every relation ties two cosets by an invertible map, so a spanning tree of
each orbit of cosets expresses every coset's generators through the root's.
A coset's map to the root is a scalar unit c_j times Z(k_j)^T, the matrix of
chi at a product of generator points, so the tree keeps the pair (c_j, n_j)
with n_j the count of each generator's edges on the path from the root.  The
edges left out of the tree become relations on the root, and the p^e
relations of all cosets collapse to p^e on the root because every tree map
is invertible.  So each orbit is the quotient of O_chi by an ideal, and O_chi
is a discrete valuation ring: the orbit's size is one valuation.

Only the exponent k = sum_g n_g a_g, with chi(point_g) = zeta_m^{a_g},
depends on chi.  So the forest and its relations (u, n) are built once per
module and part (none, plus or minus) and kept on the module, and each
character only maps the relations to (u, k).  The valuation of 1 - u zeta_m^k
depends on chi only through (m, u, k), so the forest keeps it for the
module's other characters, and an orbit stops at its first unit relation.
Over the seed-0 oracle-grid benchmark batch this takes 865 valuations, where
one per relation took 3220: its forests hold 1316 distinct keys in all, and
1648 of the 3220 relations have valuation 0.

The chi-quotient is taken over the group ring of G = Gal(K/Q) = (Z/fp)^x / H,
embedded in the level group as g -> (g, omega(g)) with omega(g) the
Teichmueller lift of g mod p^{n+1}; the cyclotomic Z_p-direction is
deliberately left free, so module sizes grow with the level and the growth
rate is the Z_p-rank of the limit.
"""

from __future__ import annotations

import math
from operator import mod, mul, sub
from typing import Optional

from .arith import teichmuller_residue, unit_group
from .characters import DirichletCharacter, FieldSpec
from .errors import InvariantViolationError, OracleInconsistencyError
from .frobenius import splitting_count, tame_data
from .localring import local_ring

# chi-quotients are read mod p^(e_n + VALUATION_GUARD_DIGITS): a valuation
# below w (e_n + 4) is exact there, and an orbit reads at most w e_n
VALUATION_GUARD_DIGITS = 4


class ResidueModule:
    """Induced module (Z/p^{e_n})^{r_n} with its Galois action tables.

    G = (Z/fp)^x / H embeds in the level group as g -> (g, omega(g)), with
    omega(g) the Teichmueller lift of g mod p^{n+1}.  `gen_actions` holds,
    for each generator g of unit_group(f p) (its point, at which a character
    of G is evaluated), the coset table of its image: entry i is (j, t) with
    g c_i = qbar^t c_j.  `j_action` is the table of the image of -1, complex
    conjugation.  `forests` keeps the chi-independent part of
    `chi_quotient_order` per part, built on first use.
    """

    __slots__ = ("field", "q", "level", "residue_degree", "e_exp", "cosets", "gen_actions", "j_action",
                 "forests")

    def __init__(self, field: FieldSpec, q: int, level: int, residue_degree: int, e_exp: int,
                 cosets: list, gen_actions: list, j_action: list):
        self.field = field
        self.q = q
        self.level = level
        self.residue_degree = residue_degree
        self.e_exp = e_exp
        self.cosets = cosets
        self.gen_actions = gen_actions  # [(chi_point, [(j, t)] per coset)]
        self.j_action = j_action  # [(j, t)] per coset for complex conjugation
        self.forests = {}

    @property
    def num_cosets(self) -> int:
        return len(self.cosets)


def _least_in_class(quotient: FieldSpec) -> list:
    """The least element of each class a H of Z/fq, indexed by a mod fq.  In
    ascending order the first element met of a class is its least."""
    fq = quotient.f
    least = [None] * fq
    for a in range(fq):
        if least[a] is None:
            for h in quotient.subgroup_elements:
                least[a * h % fq] = a
    return least


def _frobenius_orbits(quotient: FieldSpec, q: int) -> tuple:
    """(where, heads, e): the <a_q>-orbits of A = (Z/fq)^x / H_q, all of one
    length e, with where[a] = (i, t0) for each unit a mod fq whose class is
    heads[i] a_q^t0 (None for a non-unit).  Raises InvariantViolationError
    when an orbit does not close or the lengths differ."""
    fq = quotient.f
    least = _least_in_class(quotient)
    heads, place = [], {}  # class a -> (i, t0) with a = heads[i] a_q^t0
    for a in range(fq):
        if least[a] in place or math.gcd(a, fq) != 1:
            continue
        x, t = a, 0
        while x not in place:
            place[x] = (len(heads), t)
            x, t = least[x * q % fq], t + 1
        if x != a or (heads and t != e):
            raise InvariantViolationError("an <a_q>-orbit in A does not close")
        heads.append(a)
        e = t
    return [place.get(c) for c in least], heads, e


def residue_module(field: FieldSpec, q: int, n: int) -> ResidueModule:
    """Build the level-n module for q from the structure of its group.

    Modulo inertia at q the level group is A x B, with A = (Z/fq)^x / H_q
    and B = (Z/p^{n+1})^x cyclic on g of order nB, and Frobenius is
    (a_q, g^kq).  The <a_q>-orbits of A all have one length e, and each class
    is a = head_i a_q^t0.  The element (a, g^k) is c_j Frob^t exactly when
    t = t0 + e s and K = k - t0 kq = k' + s e kq mod nB, where c_j is
    (head_i, g^k').  So with w = gcd(e kq, nB) the cosets are (head_i, g^k')
    for 0 <= k' < w, and (a, g^k) lies in the one with k' = K mod w, at
    s = (K div w) (e kq / w)^{-1} mod nB / w.  The identity's coset is first.
    The orbits of A do not depend on n: they are kept on q's tame record once
    their walk has closed, so the modules of both oracle levels share them."""
    p = field.p
    data = splitting_count(field, q, n)
    tame = tame_data(field, q)
    if tame.orbits is None:
        tame.orbits = _frobenius_orbits(tame.quotient, q)
    where, heads, e = tame.orbits
    fq = tame.quotient.f

    pmod = p ** (n + 1)
    B = unit_group(pmod)
    g, nB = B.generators[0], B.orders[0]
    kq = B.dlog(q)[0]
    w = math.gcd(e * kq, nB)
    if e * nB // w != data.residue_degree:
        raise InvariantViolationError("Frobenius order != residue degree")
    r = len(heads) * w
    if r != data.prime_count:
        raise InvariantViolationError("coset count != prime count")
    inv = pow(e * kq // w, -1, nB // w)

    def locate(a: int, k: int) -> tuple:
        """(j, t) with (a, g^k) = c_j Frob^t."""
        i, t0 = where[a % fq]
        K = (k - t0 * kq) % nB
        return i * w + K % w, t0 + e * (K // w * inv % (nB // w))

    def action_table(x: int) -> list:
        """The coset table of the image (x, omega(x)) of x in G."""
        k = B.dlog(teichmuller_residue(x, p, n + 1))[0]
        return [locate(x * heads[j // w], k + j % w) for j in range(r)]

    return ResidueModule(
        field=field,
        q=q,
        level=n,
        residue_degree=data.residue_degree,
        e_exp=data.p_exponent,
        cosets=[(a, pow(g, k, pmod)) for a in heads for k in range(w)],
        gen_actions=[(x, action_table(x)) for x in unit_group(field.f * p).generators],
        j_action=action_table(-1),
    )


class _Forest:
    """The chi-independent part of `chi_quotient_order` on one module and part.

    `points` and `orders` are the generators of (Z/fp)^x and their orders.
    `orbits` pairs each distinct set of non-tree relations (u, n) with the
    number of coset orbits that have it; n counts each generator's edges mod
    its order, since chi(point_g)^{ord_g} = 1.  `valuations` maps each
    (m, u, b) that a character has read to v_pi(1 - u zeta_m^b) in the ring
    of order m, so characters of one module share them."""

    __slots__ = ("points", "orders", "orbits", "valuations")

    def __init__(self, module: ResidueModule, part: Optional[str]):
        p = module.field.p
        modulus = p ** (module.e_exp + VALUATION_GUARD_DIGITS)
        self.points = tuple(point for point, _ in module.gen_actions)
        self.orders = orders = unit_group(module.field.f * p).orders
        self.valuations = {}
        qinv = pow(module.q, -1, modulus)
        # t -> q^{-t} for the t the walk meets, at most one per edge: the
        # residue degree that bounds t grows like p^n, the module does not
        twist = {}

        # (s, g, table): q^t x_j = s Z(a_g)^T x_i for (j, t) = table[i]; the
        # J edge of a part has no generator
        edges = [(1, g, table) for g, (_, table) in enumerate(module.gen_actions)]
        if part is not None:
            sign = -1 if part == "plus" else 1
            # kill the image of (1 -+ J): relations x_i -+ q^t x_{jJ}
            edges.append((-sign % modulus, None, module.j_action))

        zero = (0,) * len(self.points)
        # coset j -> [c_j, c_j^{-1} once a non-tree edge needs it, n_j]
        tree = [None] * module.num_cosets
        orbits = {}  # relation set -> number of orbits with it
        for root in range(module.num_cosets):
            if tree[root] is not None:
                continue
            tree[root] = [1, 1, zero]
            orbit = [root]
            relations = set()
            for i in orbit:  # breadth first: the orbit grows while it is walked
                c, _, n = tree[i]
                for s, g, table in edges:
                    j, t = table[i]
                    qt = twist.get(t)
                    if qt is None:
                        qt = twist[t] = pow(qinv, t, modulus)
                    cj = c * s * qt % modulus
                    nj = n if g is None else n[:g] + ((n[g] + 1) % orders[g],) + n[g + 1:]
                    node = tree[j]
                    if node is None:
                        tree[j] = [cj, None, nj]
                        orbit.append(j)
                    else:
                        if node[1] is None:
                            node[1] = pow(node[0], -1, modulus)
                        relations.add((cj * node[1] % modulus,
                                       tuple(map(mod, map(sub, nj, node[2]), orders))))
            relations.discard((1, zero))
            key = frozenset(relations)
            orbits[key] = orbits.get(key, 0) + 1
        self.orbits = tuple(orbits.items())


def chi_quotient_order(
    module: ResidueModule, chi: DirichletCharacter, part: Optional[str] = None
) -> int:
    """Exponent of p in the order of the chi-quotient of the module (or of
    its plus/minus part when `part` is "plus" or "minus").

    The presentation has d = dim O_chi generators x_i per coset and, per
    generator g of G with coset table (j, t) = table[i], the relation
    q^t x_j = Z(a_g)^T x_i, where Z(a) is multiplication by chi(g) = zeta_m^a;
    `part` adds complex conjugation as one more edge, with the table
    `j_action`: q^t x_j = x_i for "plus" and q^t x_j = -x_i for "minus".
    Every edge is invertible, so a breadth-first walk along the edges from a
    root coset spans its orbit with a tree and writes
    x_j = c_j Z(k_j)^T x_root.  The Z's are powers of one zeta_m and commute,
    so this matrix is the scalar c_j in (Z/p^K)^x times Z(k_j)^T, and
    k_j = sum_g n_g a_g for the edge counts n_j of the path.  A non-tree edge
    then reads x_root = u Z(b)^T x_root, d rows (I - u Z(b)^T) on the root:
    row i is (1 - u zeta_m^b) e_i, so the rows span the ideal
    (1 - u zeta_m^b) O_chi.  The relations p^e x_i = 0 on every coset become
    p^e c_j Z(k_j)^T x_root = 0, whose span is p^e O_chi on the root because
    c_j Z(k_j)^T is invertible.  O_chi is a discrete valuation ring with
    uniformizer pi, v_pi(p) = w and residue degree d0, so an orbit adds
    d0 min(w e, min over its relations of v_pi(1 - u zeta_m^b)), and the
    exponent is the sum over the orbits.  A relation with (u, b) = (1, 0)
    reads 0, of valuation w K > w e, and changes nothing.

    The walk and its relations (u, n) do not depend on chi: they are built
    once per module and part (`_Forest`).  Here the counts n become
    exponents b.  The valuation of a relation depends on chi only through
    m = ord chi, u and b, so it is taken once per forest and key (m, u, b)
    and kept in `forest.valuations` for the module's other characters; and
    an orbit's minimum stops at 0, as no valuation is lower."""
    if part not in (None, "plus", "minus"):
        raise ValueError("part must be 'plus', 'minus', or None")
    forest = module.forests.get(part)
    if forest is None:
        forest = module.forests[part] = _Forest(module, part)
    e = module.e_exp
    ring = local_ring(chi.order, module.field.p, e + VALUATION_GUARD_DIGITS)
    d, m = ring.dim, ring.m
    a = chi.exponents_at(forest.points)  # chi(point_g) = zeta_m^{a_g}, as m = chi.order

    memo = forest.valuations
    total = 0
    for relations, count in forest.orbits:
        v = ring.w * e  # v_pi(p^e)
        for u, n in relations:
            b = sum(map(mul, n, a)) % m
            x = memo.get((m, u, b))
            if x is None:
                x = memo[m, u, b] = ring.valuation(
                    [int(c == 0) - u * z for c, z in enumerate(ring.zeta_vector(b))])
            if x < v:
                v = x
                if not v:  # a unit relation: no valuation is lower
                    break
        total += count * ring.d0 * v
    if total > e * module.num_cosets * d:
        raise InvariantViolationError("chi-quotient larger than the module")
    return total


def quotient_growth(lo: ResidueModule, hi: ResidueModule, chi: DirichletCharacter) -> tuple:
    """(x0, x1, rank): the chi-quotient exponents of two modules for the same
    q at stabilized levels, and the Z_p-rank of the limit read off as the
    growth x1 - x0 per unit of growth of the residue exponent."""
    de = hi.e_exp - lo.e_exp
    if de <= 0:
        raise OracleInconsistencyError("residue exponent did not grow between levels")
    x0 = chi_quotient_order(lo, chi)
    x1 = chi_quotient_order(hi, chi)
    growth = x1 - x0
    if growth < 0 or growth % de:
        raise OracleInconsistencyError(
            f"non-integral growth {growth}/{de} for chi={chi.label()}, q={lo.q}"
        )
    return x0, x1, growth // de
