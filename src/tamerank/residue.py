"""Brute-force finite-level Galois modules for the tame primes.

At level n the p-part of (O_{K_n}/q)^x is induced from the decomposition
subgroup: primes above q are the cosets of <Frob_q>, each contributing a
cyclic group Z/p^{e_n} on which Frobenius acts as multiplication by q.  All
group data lives in modular arithmetic: an element of Gal(K_n/Q), taken
modulo inertia, is a pair (tame class, unit mod p^{n+1}), and the cosets
come from the structure of that group, not from a walk over its elements
(`residue_module`).  chi-quotients are computed by Smith reduction of an
integer presentation over the coefficient lattice of O_chi, which makes this
an implementation-independent check on every rank-formula ingredient.

The presentation has d = dim O_chi generators per coset and d relation rows
per coset and generator of G, r d columns in all.  It is never written out:
every relation ties two cosets by an invertible map, so a spanning tree of
each orbit of cosets expresses every coset's generators through the root's.
A coset's map to the root is a scalar unit c_j times Z(k_j)^T, the matrix of
chi at a product of generator points, so the tree keeps the pair (c_j, n_j)
with n_j the count of each generator's edges on the path from the root.  The
edges left out of the tree become relations on the root, and the p^e
relations of all cosets collapse to p^e on the root because every tree map
is invertible: one Smith block on d columns per orbit.

Only the exponent k = sum_g n_g a_g, with chi(point_g) = zeta_m^{a_g},
depends on chi.  So the forest and its relations (u, n) are built once per
module and part (none, plus or minus) and kept on the module, and each
character only maps the relations to (u, k) and reduces one Smith block per
distinct relation set.

The chi-quotient is taken over the group ring of G = Gal(K/Q) = (Z/fp)^x / H,
embedded in the level group as g -> (g, omega(g)) with omega(g) the
Teichmueller lift of g mod p^{n+1}; the cyclotomic Z_p-direction is
deliberately left free, so module sizes grow with the level and the growth
rate is the Z_p-rank of the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional

from .arith import split_prime_part, teichmuller_residue, unit_group
from .characters import DirichletCharacter, FieldSpec, RootOfUnity
from .errors import InvariantViolationError, OracleInconsistencyError
from .frobenius import splitting_count
from .localring import local_ring

SNF_GUARD_DIGITS = 4


@dataclass
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

    field: FieldSpec
    q: int
    level: int
    residue_degree: int
    e_exp: int
    cosets: list
    gen_actions: list  # [(chi_point, [(j, t)] per coset)]
    j_action: list  # [(j, t)] per coset for complex conjugation
    forests: dict = dataclass_field(default_factory=dict, repr=False, compare=False)

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


def residue_module(field: FieldSpec, q: int, n: int) -> ResidueModule:
    """Build the level-n module for q from the structure of its group.

    Modulo inertia at q the level group is A x B, with A = (Z/fq)^x / H_q
    and B = (Z/p^{n+1})^x cyclic on g of order nB, and Frobenius is
    (a_q, g^kq).  The <a_q>-orbits of A all have one length e, and each class
    is a = head_i a_q^t0.  The element (a, g^k) is c_j Frob^t exactly when
    t = t0 + e s and K = k - t0 kq = k' + s e kq mod nB, where c_j is
    (head_i, g^k').  So with w = gcd(e kq, nB) the cosets are (head_i, g^k')
    for 0 <= k' < w, and (a, g^k) lies in the one with k' = K mod w, at
    s = (K div w) (e kq / w)^{-1} mod nB / w.  The identity's coset is first."""
    p = field.p
    data = splitting_count(field, q, n)
    quotient = field.tame_quotient(q)
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
        i, t0 = place[least[a % fq]]
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


def _snf_exponent(rows: List[list], ncols: int, p: int, K: int) -> int:
    """Sum of p-valuations of the invariant factors of the lattice quotient
    Z^ncols / (row span), computed mod p^K.  The cokernel must be finite
    p-torsion, which the caller guarantees with explicit p^e rows.

    Each step pivots on an entry p^v * unit of least valuation v, normalised
    to p^v; the pivot row leaves the matrix and every other row subtracts
    (entry / p^v) times it, which cancels its entry in the pivot column
    exactly.  So a pivoted column is zero in every row that remains, and
    ncols pivots consume all columns; a row with no nonzero entry left drops
    out.  Entries are kept mod p^K, so a nonzero one has valuation < K."""
    mod = p ** K
    mat = [r for r in ([x % mod for x in row] for row in rows) if any(r)]
    total = 0
    for _ in range(ncols):
        best = None
        for i, row in enumerate(mat):
            for c, x in enumerate(row):
                if x:
                    v = split_prime_part(x, p)[0]
                    if best is None or v < best[0]:
                        best = (v, i, c)
                        if v == 0:
                            break
            if best and best[0] == 0:
                break
        if best is None:
            raise InvariantViolationError(
                "relation matrix left a free direction; presentation is wrong"
            )
        v, i, col = best
        pivot_row = mat.pop(i)
        pv = p ** v
        inv = pow(pivot_row[col] // pv, -1, mod)
        pivot_row = [x * inv % mod for x in pivot_row]
        new_mat = []
        for row in mat:
            factor = row[col] // pv
            if factor:
                row = [(x - factor * y) % mod for x, y in zip(row, pivot_row)]
            if any(row):
                new_mat.append(row)
        mat = new_mat
        total += v
    return total


class _Forest:
    """The chi-independent part of `chi_quotient_order` on one module and part.

    `points` and `orders` are the generators of (Z/fp)^x and their orders.
    `orbits` pairs each distinct set of non-tree relations (u, n) with the
    number of coset orbits that have it; n counts each generator's edges mod
    its order, since chi(point_g)^{ord_g} = 1."""

    __slots__ = ("points", "orders", "orbits")

    def __init__(self, module: ResidueModule, part: Optional[str]):
        p = module.field.p
        mod = p ** (module.e_exp + SNF_GUARD_DIGITS)
        self.points = tuple(point for point, _ in module.gen_actions)
        self.orders = unit_group(module.field.f * p).orders
        qinv = pow(module.q, -1, mod)
        twist = [1]  # twist[t] = q^{-t}
        for _ in range(1, module.residue_degree):
            twist.append(twist[-1] * qinv % mod)

        # (s, g, table): q^t x_j = s Z(a_g)^T x_i for (j, t) = table[i]; the
        # J edge of a part has no generator
        edges = [(1, g, table) for g, (_, table) in enumerate(module.gen_actions)]
        if part is not None:
            sign = -1 if part == "plus" else 1
            # kill the image of (1 -+ J): relations x_i -+ q^t x_{jJ}
            edges.append((-sign % mod, None, module.j_action))

        zero = (0,) * len(self.points)
        tree = [None] * module.num_cosets  # coset j -> (c_j, c_j^{-1}, n_j)
        orbits = {}  # relation set -> number of orbits with it
        for root in range(module.num_cosets):
            if tree[root] is not None:
                continue
            tree[root] = (1, 1, zero)
            orbit = [root]
            relations = set()
            for i in orbit:  # breadth first: the orbit grows while it is walked
                c, _, n = tree[i]
                for s, g, table in edges:
                    j, t = table[i]
                    cj = c * s * twist[t] % mod
                    nj = n if g is None else n[:g] + ((n[g] + 1) % self.orders[g],) + n[g + 1:]
                    if tree[j] is None:
                        tree[j] = (cj, pow(cj, -1, mod), nj)
                        orbit.append(j)
                    else:
                        _, c0inv, n0 = tree[j]
                        relations.add((cj * c0inv % mod,
                                       tuple((x - y) % o for x, y, o in zip(nj, n0, self.orders))))
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
    then reads x_root = u Z(b)^T x_root, d rows (I - u Z(b)^T) on the root,
    one per distinct (u, b) != (1, 0).  The relations p^e x_i = 0 on every
    coset become p^e c_j Z(k_j)^T x_root = 0, whose span is p^e I on the root
    because c_j Z(k_j)^T is invertible.  So each orbit is one Smith block on
    d columns, and the exponent is the sum over the orbits.

    The walk and its relations (u, n) do not depend on chi: they are built
    once per module and part (`_Forest`).  Here the counts n become
    exponents b, and orbits whose relation sets agree share one reduction."""
    if part not in (None, "plus", "minus"):
        raise ValueError("part must be 'plus', 'minus', or None")
    forest = module.forests.get(part)
    if forest is None:
        forest = module.forests[part] = _Forest(module, part)
    p = module.field.p
    e = module.e_exp
    K = e + SNF_GUARD_DIGITS
    pe = p ** e
    ring = local_ring(chi.order, p, K)
    d, m = ring.dim, ring.m
    a = chi.exponents_at(forest.points)  # chi(point_g) = zeta_m^{a_g}, as m = chi.order

    reduced = {}  # relation set {(u, b)} -> exponent of its Smith block
    total = 0
    for relations, count in forest.orbits:
        key = frozenset((u, sum(x * y for x, y in zip(n, a)) % m) for u, n in relations)
        key -= {(1, 0)}
        if key not in reduced:
            rows = [[pe if i == c else 0 for c in range(d)] for i in range(d)]
            for u, b in key:
                Z = ring.root_matrix(RootOfUnity(b, m))
                rows.extend([int(i == c) - u * Z[c][i] for c in range(d)] for i in range(d))
            reduced[key] = _snf_exponent(rows, d, p, K)
        total += count * reduced[key]
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
