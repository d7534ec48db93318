"""Dirichlet characters of G = Gal(F(mu_p)/Q) with formal root-of-unity values.

A character is stored primitively: its modulus equals its conductor and its
data is one integer per generator g_i of (Z/cond)^x, the exponent e_i mod
n_i = ord g_i with chi(g_i) = zeta_{n_i}^{e_i}.  Conductors, values, powers
and conjugates are integer operations on that vector; only values come out
as formal roots of unity.  The identification of exponents with p-adic roots
of unity is pinned once: zeta_{p-1} is the image of the smallest primitive
root mod p under the Teichmueller character, and p-power roots stay formal.
All predicates used downstream (triviality, parity, p-power order,
conjugacy) are independent of that pinning.

By CRT, (Z/M)^x is the product of its prime-power blocks, and a character
mod M is the product of one character per block (Washington, Cyclotomic
Fields, ch. 3).  So the dual of each block is tabulated once per unit group,
one entry per local exponent: the block's conductor factor, the exponents on
that factor's own generators, the local order and the local parity.  Every
character of a field, and every power or product, is assembled from one
entry per block: the modulus is the product of the factors, the exponents
their concatenation, the order their lcm and the parity their product.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache

from .arith import (
    _check_odd_prime,
    crt,
    euler_phi,
    mul_order,
    smallest_primitive_root,
    split_prime_part,
    unit_dlog,
    unit_group,
)
from .errors import InvariantViolationError


class FrozenValue:
    """An immutable value with two or more fields, named in `_fields`, which
    its `__init__` sets once through object.__setattr__.  Equality and hash
    are those of the tuple of its fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the tuple of an instance's fields (of one name, an attrgetter would
        # give the bare value); it is no method, so it is called with the instance
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__name__}({fields})"


class RootOfUnity(FrozenValue):
    """zeta_order^k, held in lowest terms with 0 <= k < order.  The package
    computes with integer exponents; this value is what `value` returns and
    what `LocalCoefficientRing.root_matrix` takes."""

    __slots__ = _fields = ("k", "order")

    def __init__(self, k: int, order: int):
        g = math.gcd(k, order)
        object.__setattr__(self, "k", k % order // g)
        object.__setattr__(self, "order", order // g)

    def exponent_for(self, order: int) -> int:
        """Integer k with self = zeta_order^k; order must be a multiple."""
        if order % self.order:
            raise ValueError(f"order {self.order} does not divide {order}")
        return self.k * (order // self.order)

    def order_is_p_power(self, p: int) -> bool:
        return split_prime_part(self.order, p)[1] == 1

    def __repr__(self):
        return f"zeta({self.k}/{self.order})"


class DirichletCharacter:
    """A primitive Dirichlet character attached to an ambient odd prime p,
    held as one integer exponent per generator of unit_group(modulus).
    Constructed directly, it checks its exponents and reads its conductor,
    order and parity from them; the characters of a field, their powers and
    their products are assembled from block entries by `_assembled`."""

    __slots__ = ("p", "modulus", "units", "exponents", "order", "_weights", "parity", "d_chi",
                 "_hash", "_label", "admissible_at", "_at_points")

    def __init__(self, p: int, modulus: int, exponents: tuple):
        units = unit_group(modulus)
        orders = units.orders
        if len(exponents) != len(orders):
            raise ValueError("one exponent per unit-group generator required")
        exponents = tuple(map(operator.mod, exponents, orders))
        if units.conductor(exponents) != modulus:
            raise ValueError(f"the exponents do not define a primitive character mod {modulus}")
        order = math.lcm(*map(operator.floordiv, orders, map(math.gcd, exponents, orders)))
        self._fill(p, units, exponents, order, 1)
        if self._exponent_at(units.minus_one):
            self.parity = -1

    def _fill(self, p: int, units, exponents: tuple, order: int, parity: int) -> None:
        """Set every slot from data the caller has checked."""
        self.p = p
        self.modulus = units.modulus
        self.units = units
        self.exponents = exponents
        self.order = order
        self._weights = None  # built by `weights` on first use
        self.parity = parity
        self.d_chi = _local_degree(order, p)
        self._hash = hash((p, units.modulus, exponents))
        self._label = None
        # q -> whether q lies in S_chi, filled by frobenius.admissible; it
        # lives as long as the character, so as long as its field's entry
        self.admissible_at = {}
        self._at_points = None  # (points, exponents_at(points)), the latest

    @property
    def conductor(self) -> int:
        return self.modulus

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_odd(self) -> bool:
        return self.parity == -1

    @property
    def weights(self) -> tuple:
        """chi(a) = zeta_order^k with k = sum_i w_i x_i for x = dlog(a), w_i =
        e_i order / n_i; built on first use, as a `chars` job reads none."""
        if self._weights is None:
            self._weights = tuple(map(operator.floordiv, map(self.order.__mul__, self.exponents),
                                      self.units.orders))
        return self._weights

    def _exponent_at(self, logs) -> int:
        return sum(map(operator.mul, self.weights, logs)) % self.order

    def exponent_at(self, a: int):
        """The k with chi(a) = zeta_order^k, or None when gcd(a, conductor) > 1.
        The discrete log of a is shared by every character of this conductor."""
        M = self.modulus
        if math.gcd(a, M) != 1:
            return None
        return self._exponent_at(unit_dlog(M, a % M))

    def value(self, a: int):
        """chi(a) as a RootOfUnity, or None when gcd(a, conductor) > 1."""
        k = self.exponent_at(a)
        return None if k is None else RootOfUnity(k, self.order)

    def exponents_at(self, points: tuple) -> tuple:
        """`exponent_at` of each a in `points`, which must be units mod the
        conductor (a non-unit raises InvariantViolationError).  The latest
        answer is kept on the character: every residue module of a field
        evaluates its characters at the same generator points."""
        if self._at_points is None or self._at_points[0] != points:
            exponents = tuple(map(self.exponent_at, points))
            if None in exponents:
                raise InvariantViolationError("character evaluation hit a non-unit")
            self._at_points = (points, exponents)
        return self._at_points[1]

    def value_exponents(self) -> list:
        """For each a mod the conductor, the k with chi(a) = zeta_order^k, or
        None when a is not a unit.  One walk over the products of powers of
        the generators, with no discrete log: g^t adds t times chi's exponent
        at g."""
        M, order = self.modulus, self.order
        walk = [(1 % M, 0)]
        for g, n, w in zip(self.units.generators, self.units.orders, self.weights):
            steps = [(pow(g, t, M), t * w) for t in range(n)]
            walk = [(a * h % M, (k + v) % order) for h, v in steps for a, k in walk]
        values = [None] * M
        for a, k in walk:
            values[a] = k
        return values

    def power(self, t: int) -> "DirichletCharacter":
        return _primitive(self.p, self.units, tuple(e * t for e in self.exponents))

    def inverse(self) -> "DirichletCharacter":
        return self.power(-1)

    def _reduced(self) -> list:
        """Each generator's image as a reduced [numerator, denominator] in Q/Z."""
        return [[e // (g := math.gcd(e, n)), n // g] for e, n in zip(self.exponents, self.units.orders)]

    def label(self) -> str:
        if self._label is None:
            if self.is_trivial:
                self._label = "eps"
            elif self.modulus == self.p:
                self._label = f"omega^{self.exponents[0]}"
            else:
                parts = ".".join(f"{k}of{n}" for k, n in self._reduced())
                self._label = f"chi{self.modulus}[{parts}]"
        return self._label

    def to_dict(self) -> dict:
        """The character's row of the `chars` inventory."""
        return {
            "modulus": self.modulus,
            "generator_exponents": self._reduced(),
            "order": self.order,
            "conductor": self.modulus,
            "parity": self.parity,
            "d_chi": self.d_chi,
            "label": self.label(),
        }

    def _key(self):
        return (self.p, self.modulus, self.exponents)

    def __eq__(self, other):
        return isinstance(other, DirichletCharacter) and self._key() == other._key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<character {self.label()} mod {self.modulus} (p={self.p})>"


def _generated_subgroup(gens, n: int) -> list:
    """The subgroup of (Z/n)^x that the units gens generate, grown breadth
    first from 1, which comes first."""
    elems, seen = [1], {1}
    for x in elems:  # the list grows while it is walked
        for g in gens:
            y = x * g % n
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return elems


@lru_cache(maxsize=None)
def _local_degree(order: int, p: int) -> int:
    """d_chi = [Q_p(values of chi) : Q_p] for a character of this order."""
    a, n = split_prime_part(order, p)
    return euler_phi(p ** a) * (1 if n == 1 else mul_order(p, n))


def _cyclic_dual(q: int, n: int) -> list:
    """The characters of the cyclic block (Z/q)^x = <g> of even order n, q
    an odd prime power or 4 and g the generator of unit_group(q), one entry
    per exponent e with chi(g) = zeta_n^e, in order of e: (conductor factor
    c, the exponents on the generator of (Z/c)^x, order, parity).  The order
    is n / gcd(e, n), and c is ell^(1 + v_ell(order)) for q a power of ell,
    or 1 for the trivial character.  The generator of (Z/c)^x is g^d in
    (Z/q)^x, one lift log per c, and (Z/q)^x -> (Z/c)^x has the kernel
    <g^(n_c)> of order r = n / n_c, so chi factors through (Z/c)^x with
    exponent (e / r) d; chi(-1) = chi(g^(n/2)) = (-1)^e.  Each entry's
    conductor is read once, on (Z/c)^x."""
    units = unit_group(q)
    ell = q // math.gcd(q, n)
    lifts = {}  # order -> (c, unit_group(c), r, d, n_c)
    entries = []
    for e in range(n):
        order = n // math.gcd(e, n)
        lift = lifts.get(order)
        if lift is None:
            c = ell * math.gcd(order, q) if order > 1 else 1
            cond = unit_group(c)
            d = units.dlog(cond.generators[0])[0] if c > 1 else 0
            lift = lifts[order] = (c, cond, n // cond.phi, d, cond.phi)
        c, cond, r, d, n_c = lift
        if e % r:
            raise InvariantViolationError(f"a character mod {q} does not factor through its conductor {c}")
        local = (e // r * d % n_c,) if c > 1 else ()
        if cond.conductor(local) != c:
            raise InvariantViolationError(f"a character mod {q} is not primitive mod its conductor {c}")
        entries.append((c, local, order, -1 if e % 2 else 1))
    return entries


def _two_dual(q: int, n: int) -> list:
    """The characters of (Z/q)^x = <-1> x <3>, q = 2^a with a >= 3 and n =
    q / 4 the order of 3, one entry per exponent pair (s, y) with chi(-1) =
    (-1)^s and chi(3) = zeta_n^y, in lexicographic order, laid out as in
    `_cyclic_dual`.  The conductor c is read from (Z/q)^x.  At c = 4, chi(3)
    = chi(-1): the exponent on the generator 3 of (Z/4)^x is s.  At c >= 8,
    (Z/c)^x has the pair (-1, 3), and the exponents are (s, y / r) with r =
    n / (c / 4) the order of the kernel of <3> -> (Z/c)^x."""
    units = unit_group(q)
    entries = []
    for s, y in itertools.product(range(2), range(n)):
        c = units.conductor((s, y))
        cond = unit_group(c)
        if c <= 4:
            local = (s,) if c == 4 else ()
        else:
            r = n // cond.orders[1]
            if y % r:
                raise InvariantViolationError(f"a character mod {q} does not factor through its conductor {c}")
            local = (s, y // r)
        if cond.conductor(local) != c:
            raise InvariantViolationError(f"a character mod {q} is not primitive mod its conductor {c}")
        entries.append((c, local, max(s + 1, n // math.gcd(y, n)), -1 if s else 1))
    return entries


def _block_duals(units) -> tuple:
    """For each block of `units`, the orders of its generators and its dual
    (`_cyclic_dual`, `_two_dual`), whose entry for the local exponents
    (e_1, ..., e_k) sits at their mixed-radix index."""
    return tuple(((n,), _cyclic_dual(q, n)) if kind == "cyclic" else ((2, n), _two_dual(q, n))
                 for kind, q, _, n, _ in units.blocks)


# the duals `_primitive` read last; an enumeration's duals go with it
_latest_block_duals = lru_cache(maxsize=1)(_block_duals)


def _assembled(p: int, entries) -> DirichletCharacter:
    """The character that is the given entry on each block (by CRT): its
    modulus is the product of the conductor factors, its exponents their
    concatenation, its order their lcm and its parity their product.  Each
    entry is primitive mod its factor, so the character is primitive."""
    if len(entries) == 1:
        modulus, exponents, order, parity = entries[0]
    else:
        modulus, exponents, order, parity = 1, (), 1, 1
        for c, local, o, s in entries:
            modulus *= c
            exponents += local
            order = math.lcm(order, o)
            parity *= s
    chi = DirichletCharacter.__new__(DirichletCharacter)
    chi._fill(p, unit_group(modulus), exponents, order, parity)
    return chi


def _primitive(p: int, units, exponents: tuple) -> DirichletCharacter:
    """The primitive character inducing the character with these exponents
    on the generators of `units`, assembled from one entry per block."""
    entries = []
    i = 0
    for orders, dual in _latest_block_duals(units):
        k = 0
        for n in orders:
            k = k * n + exponents[i] % n
            i += 1
        entries.append(dual[k])
    return _assembled(p, entries)


@lru_cache(maxsize=None)
def omega(p: int) -> DirichletCharacter:
    """The Teichmueller character, pinned by omega(g) = zeta_{p-1} for the
    smallest primitive root g mod p."""
    _check_odd_prime(p)
    return DirichletCharacter(p, p, (1,))


def compose(chi: DirichletCharacter, psi: DirichletCharacter, e1: int, e2: int) -> DirichletCharacter:
    """The primitive character inducing chi^e1 * psi^e2.  At a generator g of
    order n of the common modulus, chi(g) = zeta_ord^k is zeta_n^{k n / ord},
    an integer exponent because chi(g)^n = 1."""
    if chi.p != psi.p:
        raise ValueError("characters live over different primes")
    units = unit_group(math.lcm(chi.modulus, psi.modulus))
    exponents = tuple(
        (e1 * chi.exponent_at(g) * n // chi.order + e2 * psi.exponent_at(g) * n // psi.order) % n
        for g, n in zip(units.generators, units.orders)
    )
    return _primitive(chi.p, units, exponents)


class FieldSpec(FrozenValue):
    """K = F(mu_p) for F the subfield of Q(mu_f) fixed by H <= (Z/f)^x.

    gcd(f, p) = 1, so K/Q is ramified at p exactly through mu_p.  The level-n
    layer K_n sits inside Q(mu_{f p^{n+1}}).  The subgroup is held as its
    canonical generators: the least element of H outside the span of those
    before it, taken in turn until they span H, so every spelling of one H
    gives one FieldSpec.  `tame_records` maps each tame prime q that has
    been asked about to its `frobenius.TameData`, which holds the tame
    quotient (Z/f_q)^x / H_q and its <q>-orbits, built on first use; it is
    not a field, and each instance starts with none.
    """

    _fields = ("p", "f", "subgroup")  # no __slots__: the cached properties need a __dict__

    def __init__(self, p: int, f: int = 1, subgroup: tuple = ()):
        _check_odd_prime(p)
        if f < 1:
            raise ValueError("f must be a positive integer")
        if math.gcd(f, p) != 1:
            raise ValueError("f must be prime to p")
        gens = []
        for h in subgroup:
            h %= f
            if math.gcd(h, f) != 1:
                raise ValueError(f"subgroup generator {h} is not a unit mod {f}")
            if h != 1 % f:
                gens.append(h)
        elements = frozenset(_generated_subgroup(gens, f))
        gens, span = [], {1}
        for h in sorted(elements - span):
            if h not in span:
                gens.append(h)
                span = set(_generated_subgroup(gens, f))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "subgroup", tuple(gens))
        object.__setattr__(self, "subgroup_elements", elements)
        object.__setattr__(self, "tame_records", {})

    @cached_property
    def group_order(self) -> int:
        return self.tame_degree() * (self.p - 1)

    def tame_degree(self) -> int:
        phi_f = euler_phi(self.f)
        hsize = len(self.subgroup_elements)
        if phi_f % hsize:
            raise InvariantViolationError("H size does not divide phi(f)")
        return phi_f // hsize


def enumerate_characters(field: FieldSpec) -> list:
    """All characters of G = Gal(K/Q), primitive, in lexicographic exponent
    order on the fixed generators of (Z/fp)^x: each is assembled from one
    entry of each block's dual, the entries taken in the blocks' order."""
    p, f = field.p, field.f
    units = unit_group(f * p)
    combos = itertools.product(*(dual for _, dual in _block_duals(units)))
    if field.subgroup:
        top = math.lcm(1, *units.orders)
        # chi is trivial on h iff sum_i e_i x_i / n_i is an integer, x = dlog(h);
        # the exponent vectors e come in the order of the combinations of entries
        h_weights = [
            tuple(x * (top // n) for x, n in zip(units.dlog(crt(h, f, 1, p)), units.orders))
            for h in field.subgroup
        ]
        expos = itertools.product(*(range(n) for n in units.orders))
        combos = (combo for combo, e in zip(combos, expos)
                  if all(sum(map(operator.mul, e, hw)) % top == 0 for hw in h_weights))
    chars = [_assembled(p, combo) for combo in combos]
    if len(chars) != field.group_order:
        raise InvariantViolationError(
            f"enumerated {len(chars)} characters, expected {field.group_order}"
        )
    return chars


@lru_cache(maxsize=None)
def _conjugating_exponents(order: int, p: int) -> tuple:
    """The t of the local Galois action chi -> chi^t on characters of this
    order, t = p^j on the prime-to-p part and any unit on the p-part: the
    subgroup of (Z/order)^x they form, grown from t = 1, which comes first."""
    a, n0 = split_prime_part(order, p)
    pa = p ** a
    tgens = []
    if n0 > 1:
        tgens.append(crt(p % n0, n0, 1, pa))
    if pa > 1:
        tgens.append(crt(1, n0, smallest_primitive_root(pa), pa))
    return tuple(_generated_subgroup(tgens, order))


def conjugacy_classes(chars: list) -> list:
    """Partition of the full dual into Q_p-conjugacy classes.

    For t prime to chi's order, chi^t is primitive at chi's modulus with
    exponents e_i t mod n_i: orbits are found by exponent lookup in an index
    of `chars`, building no character, with one t-set per (order, p) led by
    t = 1, so a singleton class looks nothing up (and a field of singletons
    builds no index).  Each class has size d_chi
    and its members share order, conductor, parity and d_chi; the class
    representative is its earliest member in `chars`, whose objects the
    members are, so a label or an S_chi test kept on one serves both lists.
    """
    index = None
    seen = set()
    classes = []
    for i, c in enumerate(chars):
        if i in seen:
            continue
        orbit = [c]
        ts = _conjugating_exponents(c.order, c.p)
        if len(ts) > 1:
            if index is None:
                index = {(m.modulus, m.exponents): j for j, m in enumerate(chars)}
            orders = c.units.orders
            members = [index.get((c.modulus, tuple(e * t % n for e, n in zip(c.exponents, orders))))
                       for t in ts]
            if None in members:
                raise InvariantViolationError("conjugate escaped the dual group")
            seen.update(members)
            orbit = [chars[j] for j in sorted(members)]
            if len({(m.conductor, m.parity, m.d_chi, m.order) for m in orbit}) != 1:
                raise InvariantViolationError("conjugates disagree on cached data")
        if len(orbit) != c.d_chi:
            raise InvariantViolationError("conjugacy class size != d_chi")
        classes.append(orbit)
    if sum(len(cl) for cl in classes) != len(chars):
        raise InvariantViolationError("class sizes do not sum to |G|")
    return classes


def class_representatives(chars: list, p: int) -> list:
    """The first member of each class.  `p` is unused (each character
    carries its own); it stays because `benchmarks/checks.py` passes it."""
    return [cl[0] for cl in conjugacy_classes(chars)]


@lru_cache(maxsize=1)
def field_characters(field: FieldSpec) -> tuple:
    """(characters, classes) of the field, both tuples, for the most recent
    field only: consecutive jobs on one field share them, and with them each
    character's label and S_chi tests.  A miss runs enumerate_characters and
    conjugacy_classes, with all their checks."""
    chars = enumerate_characters(field)
    return tuple(chars), tuple(map(tuple, conjugacy_classes(chars)))
