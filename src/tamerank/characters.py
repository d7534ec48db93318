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
    """zeta_order^k, held in lowest terms with 0 <= k < order."""

    __slots__ = _fields = ("k", "order")

    def __init__(self, k: int, order: int):
        g = math.gcd(k, order)
        object.__setattr__(self, "k", k % order // g)
        object.__setattr__(self, "order", order // g)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.order, other.order)
        return RootOfUnity(self.k * (n // self.order) + other.k * (n // other.order), n)

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity(self.k * e, self.order)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.k, self.order)

    def exponent_for(self, order: int) -> int:
        """Integer k with self = zeta_order^k; order must be a multiple."""
        if order % self.order:
            raise ValueError(f"order {self.order} does not divide {order}")
        return self.k * (order // self.order)

    def order_is_p_power(self, p: int) -> bool:
        return split_prime_part(self.order, p)[1] == 1

    def __repr__(self):
        return f"zeta({self.k}/{self.order})"


ONE = RootOfUnity(0, 1)


class DirichletCharacter:
    """A primitive Dirichlet character attached to an ambient odd prime p,
    held as one integer exponent per generator of unit_group(modulus)."""

    __slots__ = ("p", "modulus", "units", "exponents", "order", "_weights", "parity", "d_chi",
                 "_hash", "_label", "admissible_at", "_at_points")

    def __init__(self, p: int, modulus: int, exponents: tuple, _conductor: int = None):
        # `_primitive` passes the conductor it has just read; any other
        # construction reads it here
        self.p = p
        self.modulus = modulus
        self.units = units = unit_group(modulus)
        orders = units.orders
        if len(exponents) != len(orders):
            raise ValueError("one exponent per unit-group generator required")
        self.exponents = exponents = tuple(map(operator.mod, exponents, orders))
        if _conductor is None:
            _conductor = units.conductor(exponents)
        if _conductor != modulus:
            raise ValueError(f"the exponents do not define a primitive character mod {modulus}")
        self.order = order = math.lcm(*map(operator.floordiv, orders, map(math.gcd, exponents, orders)))
        # chi(a) = zeta_order^k with k = sum_i w_i x_i for x = dlog(a), w_i = e_i order / n_i
        self._weights = tuple(map(operator.floordiv, map(order.__mul__, exponents), orders))
        self.parity = -1 if self._exponent_at(units.minus_one) else 1
        self.d_chi = _local_degree(order, p)
        self._hash = hash((p, modulus, exponents))
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

    def _exponent_at(self, logs) -> int:
        return sum(map(operator.mul, self._weights, logs)) % self.order

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
        for g, n, w in zip(self.units.generators, self.units.orders, self._weights):
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
        pairs = zip(self.exponents, self.units.orders)
        return [[e // math.gcd(e, n), n // math.gcd(e, n)] for e, n in pairs]

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
            "conductor": self.conductor,
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


@lru_cache(maxsize=None)
def _lift_logs(modulus: int, conductor: int) -> tuple:
    """dlog mod `modulus` of a unit lift of each generator of (Z/conductor)^x."""
    units = unit_group(modulus)
    out = []
    for g in unit_group(conductor).generators:
        while math.gcd(g, modulus) != 1:
            g += conductor
        out.append(units.dlog(g))
    return tuple(out)


def _primitive(p: int, units, exponents: tuple) -> DirichletCharacter:
    """The primitive character inducing the character with these exponents on
    the generators of `units`: each generator of the conductor's own unit
    group is evaluated once through a lift."""
    cond = units.conductor(exponents)
    if cond == units.modulus:
        return DirichletCharacter(p, cond, exponents, cond)
    top = math.lcm(1, *units.orders)
    weights = [e * (top // n) for e, n in zip(exponents, units.orders)]
    out = []
    for logs, n in zip(_lift_logs(units.modulus, cond), unit_group(cond).orders):
        k = sum(w * x for w, x in zip(weights, logs)) * n
        if k % top:
            raise InvariantViolationError("value on a conductor generator has the wrong order")
        out.append(k // top)
    return DirichletCharacter(p, cond, tuple(out))


def trivial_character(p: int) -> DirichletCharacter:
    return DirichletCharacter(p, 1, ())


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
    been asked about to its `frobenius.TameData`, built on first use; it is
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

    def tame_quotient(self, q: int) -> "FieldSpec":
        """The field with the q-part of the tame conductor (inertia) removed."""
        fq = split_prime_part(self.f, q)[1]
        return FieldSpec(self.p, fq, tuple(h % fq for h in self.subgroup))

    def tame_degree(self) -> int:
        phi_f = euler_phi(self.f)
        hsize = len(self.subgroup_elements)
        if phi_f % hsize:
            raise InvariantViolationError("H size does not divide phi(f)")
        return phi_f // hsize


def enumerate_characters(field: FieldSpec) -> list:
    """All characters of G = Gal(K/Q), primitive, in lexicographic exponent
    order on the fixed generators of (Z/fp)^x."""
    p, f = field.p, field.f
    units = unit_group(f * p)
    top = math.lcm(1, *units.orders)
    # chi is trivial on h iff sum_i e_i x_i / n_i is an integer, x = dlog(h)
    h_weights = [
        tuple(x * (top // n) for x, n in zip(units.dlog(crt(h, f, 1, p)), units.orders))
        for h in field.subgroup
    ]
    expos = itertools.product(*(range(n) for n in units.orders))
    if h_weights:
        expos = (e for e in expos if all(sum(map(operator.mul, e, hw)) % top == 0 for hw in h_weights))
    chars = [_primitive(p, units, expo) for expo in expos]
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
