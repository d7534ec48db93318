"""Helpers that only the tests use: random prime sets, a per-(field, q)
Frobenius profile with its ramification test and the tame quotient it
reads, the element-walk level group (the oracle of the residue modules'
cosets), the level-to-level
norm-reduction check of the residue modules, the dense chi-quotient
presentation with the Smith reduction that counts it, the direct per-character Stickelberger buckets, the
complex-embedding oracle for lcm degrees of annihilator pairs (m, e), the
rational-tower prime count and rank, the two-level rank estimate, the
RootOfUnity arithmetic the oracles use (the product `root_times`, the power
`root_power`, the predicate `is_one` and the p-part `p_power_part`), the
RootOfUnity oracles of sigma0_ok, sigma_p_value and compose (the package
reads integer exponents and builds no RootOfUnity on these paths), the
one-at-a-time construction of a primitive character and of a field's
characters, the search oracles for the unit behind
sigma_p and for the stabilization level, the discrete log by trying every
power, and a read-only loader for the benchmark's modules, the conjugacy
classes built through chi.power(t), the Stickelberger residue cells and
the table built from them, a series' buckets and folded buckets as rows, the
block-by-block oracle of the fold, the trivial character, the product
and power in (Z/m)[x]/(g) reduced term by term, and `clear_memos`, which
empties every memo of the README's Caches table.
Test modules import them as `from helpers import ...`."""

import cmath
import importlib.util
import itertools
import math
import random
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

from tamerank import arith, characters, frobenius, localring, stickelberger
from tamerank.arith import (
    crt,
    is_prime,
    mul_order,
    padic_log,
    smallest_primitive_root,
    split_prime_part,
    teichmuller_residue,
    unit_group,
)
from tamerank.characters import DirichletCharacter, FieldSpec, RootOfUnity, omega
from tamerank.frobenius import (
    admissible,
    inertia_trivial,
    m_index,
    sigma_p_value,
    splitting_count,
)
from tamerank.errors import InvariantViolationError
from tamerank.localring import _pdivmod, local_ring
from tamerank.rank import _validate_s
from tamerank.residue import VALUATION_GUARD_DIGITS, quotient_growth, residue_module
from tamerank.stickelberger import WORD_BITS, ResidueTable, _fold, _pack, _slot_words, _table_units, _unpack


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name: str, monkeypatch):
    """Import benchmarks/<name>.py without writing bytecode under benchmarks/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def root_times(z: RootOfUnity, w: RootOfUnity) -> RootOfUnity:
    n = math.lcm(z.order, w.order)
    return RootOfUnity(z.k * (n // z.order) + w.k * (n // w.order), n)


def root_power(z: RootOfUnity, e: int) -> RootOfUnity:
    """z^e; root_power(z, -1) is the inverse of z."""
    return RootOfUnity(z.k * e, z.order)


def is_one(z: RootOfUnity) -> bool:
    return z.k == 0


def p_power_part(z: RootOfUnity, p: int) -> RootOfUnity:
    """The p-power-order part of z: for z of order p^a n with p not dividing
    n, the CRT split of the exponent kills the prime-to-p component."""
    a, n = split_prime_part(z.order, p)
    return root_power(z, n * pow(n, -1, p ** a))


def trivial_character(p: int) -> DirichletCharacter:
    return DirichletCharacter(p, 1, ())


def random_prime_sets(p: int, count: int, seed: int, pool_bound: int = 200) -> list:
    """Deterministic random subsets of primes != p, for consistency tests."""
    pool = [q for q in range(2, pool_bound) if is_prime(q) and q != p]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, 6)
        out.append(sorted(rng.sample(pool, size)))
    return out


def tame_quotient(field: FieldSpec, q: int) -> FieldSpec:
    """The field with the q-part of the tame conductor (inertia) removed:
    f_q, the prime-to-q part of f, with H reduced mod f_q as a FieldSpec
    reduces it, independent of how `frobenius.TameData` reduces H."""
    fq = split_prime_part(field.f, q)[1]
    return FieldSpec(field.p, fq, tuple(h % fq for h in field.subgroup))


def is_ramified(field: FieldSpec, q: int) -> bool:
    """Whether q ramifies in K, i.e. survives the H-quotient of the q-part
    of the conductor."""
    if q == field.p:
        return True
    return tame_quotient(field, q).tame_degree() < field.tame_degree()


@dataclass
class FrobeniusProfile:
    """Per-(field, q) decomposition data, cached for a list of characters."""

    field: FieldSpec
    q: int
    m_q: int
    ramified: bool
    per_chi: dict = dataclass_field(default_factory=dict)

    @classmethod
    def build(cls, field: FieldSpec, q: int, chars: list) -> "FrobeniusProfile":
        prof = cls(field, q, m_index(q, field.p), is_ramified(field, q))
        for chi in chars:
            ok = admissible(chi, q)
            entry = {"inertia_trivial": inertia_trivial(chi, q), "sigma0_ok": ok}
            if ok:
                entry["sigma_p_value"] = sigma_p_value(chi, q)
            prof.per_chi[chi] = entry
        return prof

    def to_dict(self) -> dict:
        out = {"q": self.q, "m_q": self.m_q, "ramified": self.ramified, "per_chi": {}}
        for chi, entry in self.per_chi.items():
            rec = {
                "inertia_trivial": entry["inertia_trivial"],
                "sigma0_ok": entry["sigma0_ok"],
            }
            if "sigma_p_value" in entry:
                # the exponent on zeta_{p^a}, p^a the p-part of ord chi
                pa = self.field.p ** split_prime_part(chi.order, self.field.p)[0]
                rec["sigma_p_exponent"] = [entry["sigma_p_value"], pa]
            out["per_chi"][chi.label()] = rec
        return out


# The element-walk oracle: the level group listed element by element, against
# which the tests check the cosets and tables that
# `tamerank.residue.residue_module` builds from the group's structure.
class _LevelGroup:
    """Gal(K_n/Q) modulo the inertia at q, as pairs of modular residues."""

    def __init__(self, field: FieldSpec, q: int, n: int):
        self.p = field.p
        self.quotient = tame_quotient(field, q)
        self.fq = self.quotient.f
        self.hset = self.quotient.subgroup_elements
        self.pmod = field.p ** (n + 1)
        # the least element of each class a H of Z/fq, looked up by a mod fq
        fq = self.fq
        self._least = [None] * fq
        for a in range(fq):
            if self._least[a] is None:
                orbit = [a * h % fq for h in self.hset]
                least = min(orbit)
                for x in orbit:
                    self._least[x] = least

    def canon(self, a: int) -> int:
        return self._least[a % self.fq]

    def element(self, a: int, b: int) -> tuple:
        return (self.canon(a), b % self.pmod)

    def mul(self, x: tuple, y: tuple) -> tuple:
        return (self._least[x[0] * y[0] % self.fq], x[1] * y[1] % self.pmod)

    def elements(self) -> list:
        tame = sorted({self.canon(a) for a in range(self.fq) if math.gcd(a, self.fq) == 1})
        wild = [b for b in range(1, self.pmod) if b % self.p != 0]
        return [(a, b) for a in tame for b in wild]


def norm_reduction_surjective(field: FieldSpec, q: int, n: int) -> bool:
    """Whether every level-n coset receives a level-(n+1) coset under the
    reduction map; with surjective finite-field norms this forces the
    induced map on coinvariant quotients to have trivial cokernel."""
    lo = residue_module(field, q, n)
    hi = residue_module(field, q, n + 1)
    glo = _LevelGroup(field, q, n)
    lo_loc = {}
    qbar = glo.element(q, q)
    for idx, c in enumerate(lo.cosets):
        x = c
        for _ in range(lo.residue_degree):
            lo_loc[x] = idx
            x = glo.mul(x, qbar)
    hit = set()
    for c in hi.cosets:
        hit.add(lo_loc[glo.element(c[0], c[1])])
    return len(hit) == lo.num_cosets


def _snf_exponent(rows: list, ncols: int, p: int, K: int) -> int:
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


def dense_chi_quotient_order(module, chi, part=None) -> int:
    """Oracle for `tamerank.residue.chi_quotient_order`: the same presentation
    written out densely, r * d columns (coordinate b of coset i is column
    i * d + b), one r * d block of rows per generator action, one for the
    +-part if asked, and p^e on every column, reduced as one Smith block."""
    p = module.field.p
    e = module.e_exp
    K = e + VALUATION_GUARD_DIGITS
    mod = p ** K
    ring = local_ring(chi.order, p, K)
    d = ring.dim
    r = module.num_cosets
    ncols = r * d
    q = module.q

    rows = []
    for point, table in module.gen_actions:
        value = chi.value(point)
        if value is None:
            raise InvariantViolationError("character evaluation hit a non-unit")
        Z = ring.root_matrix(value)
        for i in range(r):
            j, t = table[i]
            qt = pow(q, t, mod)
            for b in range(d):
                row = [0] * ncols
                row[j * d + b] = (row[j * d + b] + qt) % mod
                for c in range(d):
                    row[i * d + c] = (row[i * d + c] - Z[c][b]) % mod
                rows.append(row)
    if part is not None:
        sign = -1 if part == "plus" else 1 if part == "minus" else None
        if sign is None:
            raise ValueError("part must be 'plus', 'minus', or None")
        # kill the image of (1 -+ J): relations m_i -+ q^t m_{jJ}
        for i in range(r):
            j, t = module.j_action[i]
            qt = pow(q, t, mod)
            for b in range(d):
                row = [0] * ncols
                row[i * d + b] = (row[i * d + b] + 1) % mod
                row[j * d + b] = (row[j * d + b] + sign * qt) % mod
                rows.append(row)
    pe = pow(p, e)
    for c in range(ncols):
        row = [0] * ncols
        row[c] = pe
        rows.append(row)
    total = _snf_exponent(rows, ncols, p, K)
    if total > e * r * d:
        raise InvariantViolationError("chi-quotient larger than the module")
    return total


def rank_estimate(field: FieldSpec, q: int, chi, n0: int, n1: int) -> int:
    """Z_p-rank of the chi-quotient of the residue limit module, read off as
    the growth of chi-quotient orders between two stabilized levels."""
    if not n1 > n0 >= 0:
        raise ValueError("need levels n1 > n0 >= 0")
    return quotient_growth(residue_module(field, q, n0), residue_module(field, q, n1), chi)[2]


def rational_prime_count(p: int, q: int, n: int) -> int:
    """Number of primes above q at level n of the rational tower (the degree
    p^n layer of the cyclotomic Z_p-extension of Q)."""
    if q == p:
        raise ValueError("q must differ from p")
    pn1 = p ** (n + 1)
    tw = teichmuller_residue(q, p, n + 1)
    principal = q * pow(tw, -1, pn1) % pn1
    return p ** n // mul_order(principal, pn1)


def rank_rational(S, p: int) -> int:
    """Rank over the rational tower: sum p^{m_q} - max p^{m_q} over the
    q = 1 mod p members of S, and 0 when there are none."""
    S = _validate_s(S, p)
    selected = [q for q in S if q % p == 1]
    if not selected:
        return 0
    powers = [p ** m_index(q, p) for q in selected]
    return sum(powers) - max(powers)


def sigma0_ok_oracle(chi, q: int) -> bool:
    """Oracle for `tamerank.frobenius.sigma0_ok`: (omega chi^{-1})(q) built
    from RootOfUnity values and its order tested for a power of p."""
    p = chi.p
    if q == p:
        raise ValueError("q must differ from p")
    val = chi.value(q)
    if val is None:
        raise InvariantViolationError(
            "sigma0_ok called with q dividing the conductor; check inertia first"
        )
    return root_times(omega(p).value(q), root_power(val, -1)).order_is_p_power(p)


def sigma_p_value_oracle(chi, q: int):
    """Oracle for `tamerank.frobenius.sigma_p_value`: the p-power part z_p of
    chi^{-1}(q) taken as a RootOfUnity, raised to u^{-1} for the unit
    u = x_q / p^{m_q}, with both logarithms taken afresh on every call."""
    p = chi.p
    if not inertia_trivial(chi, q):
        raise ValueError("chi is ramified at q")
    zp = p_power_part(root_power(chi.value(q), -1), p)
    if is_one(zp):
        return zp
    a = split_prime_part(zp.order, p)[0]
    m = m_index(q, p)
    W = m + a + 2
    log_q = padic_log(pow(q, p - 1, p ** W), p, W)
    log_k0 = padic_log(1 + p, p, W)
    if log_q % p or log_k0 % p:
        raise InvariantViolationError("log of a principal unit is not divisible by p")
    den = (p - 1) * (log_k0 // p)
    if den % p == 0:
        raise InvariantViolationError("(p-1) log(1+p) / p is not a unit")
    mod = p ** (W - 1)
    x_q = log_q // p * pow(den, -1, mod) % mod
    pm = p ** m
    if x_q % pm or x_q // pm % p == 0:
        raise InvariantViolationError(f"Gamma-component valuation != m_q = {m}")
    return root_power(zp, pow(x_q // pm, -1, p ** a))


def primitive_oracle(p: int, units, exponents: tuple):
    """Oracle for `tamerank.characters._primitive`: the primitive character
    inducing the character with these exponents on the generators of
    `units`, built one at a time.  The conductor is read from the whole
    exponent vector; each generator of the conductor's unit group is lifted
    to a unit mod the modulus and evaluated through its discrete log; and the
    validating constructor reads the order, parity and primitivity."""
    cond = units.conductor(exponents)
    if cond == units.modulus:
        return DirichletCharacter(p, cond, exponents)
    top = math.lcm(1, *units.orders)
    weights = [e * (top // n) for e, n in zip(exponents, units.orders)]
    out = []
    conductor_units = unit_group(cond)
    for g, n in zip(conductor_units.generators, conductor_units.orders):
        while math.gcd(g, units.modulus) != 1:
            g += cond
        k = sum(w * x for w, x in zip(weights, units.dlog(g))) * n
        if k % top:
            raise InvariantViolationError("value on a conductor generator has the wrong order")
        out.append(k // top)
    return DirichletCharacter(p, cond, tuple(out))


def enumerate_characters_oracle(field: FieldSpec) -> list:
    """Oracle for `tamerank.characters.enumerate_characters`: every exponent
    vector on the generators of (Z/fp)^x in lexicographic order, kept when
    the character is trivial on each generator of H, passed to
    `primitive_oracle`."""
    p, f = field.p, field.f
    units = unit_group(f * p)
    top = math.lcm(1, *units.orders)
    h_weights = [[x * (top // n) for x, n in zip(units.dlog(crt(h, f, 1, p)), units.orders)]
                 for h in field.subgroup]
    return [primitive_oracle(p, units, e)
            for e in itertools.product(*(range(n) for n in units.orders))
            if all(sum(a * b for a, b in zip(e, hw)) % top == 0 for hw in h_weights)]


def compose_oracle(chi, psi, e1: int, e2: int):
    """Oracle for `tamerank.characters.compose`: the value of chi^e1 psi^e2
    at each generator of the common modulus built as a product of
    RootOfUnity powers, then read as that generator's exponent."""
    if chi.p != psi.p:
        raise ValueError("characters live over different primes")
    units = unit_group(math.lcm(chi.modulus, psi.modulus))
    exponents = tuple(
        root_times(root_power(chi.value(g), e1), root_power(psi.value(g), e2)).exponent_for(n)
        for g, n in zip(units.generators, units.orders)
    )
    return primitive_oracle(chi.p, units, exponents)


def gamma_unit_by_search(p: int, q: int, a: int) -> int:
    """Oracle for the unit behind `tamerank.frobenius.sigma_p_value`: the
    unique u mod p^a with (1+p)^{p^m u (p-1)} = q^{p-1} mod p^{m+a+1}, where
    m = m_q, found by trying every unit.  It takes no logarithm."""
    m = m_index(q, p)
    mod = p ** (m + a + 1)
    base = pow(1 + p, p ** m * (p - 1), mod)
    target = pow(q, p - 1, mod)
    found = [u for u in range(1, p ** a) if u % p and pow(base, u, mod) == target]
    if len(found) != 1:
        raise InvariantViolationError(f"{len(found)} units u for q = {q}, p = {p}, a = {a}")
    return found[0]


def log_by_search(target: int, g: int, order: int, q: int):
    """Oracle for the discrete logs of `tamerank.arith`: the least k below
    `order` with g^k = target mod q, found by trying every power of g in
    turn, or None when no power of g is target."""
    x, target = 1 % q, target % q
    for k in range(order):
        if x == target:
            return k
        x = x * g % q
    return None


SEARCH_BOUND = 16  # stabilization_level_by_search looks at levels below it


def stabilization_level_by_search(field: FieldSpec, q: int):
    """Oracle for `tamerank.frobenius.stabilization_level`: the first n below
    SEARCH_BOUND with f_{n+1} = p f_n, found by computing the residue degree
    level by level; None if there is none."""
    prev = splitting_count(field, q, 0).residue_degree
    for n in range(SEARCH_BOUND):
        nxt = splitting_count(field, q, n + 1).residue_degree
        if nxt == field.p * prev:
            return n
        prev = nxt
    return None


def conjugacy_orbit_by_power(chi) -> list:
    """Oracle for the orbits of `tamerank.characters.conjugacy_classes`: the
    orbit of chi under the local Galois action t: chi -> chi^t with t = p^j on
    the prime-to-p part of the order and arbitrary on the p-part, each member
    built as a new character by chi.power(t)."""
    n, p = chi.order, chi.p
    if n == 1:
        return [chi]
    a, n0 = split_prime_part(n, p)
    pa = p ** a
    tgens = []
    if n0 > 1:
        tgens.append(crt(p % n0, n0, 1, pa))
    if pa > 1:
        tgens.append(crt(1, n0, smallest_primitive_root(pa), pa))
    # the subgroup of (Z/n)^x generated by tgens, grown from 1
    ts = [1]
    for s in ts:
        for t in tgens:
            if s * t % n not in ts:
                ts.append(s * t % n)
    return [chi] + [chi.power(t) for t in ts[1:]]


def conjugacy_classes_by_power(chars: list) -> list:
    """Oracle for `tamerank.characters.conjugacy_classes`: each orbit from
    `conjugacy_orbit_by_power`, its members the objects of `chars` in their
    enumeration order."""
    index = {c: i for i, c in enumerate(chars)}
    seen = set()
    classes = []
    for c in chars:
        if c not in seen:
            orbit = [chars[i] for i in sorted(index[m] for m in conjugacy_orbit_by_power(c))]
            seen.update(orbit)
            classes.append(orbit)
    return classes


def direct_bucket_vectors(chi, n: int, N: int) -> tuple:
    """The level-n Stickelberger buckets of chi built directly, one pass over
    the residues mod f' p^{n+1} per character: the oracle for the shared
    residue table of `tamerank.stickelberger`."""
    p = chi.p
    m = chi.order
    fprime = split_prime_part(chi.conductor, p)[1]
    cond = chi.conductor
    pn = p ** n
    pn1 = p ** (n + 1)
    M = fprime * pn1

    # discrete log table for the principal units, base 1+p
    dlog = {}
    x = 1
    for j in range(pn):
        dlog[x] = j
        x = x * (1 + p) % pn1
    iteich = [None] + [pow(teichmuller_residue(r, p, n + 1), -1, pn1) for r in range(1, p)]

    chi_exp = chi.value_exponents()

    counts = [[0] * m for _ in range(pn)]
    for a in range(1, M):
        if a % p == 0:
            continue
        if fprime > 1 and math.gcd(a, fprime) != 1:
            continue
        k = -chi_exp[a % cond] % m  # the exponent of chi^{-1}(a)
        j = dlog[a * iteich[a % p] % pn1]
        counts[j][k] += a

    # combine the exponent buckets into ring vectors and divide by -M
    work = N + n + 3
    ring = local_ring(m, p, work)
    modw = ring.mod
    inv_f = pow(fprime, -1, modw)
    pdivisor = pn1
    vectors = []
    zvecs = [ring.zeta_vector(k) for k in range(m)]
    for j in range(pn):
        acc = [0] * ring.dim
        row = counts[j]
        for k in range(m):
            c = row[k]
            if c == 0:
                continue
            zv = zvecs[k]
            for i in range(ring.dim):
                acc[i] = (acc[i] + c * zv[i]) % modw
        out = []
        for v in acc:
            w = (-v) * inv_f % modw
            if w % pdivisor:
                raise InvariantViolationError(
                    "Stickelberger coefficient is not p-integral; "
                    "this construction only applies to odd characters != omega"
                )
            out.append((w // pdivisor) % p ** N)
        vectors.append(out)
    return vectors, local_ring(m, p, N)


def residue_cells(fprime: int, p: int, n: int) -> list:
    """Row r of the level-n residue table cell by cell: for each unit r of
    `_table_units(f', p)`, the a mod M = f' p^{n+1} with a = r mod f' and a =
    omega(r) u mod p^{n+1}, for u = (1+p)^j, j in Z/p^n, and at u = 1+p; each
    a by CRT, lifted from r mod f'."""
    pn1 = p ** (n + 1)
    inv = pow(fprime, -1, pn1)
    u = [pow(1 + p, j, pn1) for j in range(p ** n)] + [1 + p]
    rows = []
    for r in _table_units(fprime, p):
        rf, w = r % fprime, teichmuller_residue(r, p, n + 1)
        rows.append([rf + fprime * ((w * uj - rf) * inv % pn1) for uj in u])
    return rows


def residue_table_by_cells(fprime: int, p: int, n: int) -> ResidueTable:
    """The oracle for `tamerank.stickelberger._residue_table`, from
    `residue_cells`: rho_r = a(r, u = 1) and sigma_r = a(r, u = 1+p) - rho_r
    mod M; each floor F = (rho_r + sigma_r v_j - a) / M, which must divide
    exactly; the scalars alpha_r = M - 2 rho_r and beta_r = -2 sigma_r mod
    p^{N+n+1}, put side by side at the split; the steps v_j, the ones and the
    mask slot by slot."""
    pn1 = p ** (n + 1)
    M = fprime * pn1
    N = stickelberger.DEFAULT_PRECISION
    Q, digits = p ** (N + n + 1), stickelberger._work_digits(max(n, stickelberger.MAX_LEVEL))
    rows = residue_cells(fprime, p, n)
    words = _slot_words(len(rows), fprime, p, n)
    v = [(pow(1 + p, j, pn1) - 1) // p for j in range(p ** n)]
    columns, scalars = [], []
    for r, cells in zip(_table_units(fprime, p), rows):
        rho, sigma = cells[0], (cells[-1] - cells[0]) % M
        floors = []
        for j, (a, vj) in enumerate(zip(cells, v)):
            F, rest = divmod(rho + sigma * vj - a, M)
            if rest:
                raise InvariantViolationError(f"cell ({r}, {j}) is not rho + sigma v_j mod M")
            floors.append(F)
        columns.append(_pack(floors, words))
        scalars.append(((M - 2 * rho) % Q, -2 * sigma % Q))
    split = (len(rows) * (p ** digits - 1) * (Q - 1)).bit_length()  # above any sum of c_r alpha_r
    bound = (p ** N - 1) * (1 + (len(rows) + 1) * (p ** n - 1)) + 1  # s0 + s1 v_j + sum m_r F_{r,j}
    S = WORD_BITS * words
    top = (1 << S) - (1 << S - (p ** N).bit_length())  # the top bit_length(p^N) bits of a slot
    return ResidueTable(tuple(columns), tuple(a + (b << split) for a, b in scalars), split,
                        _pack(v, words), words, _pack([1] * len(v), words), _pack([top] * len(v), words),
                        bound)


def bucket_coefficients(series) -> list:
    """The series' coefficients on the (1+T)^j basis, one vector per bucket."""
    return [list(v) for v in zip(*series.bucket_columns)]


def folded_columns(series, lower_level: int) -> list:
    """The series' bucket_columns reduced mod (1+T)^{p^lower_level} - 1 (slot
    r sums the slots j = r mod p^lower_level), each packed sum folded and
    only its folded slots unpacked."""
    size, words = series.chi.p ** lower_level, series.table.words
    modN = series.chi.p ** series.precision
    return [[y % modN for y in _unpack(_fold(x, series.length, words, size), size, words)]
            for x in series.sums]


def folded_buckets(series, lower_level: int) -> list:
    """The bucket coefficients reduced mod (1+T)^{p^lower_level} - 1, one
    vector per folded bucket: row r sums the rows j = r mod p^lower_level."""
    return [list(v) for v in zip(*folded_columns(series, lower_level))]


def fold_by_blocks(x: int, count: int, words: int, size: int) -> int:
    """The oracle of `stickelberger._fold`: the count / size blocks of `size`
    slots of x, cut from one to_bytes and added one block at a time."""
    data = memoryview(x.to_bytes(WORD_BITS // 8 * words * count, "little"))
    width = WORD_BITS // 8 * words * size
    return sum(int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width))


def qmul_reference(a, b, g, mod) -> tuple:
    """The oracle of `localring._qmul`: a * b reduced mod `mod` term by term,
    then divided by the monic g, padded to deg g coordinates."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % mod
    rem = [c % mod for c in _pdivmod(out, g)[1]]
    return tuple(rem + [0] * (len(g) - 1 - len(rem)))


def qpow_reference(a, e: int, g, mod) -> tuple:
    """The oracle of `localring._qpow`: e products by qmul_reference."""
    result = tuple([1] + [0] * (len(g) - 2))
    for _ in range(e):
        result = qmul_reference(result, a, g, mod)
    return result


_K0 = 1.337  # any fixed real > 1; stands in for kappa0 = 1 + p


def lcm_degree_oracle(p: int, pa: int, pairs: list, tol: float = 1e-9) -> int:
    """Oracle for `tamerank.annihilators.lcm_degree`: count the union of the
    root sets of the pairs (m, e) on zeta_pa after embedding them into C.

    The roots of (m, e) are K0 * e((e + j pa)/(pa p^m)) for 0 <= j < p^m;
    two roots coincide exactly when the corresponding p-power roots of unity
    are equal, so a tolerance merge counts the union faithfully.
    """
    if not pairs:
        raise ValueError("need at least one polynomial")
    points: list = []
    for m, e in pairs:
        degree = p ** m
        for j in range(degree):
            angle = 2.0 * cmath.pi * (e / pa + j) / degree
            z = _K0 * cmath.exp(1j * angle)
            if all(abs(z - w) > tol for w in points):
                points.append(z)
    return len(points)


# Every memo of the README's Caches table, under the first name its row
# gives.  A process-wide memo maps to the call that empties it; a memo kept
# on an object maps to None, as the object is dropped with the process-wide
# memos that hold it, or is built afresh by the next job
MEMOS = {
    "arith._check_odd_prime": arith._check_odd_prime.cache_clear,
    "arith.unit_group": arith.unit_group.cache_clear,
    "arith.unit_dlog": arith.unit_dlog.cache_clear,
    "characters._local_degree": characters._local_degree.cache_clear,
    "characters._latest_block_duals": characters._latest_block_duals.cache_clear,
    "characters.omega": characters.omega.cache_clear,
    "characters._conjugating_exponents": characters._conjugating_exponents.cache_clear,
    "characters.field_characters": characters.field_characters.cache_clear,
    "DirichletCharacter._label": None,
    "DirichletCharacter._weights": None,
    "DirichletCharacter.admissible_at": None,
    "DirichletCharacter._at_points": None,
    "FieldSpec.group_order": None,
    "FieldSpec.tame_records": None,
    "frobenius.m_index": frobenius.m_index.cache_clear,
    "localring.cyclotomic_poly": localring.cyclotomic_poly.cache_clear,
    "localring._pinned_root_mod_p": localring._pinned_root_mod_p.cache_clear,
    "localring.local_ring": localring.local_ring.cache_clear,
    "LocalCoefficientRing._xpow": None,
    "ResidueModule.forests": None,
    "_Forest.valuations": None,
    "_Forest": None,  # the twists q^(-t) of one forest's walk
    "stickelberger._TableCache": lambda: stickelberger._TABLES.__init__(),
    "_TableCache.unit_logs": None,  # held by the _TableCache
    "_TableCache.scaled_zeta": None,
    "stickelberger._character_columns": stickelberger._character_columns.cache_clear,
    "StickelbergerSeries.bucket_columns": None,
    "cli.JobConfig.field": None,
    "LambdaProvider._shared": None,
}


def clear_memos() -> None:
    """Empty every process-wide memo, so the next job starts as in a fresh
    interpreter."""
    for clear in MEMOS.values():
        if clear is not None:
            clear()
