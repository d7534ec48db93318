"""Seeded job lists for the four benchmark workloads.

A workload is a fixed template of fields and example primes.  The seed swaps
every example prime q0 for another prime q with q = q0 mod f * p^L, chosen
from a fixed range.  Primes in one such class have the same inertia,
character values, Frobenius orders and m_q at every level the jobs reach,
so each seed yields different job documents with the same amount of work.
The job order is fixed: a job's time depends on what ran before it in the
same process (warm caches, garbage left behind), so a seed that reordered the
jobs would move single-job times by ~10 % without any change to the program.

This module imports nothing from tamerank: the program receives only the
generated documents.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("rank-sweep", "lambda-minus", "oracle-grid", "chars-cyclic")

# How many multiples of the class modulus f * p^L the seed may look through
# for an equivalent prime.  Rank jobs read q through chi(q), m_q <= 1 and the
# p-part of sigma_p: L = 3.  Oracle jobs need more; see _oracle_exponent.
CLASS_SPAN = 40
RANK_CLASS_EXPONENT = 3
# tamerank.residue.SNF_GUARD_DIGITS: Smith reduction works mod p^(e_n + 4).
SNF_GUARD_DIGITS = 4

TABLE_ALL_ZERO = {"mode": "table", "table": {"all": 0}}
AUTO_OMEGA_ZERO = {"mode": "auto", "table": {"omega^1": 0}}

# rank-sweep: (p, f, H, example primes of the chain, in growth order).
RANK_LADDER = (
    (5, 11, [], [2, 3, 7, 13]),
    (7, 15, [], [2, 11, 13, 17, 23]),
    (11, 21, [], [2, 5, 13]),
    (11, 35, [6], [2, 3, 13, 17]),
    (13, 77, [34], [2, 3]),
    (13, 105, [2], [11, 17, 19]),
)

# lambda-minus: distinct fields, no field repeats.  (p, f) for lambda jobs,
# (p, f, example S) for rank jobs in auto mode.
LAMBDA_FIELDS = ((23, 1), (29, 1), (31, 1), (37, 1), (7, 13), (11, 7), (13, 5))
LAMBDA_RANK_FIELDS = (
    (17, 1, [2, 3]),
    (19, 1, [2, 3]),
    (7, 5, [2, 3]),
    (5, 7, [2, 3]),
    (7, 9, [2, 5]),
    (5, 13, [2, 3]),
)

# oracle-grid: (p, f, H, example S, oracle_levels or None), one job per field.
# The jobs with levels [1, 2] use primes that stabilize at level 0, so they
# run one level above the default pair [0, 1].
ORACLE_GRID = (
    (3, 1, [], [2, 5, 17, 53], None),
    (3, 7, [], [17, 19, 37], None),
    (3, 8, [], [5, 7, 11, 53], None),
    (5, 1, [], [2, 3, 7, 11, 43], None),
    (5, 7, [], [2, 3, 13, 43], None),
    (5, 8, [], [7, 13, 17, 43], None),
    (5, 21, [], [3, 13, 41], None),
    (7, 1, [], [2, 3, 19, 31], None),
    (7, 8, [], [2, 3, 5, 11], None),
    (3, 7, [6], [13, 29, 41], [1, 2]),
    (5, 7, [6], [2, 3, 13], [1, 2]),
    (5, 8, [3], [2, 3, 13], [1, 2]),
    (5, 21, [8], [2, 17], [1, 2]),
    (7, 8, [3], [3, 13], [1, 2]),
    (3, 8, [3], [5, 7, 11], [1, 2]),
)

# chars-cyclic: one prime p from each band, f = 1.  The bands are narrow and
# adjacent, so the jobs are of about the same size (0.3-0.4 s each) and the
# seed moves each job's work by a few percent at most.
CHARS_BANDS = ((1000, 1040), (1040, 1080), (1080, 1120), (1120, 1160),
               (1160, 1200), (1200, 1240), (1240, 1280))


def is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact below 3.2e9."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def m_index(q: int, p: int) -> int:
    x, v = pow(q, p - 1) - 1, 0
    while x % p == 0:
        x //= p
        v += 1
    return v - 1


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def _oracle_exponent(q0: int, p: int, f: int, levels) -> int:
    """L such that q = q0 mod f * p^L fixes every residue an oracle job reads.

    The job reads q mod f * p^(e + 4) at its top level n1, where the exponent
    e <= max(m_q, n1) + 1 + v_p(phi(f)), and n1 is the given top level or one
    above the stabilization level, which is at most m_q + v_p(phi(f)).
    """
    m, vf = m_index(q0, p), _vp(_euler_phi(f), p)
    top = levels[1] if levels is not None else m + vf + 1
    return max(m, top) + 1 + vf + SNF_GUARD_DIGITS


def equivalent_prime(rng: random.Random, q0: int, modulus: int, p: int) -> int:
    """A prime q = q0 mod modulus with the same m_q, drawn by rng."""
    pool = [
        q
        for q in range(q0 % modulus, CLASS_SPAN * modulus, modulus)
        if is_prime(q) and m_index(q, p) == m_index(q0, p)
    ]
    return rng.choice(pool)


def _job(command: str, doc: dict) -> tuple:
    return command, json.dumps(doc, sort_keys=True)


def _rank_sweep(rng: random.Random) -> list:
    jobs = []
    for p, f, H, example in RANK_LADDER:
        chain = [equivalent_prime(rng, q0, f * p ** RANK_CLASS_EXPONENT, p) for q0 in example]
        for k in range(1, len(chain) + 1):
            doc = {"p": p, "f": f, "H": H, "S": chain[:k], "lambda": TABLE_ALL_ZERO}
            jobs.append(_job("rank", doc))
    return jobs


def _lambda_minus(rng: random.Random) -> list:
    # The small rank jobs go first, so the cold first job of the worker is not
    # the median job (the lambda job on p = 23).
    jobs = []
    for p, f, example in LAMBDA_RANK_FIELDS:
        S = [equivalent_prime(rng, q0, f * p ** RANK_CLASS_EXPONENT, p) for q0 in example]
        jobs.append(_job("rank", {"p": p, "f": f, "S": S, "lambda": AUTO_OMEGA_ZERO}))
    return jobs + [_job("lambda", {"p": p, "f": f}) for p, f in LAMBDA_FIELDS]


def _oracle_grid(rng: random.Random) -> list:
    jobs = []
    for p, f, H, example, levels in ORACLE_GRID:
        S = [equivalent_prime(rng, q0, f * p ** _oracle_exponent(q0, p, f, levels), p)
             for q0 in example]
        doc = {"p": p, "f": f, "H": H, "S": S}
        if levels is not None:
            doc["oracle_levels"] = levels
        jobs.append(_job("oracle", doc))
    return jobs


def _chars_cyclic(rng: random.Random) -> list:
    jobs = []
    for lo, hi in CHARS_BANDS:
        p = rng.choice([q for q in range(lo, hi) if is_prime(q)])
        jobs.append(_job("chars", {"p": p, "f": 1}))
    return jobs


_BUILDERS = {
    "rank-sweep": _rank_sweep,
    "lambda-minus": _lambda_minus,
    "oracle-grid": _oracle_grid,
    "chars-cyclic": _chars_cyclic,
}


def generate(workload: str, seed: int) -> list:
    """[(command, job document text)] for the workload; same seed, same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
