"""The constants that the benchmark's seeded workloads copy from tamerank
agree with the package: the seeds keep equal work only if they do."""

import tamerank.residue
from helpers import load_benchmark_module
from tamerank.arith import is_prime
from tamerank.frobenius import m_index


def test_guard_digits_match(monkeypatch):
    workloads = load_benchmark_module("workloads", monkeypatch)
    assert workloads.SNF_GUARD_DIGITS == tamerank.residue.VALUATION_GUARD_DIGITS


def test_m_index_matches(monkeypatch):
    workloads = load_benchmark_module("workloads", monkeypatch)
    for p in (3, 5, 7, 11, 13):
        for q in range(2, 500):
            if is_prime(q) and q != p:
                assert workloads.m_index(q, p) == m_index(q, p), (q, p)
