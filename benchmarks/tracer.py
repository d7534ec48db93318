"""Spans around calls into tamerank's public functions, from outside the package.

`install` rebinds every module attribute (and class attribute, for methods)
that holds one of the traced functions to a wrapper that records a span:
name, start, end, parent span and job id.  Modules import names directly
(`compose` is reached as `tamerank.frobenius.compose`), so every binding in
every loaded tamerank module is replaced, not just the defining one.

A span's self time is its duration minus the time covered by its traced
children.  Counters that need the call's arguments or result (characters
enumerated, residues scanned, Smith cells) are kept by per-target hooks; cache
counters are read from `cache_info()` by the caller, never from wrappers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute) for module-level functions.
FUNCTIONS = (
    ("cli.parse_config", "tamerank.cli", "parse_config"),
    ("cli.run", "tamerank.cli", "run"),
    ("cli.validate_rank_report", "tamerank.cli", "validate_rank_report"),
    ("rank.rank_total", "tamerank.rank", "rank_total"),
    ("rank.rank_chi", "tamerank.rank", "rank_chi"),
    ("rank.s_chi", "tamerank.rank", "s_chi"),
    ("characters.enumerate", "tamerank.characters", "enumerate_characters"),
    ("characters.classes", "tamerank.characters", "conjugacy_classes"),
    ("characters.compose", "tamerank.characters", "compose"),
    ("frobenius.sigma0_ok", "tamerank.frobenius", "sigma0_ok"),
    ("frobenius.sigma_p_value", "tamerank.frobenius", "sigma_p_value"),
    ("frobenius.splitting_count", "tamerank.frobenius", "splitting_count"),
    ("frobenius.stabilization_level", "tamerank.frobenius", "stabilization_level"),
    ("annihilators.annihilator", "tamerank.annihilators", "annihilator"),
    ("annihilators.lcm_degree", "tamerank.annihilators", "lcm_degree"),
    ("stickelberger.lambda_minus", "tamerank.stickelberger", "lambda_minus"),
    ("stickelberger.series", "tamerank.stickelberger", "stickelberger_series"),
    ("residue.residue_module", "tamerank.residue", "residue_module"),
    ("residue.chi_quotient_order", "tamerank.residue", "chi_quotient_order"),
    ("arith.padic_log", "tamerank.arith", "padic_log"),
    ("arith.teichmuller_residue", "tamerank.arith", "teichmuller_residue"),
)

# (metric prefix, module, class, method).
METHODS = (
    ("rank.resolve", "tamerank.rank", "LambdaProvider", "resolve"),
    ("localring.root_matrix", "tamerank.localring", "LocalCoefficientRing", "root_matrix"),
    ("stickelberger.unit_scan", "tamerank.stickelberger", "StickelbergerSeries", "first_unit_index"),
    ("stickelberger.unit_scan", "tamerank.stickelberger", "StickelbergerSeries", "is_unit_coefficient"),
)

# Self time in these layers is what the workloads are chosen to isolate.
LAYERS = ("cli", "rank", "characters", "frobenius", "annihilators", "stickelberger",
          "residue", "localring", "arith")


class Tracer:
    """Spans kept in memory; self time, calls and counters per name."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self._open = []  # [(span index, covered child time)]
        self.job = None
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.pairs = set()
        self._first_precision = {}  # lambda_minus span -> its first series' precision
        self._retried = set()  # lambda_minus spans that built a series above it

    def begin(self, name: str) -> int:
        parent = self._open[-1][0] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append([len(self.spans) - 1, 0.0])
        return len(self.spans) - 1

    def end(self) -> None:
        index, covered = self._open.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        duration = span[2] - span[1]
        self.self_s[span[0]] += duration - covered
        self.calls[span[0]] += 1
        if self._open:
            self._open[-1][1] += duration

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if hook is not None:
                hook(tracer, index, args, kwargs, result)
            return result

        return traced

    def enclosing(self, name: str):
        """Index of the innermost open span with this name, or None."""
        for index, _ in reversed(self._open):
            if self.spans[index][0] == name:
                return index
        return None

    def metrics(self, caches_before: dict, caches_after: dict, report_bytes: int) -> dict:
        """Per-layer metrics of one traced batch: name -> [value, unit].  The
        cache arguments map a name to `cache_info()` before and after."""
        m = {}
        for name in sorted({n for n, *_ in FUNCTIONS + METHODS} | {"cli.emit"}):
            m[f"{name}.s"] = [self.self_s[name], "s"]
            m[f"{name}.calls"] = [self.calls[name], "count"]
        for layer in LAYERS:
            m[f"{layer}.s"] = [sum(v for k, v in self.self_s.items() if k.startswith(layer + ".")), "s"]
        m["job.s"] = [sum(end - start for name, start, end, *_ in self.spans if name == "job"), "s"]
        m["cli.report_bytes"] = [report_bytes, "bytes"]
        for key in ("characters.enumerated", "characters.class_count", "stickelberger.residues_scanned",
                    "stickelberger.precision_retries", "residue.cosets", "residue.smith_cells"):
            m[key] = [self.counts[key], "count"]
        pairs, calls = len(self.pairs), self.calls["frobenius.sigma0_ok"]
        m["frobenius.sigma0_ok.pairs"] = [pairs, "count"]
        m["frobenius.sigma0_ok.calls_per_pair"] = [calls / pairs if pairs else 0.0, "ratio"]
        lambdas = self.calls["stickelberger.lambda_minus"]
        m["stickelberger.series_per_lambda"] = [
            self.calls["stickelberger.series"] / lambdas if lambdas else 0.0, "ratio"]
        for name, after in caches_after.items():
            before = caches_before[name]
            hits, misses = after.hits - before.hits, after.misses - before.misses
            m[f"{name}.misses"] = [misses, "count"]
            m[f"{name}.lookups"] = [hits + misses, "count"]
            m[f"{name}.hit_ratio"] = [hits / (hits + misses) if hits + misses else 0.0, "ratio"]
        return m

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "job": job}) + "\n")


def _count_enumerated(tr, index, args, kwargs, result):
    tr.counts["characters.enumerated"] += len(result)


def _count_classes(tr, index, args, kwargs, result):
    tr.counts["characters.class_count"] += len(result)


def _count_pair(tr, index, args, kwargs, result):
    tr.pairs.add((args[0], args[1]))


def _lambda_call(tr, index, args, kwargs, result):
    if index in tr._retried:
        tr.counts["stickelberger.precision_retries"] += 1


def _series_built(tr, index, args, kwargs, result):
    chi, n = args[0], args[1]
    fprime = chi.conductor
    while fprime % chi.p == 0:
        fprime //= chi.p
    tr.counts["stickelberger.residues_scanned"] += fprime * chi.p ** (n + 1)
    # lambda_minus starts at the requested precision and doubles it on retry
    owner = tr.enclosing("stickelberger.lambda_minus")
    if owner is not None:
        first = tr._first_precision.setdefault(owner, result.precision)
        if result.precision > first:
            tr._retried.add(owner)


def _module_built(tr, index, args, kwargs, result):
    tr.counts["residue.cosets"] += result.num_cosets


def _presentation(tr, index, args, kwargs, result):
    # chi_quotient_order stacks, for r cosets and d = dim O_chi = d_chi, one
    # r*d block per generator action, one for the +-part if asked, and the
    # p^e block, over r*d columns.
    module, chi = args[0], args[1]
    part = args[2] if len(args) > 2 else kwargs.get("part")
    cols = module.num_cosets * chi.d_chi
    blocks = len(module.gen_actions) + 1 + (part is not None)
    tr.counts["residue.smith_cells"] += blocks * cols * cols


HOOKS = {
    "characters.enumerate": _count_enumerated,
    "characters.classes": _count_classes,
    "frobenius.sigma0_ok": _count_pair,
    "stickelberger.lambda_minus": _lambda_call,
    "stickelberger.series": _series_built,
    "residue.residue_module": _module_built,
    "residue.chi_quotient_order": _presentation,
}


def install(tracer: Tracer) -> None:
    """Rebind every binding of each traced function in the loaded tamerank
    modules (and the traced methods on their classes)."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "tamerank" or name.startswith("tamerank."))]
    for name, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(name, original, HOOKS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for name, module_name, cls_name, method in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
