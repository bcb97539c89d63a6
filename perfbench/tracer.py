"""Spans around calls into rdv's layers, recorded from outside the package.

``Tracer.patch`` replaces every binding of the functions in ``WRAPPED``, in
every ``rdv`` module and in the package namespace, with a wrapper that
records a span: name, start, end, parent span and the id of the item being
run.  Spans stay in memory; ``summary`` turns them into per-layer metrics
after the pass, outside the timed region, so hashing inputs to count
distinct work does not inflate any span.

What cannot be seen from outside stays out: LP pivots, refactorizations and
the safe-mode retry inside ``solve_lp`` need counters in the program itself.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import SUITES

# (defining module, function, span name).  A span's self time counts towards
# its span name; rdv.core, rdv.potential and rdv.report are not wrapped and
# count as self time of their callers.
WRAPPED = (
    ("rdv.optimize", "solve_lp", "optimize.lp"),
    ("rdv.optimize", "minimize_quadratic_on_simplex", "optimize.qp"),
    ("rdv.optimize", "maximize_quadratic_on_simplex", "optimize.qp"),
    ("rdv.chebyshev", "chebyshev_n", "chebyshev.scan"),
    ("rdv.chebyshev", "dual_chebyshev_n", "chebyshev.scan"),
    ("rdv.chebyshev", "chebyshev_table", "chebyshev.table"),
    ("rdv.spectral", "sum_zero_definiteness", "spectral.eig"),
    ("rdv.minimax", "q_value", "minimax"),
    ("rdv.minimax", "q_lower_value", "minimax"),
    ("rdv.minimax", "average_interval", "minimax"),
    ("rdv.minimax", "rendezvous_number", "minimax"),
    ("rdv.minimax", "elton_measures", "minimax"),
    ("rdv.minimax", "inequality_chain", "minimax"),
    ("rdv.energy", "wiener_energy", "energy"),
    ("rdv.energy", "maximal_energy", "energy"),
    ("rdv.energy", "maximal_energy_raw", "energy"),
    ("rdv.energy", "frostman_check", "energy"),
    ("rdv.energy", "wolf_relations", "energy"),
    ("rdv.structure", "min_invariance_gap", "structure"),
    ("rdv.structure", "invariant_measure", "structure"),
    ("rdv.structure", "quasi_invariant_convergence", "structure"),
    ("rdv.structure", "negative_type_test", "structure"),
    ("rdv.structure", "converse_check", "structure"),
    ("rdv.spaces", "generate", "spaces.generate"),
    ("rdv.spaces", "save_report", "spaces.report_write"),
    ("rdv.suites", "run_suites", "suites"),
    ("rdv.suites", "run_suite", "suites"),
    ("rdv.cli", "build_analysis", "cli"),
    ("rdv.cli", "main", "cli.main"),
)

QP_ROUTES = ("global_convex", "global_concave_max", "enumerated_exact", "heuristic_bound")
SELF_TIMES = {
    "optimize.lp.self_s": "optimize.lp",
    "optimize.qp.self_s": "optimize.qp",
    "chebyshev.scan.self_s": "chebyshev.scan",
    "chebyshev.table.self_s": "chebyshev.table",
    "spectral.eig.self_s": "spectral.eig",
    "minimax.self_s": "minimax",
    "energy.self_s": "energy",
    "structure.self_s": "structure",
    "cli.self_s": "cli",
    "cli.main.self_s": "cli.main",
    "spaces.generate_s": "spaces.generate",
    "spaces.report_write_s": "spaces.report_write",
    "suites.self_s": "suites",
}
# Counts that must repeat exactly between traced passes of one input.
DETERMINISTIC = (
    ["optimize.lp.calls", "optimize.lp.cells", "optimize.lp.distinct_frac", "optimize.lp.errors",
     "optimize.qp.calls", "optimize.qp.enum_supports", "optimize.qp.distinct_frac",
     "chebyshev.scan.calls", "chebyshev.scan.multisets", "chebyshev.scan.distinct_frac",
     "spectral.eig.calls", "spectral.eig.distinct_frac"]
    + [f"optimize.qp.route.{r}" for r in QP_ROUTES]
)


class Span:
    __slots__ = ("name", "fn", "item", "parent", "args", "kwargs", "result", "error",
                 "start", "end")

    def __init__(self, name, fn, item, parent, args, kwargs):
        self.name, self.fn, self.item, self.parent = name, fn, item, parent
        self.args, self.kwargs = args, kwargs
        self.result = None
        self.error = False


def rdv_modules() -> list:
    """The ``rdv`` package and all its submodules, fetched as modules.

    ``rdv.energy`` as a package attribute is ``potential.energy`` (a
    re-exported function), so submodules come from ``importlib``.
    """
    package = importlib.import_module("rdv")
    names = sorted(m.name for m in pkgutil.iter_modules(package.__path__))
    return [package] + [importlib.import_module(f"rdv.{n}") for n in names]


def originals() -> dict:
    """id -> (function, span name) for every wrapped function."""
    found = {}
    for module, name, span in WRAPPED:
        fn = getattr(importlib.import_module(module), name)
        fn = getattr(fn, "__perfbench_original__", fn)
        found[id(fn)] = (fn, span)
    return found


def unwrapped_bindings() -> list[str]:
    """``module.attr`` names that still bind an original wrapped function."""
    table = originals()
    return [f"{module.__name__}.{attr}"
            for module in rdv_modules()
            for attr, value in vars(module).items()
            if id(value) in table and table[id(value)][0] is value]


class Tracer:
    """Records spans around every binding of the ``WRAPPED`` functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, fn, self.item, stack[-1] if stack else -1, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()

        traced.__perfbench_original__ = fn
        return traced

    def patch(self) -> list[str]:
        """Wrap every binding; returns the ``module.attr`` sites patched."""
        table = originals()
        wrappers = {key: self._wrap(span, fn) for key, (fn, span) in table.items()}
        for module in rdv_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in table and table[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)])
                    self._patched.append((module, attr, value))
        return [f"{m.__name__}.{a}" for m, a, _ in self._patched]

    def unpatch(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.patch()
        return self

    def __exit__(self, *exc):
        self.unpatch()

    def summary(self) -> dict:
        """Per-layer metrics of all spans recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        self_time = defaultdict(float)
        for span, inner in zip(spans, child_time):
            self_time[span.name] += (span.end - span.start) - inner
        metrics = {metric: self_time[name] for metric, name in SELF_TIMES.items()}

        bound = [_bind(span) for span in spans]
        lp = [(s, b) for s, b in zip(spans, bound) if s.name == "optimize.lp"]
        metrics["optimize.lp.calls"] = len(lp)
        metrics["optimize.lp.cells"] = sum(b["lp"].A.size for _, b in lp)
        metrics["optimize.lp.errors"] = sum(1 for s, _ in lp if s.error)
        metrics["optimize.lp.distinct_frac"] = _distinct_frac([_lp_key(b["lp"]) for _, b in lp])

        qp = [(s, b) for s, b in zip(spans, bound) if s.name == "optimize.qp"]
        routes = Counter(s.result.certificate for s, _ in qp if s.result is not None)
        metrics["optimize.qp.calls"] = len(qp)
        for route in QP_ROUTES:
            metrics[f"optimize.qp.route.{route}"] = routes[route]
        metrics["optimize.qp.enum_supports"] = sum(
            2 ** len(set(b["H"])) - 1 for s, b in qp
            if s.result is not None and s.result.certificate == "enumerated_exact")
        metrics["optimize.qp.distinct_frac"] = _distinct_frac([_qp_key(s, b) for s, b in qp])

        scans = [b for s, b in zip(spans, bound) if s.name == "chebyshev.scan"]
        metrics["chebyshev.scan.calls"] = len(scans)
        metrics["chebyshev.scan.multisets"] = sum(
            math.comb(len(b["pair"].H) + b["n"] - 1, b["n"]) for b in scans)
        # The low and the dual constant of one order scan identical sums, so
        # the direction is not part of what makes a scan distinct.
        metrics["chebyshev.scan.distinct_frac"] = _distinct_frac([_scan_key(b) for b in scans])

        eig = [b for s, b in zip(spans, bound) if s.name == "spectral.eig"]
        metrics["spectral.eig.calls"] = len(eig)
        metrics["spectral.eig.distinct_frac"] = _distinct_frac(
            [_digest(b["matrix"], b["tol"]) for b in eig])

        suite_s = defaultdict(float)
        for span, b in zip(spans, bound):
            if span.fn.__name__ == "run_suite":
                suite_s[b["suite"]] += span.end - span.start
        for suite in SUITES:
            metrics[f"suites.{suite}.s"] = suite_s[suite]
        return metrics


def _bind(span: Span) -> dict:
    args = inspect.signature(span.fn).bind(*span.args, **span.kwargs)
    args.apply_defaults()
    return args.arguments


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(repr((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _lp_key(lp) -> str:
    return _digest(lp.c, lp.A, lp.senses, lp.b, lp.lower, lp.upper)


def _qp_key(span: Span, b: dict) -> str:
    idx = sorted(set(int(i) for i in b["H"]))
    return _digest(span.fn.__name__, b["space"].kernel[np.ix_(idx, idx)],
                   b["gap_tol"], b["max_iter"])


def _scan_key(b: dict) -> str:
    pair = b["pair"]
    return _digest(b["space"].kernel[np.ix_(pair.L, pair.H)], b["n"])


def _distinct_frac(keys: list) -> float:
    return len(set(keys)) / len(keys) if keys else 0.0
