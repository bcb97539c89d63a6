"""One benchmark pass in a fresh process, started by ``run.py``.

The process imports ``rdv`` from the checkout, runs one warm-up analysis on
a space that is no workload item, prints ``ready`` (the parent times set-up
up to that line), then runs the workload's items back to back through
``rdv.cli.main``, with ``calibrate`` before each item and after the last.
Only the items are timed.  Outputs are checked afterwards and the result is
printed as one JSON line.  With ``--setup-only`` the process prints one
``calibrate`` time after ``ready`` and exits.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback

import workloads


def _emit(doc: dict) -> None:
    sys.__stdout__.write(json.dumps(doc) + "\n")
    sys.__stdout__.flush()


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work ``rdv`` spends its time on.

    Small numpy products in a Python loop, as in the QP solvers; tuples from
    ``itertools`` packed into index arrays and gathered from a matrix, as in
    the Chebyshev scans; row updates and inversions of a 128 x 128 basis, as
    in the simplex.  The loop does not touch ``rdv``, so its time measures
    only how fast the host runs this process right now; ``run.py`` scales
    every timing by it.  Its arrays take under 1 MB.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small, wide = rng.random((24, 24)), rng.random((20, 40))
    basis = rng.random((128, 128)) + 128 * np.eye(128)
    columns, cost = rng.random((128, 256)), rng.random(128)
    x = np.ones(24)
    total = 0.0
    start = time.perf_counter()
    for _ in range(500):
        y = small @ x
        j = int(np.argmax(y))
        x[j] *= 0.5
        total += float(y[j])
        for k in range(40):
            total += k * 0.5
    combos = itertools.combinations_with_replacement(range(40), 4)
    for _ in range(32):
        idx = np.asarray(list(itertools.islice(combos, 500)), dtype=np.intp)
        total += float(wide[:, idx].sum(axis=2).max(axis=0).min())
    inverse = basis.copy()
    for step in range(48):
        d = inverse @ columns[:, int(np.argmin((cost @ inverse) @ columns))]
        row = int(np.argmax(d))
        other = np.arange(128) != row
        inverse[row] /= d[row]
        inverse[other] -= np.outer(d[other], inverse[row])
        if step % 16 == 15:
            inverse = np.linalg.inv(basis)
    total += float(inverse[0, 0])
    return time.perf_counter() - start


def run_items(cli, items, tmp, tracer):
    """The timed loop; returns (wall seconds, per-item seconds, outcomes, calibrations).

    ``calibrate`` runs before each item and after the last, outside the
    item timings; the wall time leaves it out.
    """
    item_s, outcomes, cal_s = [], [], []
    start = time.perf_counter()
    for index, item in enumerate(items):
        cal_s.append(calibrate())
        out = os.path.join(tmp, f"item{index}.json")
        buf = io.StringIO()
        if tracer is not None:
            tracer.item = index
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main([*item.argv, "--out", out])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an item that raises is a failed item, not a failed pass
            traceback.print_exc()
            code = "raised"
        item_s.append(time.perf_counter() - t0)
        outcomes.append((out, code, buf.getvalue()))
    cal_s.append(calibrate())
    return time.perf_counter() - start - sum(cal_s), item_s, outcomes, cal_s


def check(items, outcomes) -> list[list[str]]:
    reference = workloads.load_reference()
    failures = []
    for item, (out, code, stdout) in zip(items, outcomes):
        if code != 0:
            problems = [f"exit code {code!r}"]
        else:
            try:
                if item.family is not None:
                    problems = workloads.check_analyze(item, out, reference)
                else:
                    problems = workloads.check_verify(item, out, stdout)
            except Exception as exc:  # a malformed output file fails the item
                problems = [f"output check raised {exc!r}"]
        if problems:
            failures.append([item.key, "; ".join(problems)])
    return failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workloads.use_checkout_source()
    import rdv.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*workloads.WARMUP_ARGV, "--out", os.path.join(args.tmp, "warmup.json")])
    if code != 0:
        print(f"perfbench: warm-up analysis exited {code}", file=sys.stderr)
        return 1
    _emit({"ready": True})
    if args.setup_only:
        _emit({"cal_s": [calibrate()]})
        return 0

    items = workloads.items(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer, unwrapped_bindings

        tracer = Tracer()
        tracer.patch()
        left = unwrapped_bindings()
        if left:
            print(f"perfbench: unwrapped bindings remain: {left}", file=sys.stderr)
            return 1
    try:
        wall, item_s, outcomes, cal_s = run_items(cli, items, args.tmp, tracer)
    finally:
        if tracer is not None:
            tracer.unpatch()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _emit({
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "item_s": dict(zip((i.key for i in items), item_s)),
        "cal_s": cal_s,
        "attempted": len(items),
        "failures": check(items, outcomes),
        "layers": tracer.summary() if tracer is not None else None,
        "env": environment(),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
