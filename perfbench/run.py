"""rdv benchmark: closed-loop workloads through ``rdv.cli.main``.

    python3 perfbench/run.py --workload analyze-structured --seed 0 --seconds 34 --trace 0

One client runs a workload's items back to back.  Each pass runs in a fresh
process (``one_pass.py``), because every ``rdv analyze`` call pays a full
analysis; passes repeat until ``--seconds`` would be exceeded.  Workloads
never run concurrently: one invocation runs one workload, one pass at a
time, on one BLAS thread.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median over passes
of the time to run the pass's items after set-up), ``setup_s`` (median time
from process start to ready, over every process started), ``peak_rss_mb``
(median peak RSS of the pass processes) and ``ok_frac`` (items that exited 0
and passed every output check, over items attempted).  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
``tracer.py``, with ``trace.overhead_s`` the traced minus the untraced
``wall_s``.

``wall_s``, ``setup_s`` and ``trace.overhead_s`` are scaled to a reference
speed.  On a shared 2-vCPU Xeon VM the host runs the same code up to 2x
slower for seconds to tens of minutes at a time, in CPU time as well as in
wall time, so raw seconds follow the host, not the program.  Each process
therefore times a fixed loop that does not touch ``rdv``
(``one_pass.calibrate``) before each item and after the last; a pass time
is multiplied by ``CALIBRATION_REF_S`` over the mean of its process's loop
times, and a set-up time by the reference over the loop time measured right
after it.  A change to ``rdv`` moves the scaled time by the same factor as
the raw one.  The unscaled median pass time and loop time are recorded
beside them.

The last line of standard output is the result object; the line before it
records the environment, the seed and the sample count behind each median.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads
from tracer import DETERMINISTIC

HERE = os.path.dirname(os.path.abspath(__file__))
TMP_ROOT = os.path.join(workloads.ROOT, ".perfbench_tmp")
SETUP_ONLY_PROCESSES = 3
# One BLAS thread: with two on a 2-vCPU host, a threaded call stalls for up to
# a second whenever the other vCPU is busy or slow.
MAX_BLAS_THREADS = 1
PROCESS_TIMEOUT_S = 150.0
# About the time of one_pass.calibrate on a 2-vCPU Xeon VM (OpenBLAS 0.3.31,
# Python 3.11) in its fast state; scaled timings read as seconds on that host
# at that speed.
CALIBRATION_REF_S = 0.014


def _units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(MAX_BLAS_THREADS, _cpus()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (workloads.SRC, env.get("PYTHONPATH")) if p)
    return env


def _start_process(argv: list[str], tmp: str, env: dict) -> tuple[float, dict | None]:
    """Run one ``one_pass.py`` process; returns (set-up seconds, its result or None)."""
    os.makedirs(tmp)
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), *argv, "--tmp", tmp]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=workloads.ROOT)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or json.loads(ready or "{}").get("ready") is not True:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = rest.decode().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _source_digest() -> str:
    h = hashlib.sha256()
    base = os.path.join(workloads.SRC, "rdv")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(base, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _scaled(seconds: float, cal_s: float) -> float:
    """``seconds`` measured while the calibration loop took ``cal_s``, at reference speed."""
    return seconds * CALIBRATION_REF_S / cal_s


def _scaled_pass_s(result: dict) -> float:
    """A pass's item time at reference speed, by the mean calibration of its process."""
    return _scaled(sum(result["item_s"].values()), statistics.fmean(result["cal_s"]))


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    env = _child_env()
    common = ["--workload", workload, "--seed", str(seed)]
    deadline = time.perf_counter() + seconds
    setups, untraced, traced = [], [], []
    counter = 0

    def start(argv):
        nonlocal counter
        counter += 1
        return _start_process(argv, os.path.join(tmp, f"p{counter}"), env)

    if not trace:
        for _ in range(SETUP_ONLY_PROCESSES):
            setup, result = start(common + ["--setup-only"])
            setups.append(_scaled(setup, result["cal_s"][0]))
    longest = 0.0
    while True:
        traced_pass = trace and len(untraced) > len(traced)
        t0 = time.perf_counter()
        setup, result = start(common + ["--trace", "1" if traced_pass else "0"])
        longest = max(longest, time.perf_counter() - t0)
        (traced if traced_pass else untraced).append(result)
        if not traced_pass:
            # the first calibration runs right after the ready line
            setups.append(_scaled(setup, result["cal_s"][0]))
        enough = not trace or (untraced and traced)
        if enough and time.perf_counter() + longest > deadline:
            break
    return {"setups": setups, "untraced": untraced, "traced": traced}


def summarize(runs: dict, trace: bool, ok_frac: float) -> tuple[dict, bool]:
    """The metrics to print, and whether the deterministic counts repeated."""
    consistent = True
    wall = _median([_scaled_pass_s(p) for p in runs["untraced"]])
    if not trace:
        values = {
            "wall_s": wall,
            "setup_s": _median(runs["setups"]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in runs["untraced"]]),
            "ok_frac": ok_frac,
        }
        units = _units("end_to_end")
    else:
        layers = [p["layers"] for p in runs["traced"]]
        units = _units("per_layer")
        values = {}
        for name in units:
            if name == "trace.overhead_s":
                values[name] = _median([_scaled_pass_s(p) for p in runs["traced"]]) - wall
            elif name in DETERMINISTIC:
                values[name] = layers[0][name]
                consistent = consistent and all(l[name] == values[name] for l in layers)
            else:
                values[name] = _median([l[name] for l in layers])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, consistent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(workloads.SRC, "rdv", "__init__.py")):
        print(f"perfbench: no rdv sources under {workloads.SRC}", file=sys.stderr)
        return 2

    # a SIGTERM unwinds through the finally blocks that kill and reap the pass process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = os.path.join(TMP_ROOT, f"run-{os.getpid()}")
    try:
        runs = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:  # absent, or another run still uses it
            pass
    passes = runs["untraced"] + runs["traced"]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    metrics, consistent = summarize(runs, bool(args.trace), 1.0 - len(failures) / attempted)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {**passes[0]["env"], "nproc": os.cpu_count(), "cpus_usable": _cpus(),
                "git_commit": workloads.git_commit(), "rdv_source_sha256": _source_digest()},
        "samples": {"untraced_passes": len(runs["untraced"]),
                    "traced_passes": len(runs["traced"]),
                    "setup_processes": len(runs["setups"])},
        "unscaled": {"median_pass_wall_s": _median([p["wall_s"] for p in runs["untraced"]]),
                     "median_calibration_s": _median([c for p in passes for c in p["cal_s"]]),
                     "calibration_ref_s": CALIBRATION_REF_S},
        "pass_wall_s": [p["wall_s"] for p in runs["untraced"]],
        "traced_pass_wall_s": [p["wall_s"] for p in runs["traced"]],
        "item_s": {k: _median([p["item_s"][k] for p in runs["untraced"]])
                   for k in runs["untraced"][0]["item_s"]},
        "failures": failures,
        "counts_repeat": consistent,
        "not_visible_from_outside": "LP pivots, refactorizations and the safe-mode "
                                    "retry in solve_lp need in-program counters",
    }
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": not failures and consistent, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
