"""Workload item lists and output checks for the rdv benchmark.

Every item is one call of the public entry point ``rdv.cli.main``, exactly
as a user would run ``rdv analyze SPEC --out FILE`` or
``rdv verify --suite NAME --seeds 100 --out FILE``.  Which workload
stresses which layer is recorded in ``BENCHMARK.json``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("analyze-structured", "analyze-large", "analyze-random", "verify-all")
DEFAULT_SEED = 0
WARMUP_ARGV = ("analyze", "grid(5)")
SUITES = ("duality", "chain", "frostman", "wolf", "converse", "quasi")
SUITE_SEEDS = 100
WITNESS_TOL = 1e-8
REFERENCE_TOL = 1e-9
RANDOM_SIZES = (12, 13, 14, 40)
RANDOM_EDGE_PROB = 0.5
NEGATIVE_TYPE_TOL = 1e-9

# Generator family in rdv.spaces -> name accepted by ``rdv analyze``.
_SPEC_NAMES = {"circle": "circle", "interval_grid": "grid",
               "hypercube": "hypercube", "random_graph": "random"}


@dataclass(frozen=True)
class Item:
    """One CLI call; ``family``/``args`` rebuild the analyzed space for checks."""

    argv: tuple[str, ...]
    family: Optional[str] = None
    args: tuple = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _analyze(family: str, *args, n_max: Optional[int] = None) -> Item:
    spec = "{}({})".format(_SPEC_NAMES[family], ",".join(str(a) for a in args))
    argv = ("analyze", spec) + (("--n-max", str(n_max)) if n_max is not None else ())
    return Item(argv=argv, family=family, args=args)


def _negative_type(m: int, seed: int) -> bool:
    """Whether the graph's kernel is negative semidefinite on sum-zero vectors."""
    import numpy as np
    from rdv import spaces

    kernel = spaces.generate(spaces.random_graph(m, RANDOM_EDGE_PROB, seed)).kernel
    centered = kernel - kernel.mean(axis=0) - kernel.mean(axis=1)[:, None] + kernel.mean()
    return float(np.linalg.eigvalsh(centered)[-1]) <= NEGATIVE_TYPE_TOL


def random_seeds(seed: int) -> tuple[int, ...]:
    """Graph seeds s1..s4 of the analyze-random items for a workload seed.

    s_k starts at 4 * seed + k and steps by 4 past graphs of negative type
    (9 % of seeds at m = 12, 3 % at m = 13): their maximum energy has a
    certified concave route, so they skip the support enumeration this
    workload exists for and would make a pass 15-25 % cheaper by chance.
    """
    seeds = []
    for k, m in enumerate(RANDOM_SIZES, start=1):
        s = 4 * seed + k
        while _negative_type(m, s):
            s += 4
        seeds.append(s)
    return tuple(seeds)


def items(workload: str, seed: int) -> tuple[Item, ...]:
    """The fixed item list of one pass; only analyze-random depends on ``seed``."""
    if workload == "analyze-structured":
        return (_analyze("circle", 64), _analyze("interval_grid", 101),
                _analyze("hypercube", 6))
    if workload == "analyze-large":
        return (_analyze("circle", 256, n_max=2), _analyze("interval_grid", 257, n_max=2))
    if workload == "analyze-random":
        return tuple(_analyze("random_graph", m, RANDOM_EDGE_PROB, s)
                     for m, s in zip(RANDOM_SIZES, random_seeds(seed)))
    if workload == "verify-all":
        # The suites pick their own seeds 0..99; the workload seed does not apply.
        return tuple(Item(argv=("verify", "--suite", s, "--seeds", str(SUITE_SEEDS)))
                     for s in SUITES)
    raise ValueError(f"unknown workload {workload!r}")


def use_checkout_source() -> None:
    """Import ``rdv`` from this checkout's ``src``, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "rdv", "__init__.py")):
        raise SystemExit(f"perfbench: no rdv sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import rdv

    if os.path.dirname(os.path.dirname(os.path.realpath(rdv.__file__))) != SRC:
        raise SystemExit(f"perfbench: rdv imported from {rdv.__file__}, not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["reports"]


def reference_entry(doc: dict) -> dict:
    """The parts of an analyze report that the reference pins."""
    return {
        "scalars": doc["scalars"],
        "verdicts": doc["verdicts"],
        "certificates": {k: v for k, v in doc["parameters"].items()
                         if k.startswith("certificate_")},
    }


def _compare_reference(doc: dict, ref: dict) -> list[str]:
    got = reference_entry(doc)
    problems = []
    if got["verdicts"] != ref["verdicts"]:
        problems.append("verdicts differ from the reference")
    if got["certificates"] != ref["certificates"]:
        problems.append("certificate tags differ from the reference")
    if set(got["scalars"]) != set(ref["scalars"]):
        problems.append("scalar names differ from the reference")
    for name, want in ref["scalars"].items():
        have = got["scalars"].get(name)
        if have is None:
            continue
        if "inf" in (want, have):
            same = want == have
        else:
            same = abs(float(have) - float(want)) <= REFERENCE_TOL
        if not same:
            problems.append(f"scalar {name} = {have!r}, reference {want!r}")
    return problems


def check_analyze(item: Item, path: str, reference: dict) -> list[str]:
    """Seed-independent certificates of one analyze report, plus the reference."""
    import numpy as np
    from rdv import spaces
    from rdv.report import AnalysisReport

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if AnalysisReport.from_dict(doc).to_dict() != doc:
        problems.append("report does not round-trip through AnalysisReport.from_dict")
    scalars = doc["scalars"]
    r = float(scalars["r"])
    kernel = spaces.generate(getattr(spaces, item.family)(*item.args)).kernel
    upper = float(np.max(kernel @ np.asarray(doc["measures"]["q_opt"], dtype=float)))
    lower = float(np.min(kernel @ np.asarray(doc["measures"]["q_lower_opt"], dtype=float)))
    if not upper <= r + WITNESS_TOL:
        problems.append(f"max(K q_opt) = {upper!r} exceeds r = {r!r}")
    if not lower >= r - WITNESS_TOL:
        problems.append(f"min(K q_lower_opt) = {lower!r} is below r = {r!r}")
    w, e = float(scalars["w"]), float(scalars["max_energy"])
    if not w - WITNESS_TOL <= r <= e + WITNESS_TOL:
        problems.append(f"w <= r <= max_energy fails: {w!r}, {r!r}, {e!r}")
    ref = reference.get(item.key)
    if ref is not None:
        problems.extend(_compare_reference(doc, ref))
    return problems


def check_verify(item: Item, path: str, stdout: str) -> list[str]:
    """A suite passes when its summary report and its printed tally show passed = total."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    suite = item.argv[item.argv.index("--suite") + 1]
    passed, total = doc["scalars"]["passed"], doc["scalars"]["total"]
    problems = []
    if passed != total or total < SUITE_SEEDS:
        problems.append(f"summary shows {passed}/{total} passed")
    if not all(doc["verdicts"].values()):
        problems.append("summary carries a failing verdict")
    tally = f"{suite}: {int(total)}/{int(total)} pass"
    if tally not in stdout.splitlines():
        problems.append(f"printed tally {tally!r} missing")
    return problems
