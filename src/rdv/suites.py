"""Seeded verification suites: mathematical-identity checks over instance families.

Each suite runs one class of checks over deterministically generated
random-graph metric spaces (and, for the quasi-invariance suite, a small
family of vertex-transitive spaces).  Outcomes carry residual summaries
so failures are diagnosable from the report alone; the offending space
can be dumped to a file for replay.

The duality suite solves the lower value from its own floor LP
(``minimax.q_floor_value``); the quasi suite prints the minimal gap g, the
deviation d of the least-oscillation level and d - g, which must be at most
``INVARIANCE_TOL``.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    DimensionMismatchError,
    KernelSpace,
    Measure,
    RdvError,
    SubsetPair,
)
from .energy import dual_equilibrium, dual_route_check, wolf_relations
from .minimax import (
    _average,
    _elton,
    inequality_chain,
    min_invariance_gap,
    q_floor_value,
    q_value,
)
from .spaces import circle, generate, hypercube, random_graph, save_space
from .structure import converse_check, quasi_invariant_convergence
from .tolerances import ELTON_LOWER_TOL, ELTON_UPPER_TOL, INVARIANCE_TOL, UNIFORM_TOL

SUITE_NAMES = ("duality", "chain", "frostman", "wolf", "converse", "quasi")
DEFAULT_SEEDS = 100
DEFAULT_MAX_POINTS = 8
# Seed of the pinned 6-point instance instance_space(REGRESSION_SEED): a strict
# gap between the rendezvous value and the maximal energy (found by
# scripts/find_energy_gap_seed.py) exercises the branch where the equality
# implication is vacuous.
REGRESSION_SEED = 3


def instance_space(seed: int, max_points: int = DEFAULT_MAX_POINTS) -> KernelSpace:
    """The seeded random-graph instance used by every suite.

    Sizes cycle through 3..max_points so small-support edge cases and
    larger spaces are both exercised.
    """
    m = 3 + seed % (max_points - 2)
    return generate(random_graph(m=m, edge_prob=0.5, seed=seed))


def instance_pairs(m: int, seed: int) -> tuple[SubsetPair, SubsetPair]:
    """Deterministic (nested, general) subset pairs for an instance."""
    rng = np.random.default_rng([seed, 101])
    h_size = int(rng.integers(1, m + 1))
    H = tuple(int(i) for i in sorted(rng.choice(m, size=h_size, replace=False)))
    nested = SubsetPair(H, tuple(range(m)))
    h2 = int(rng.integers(1, m + 1))
    l2 = int(rng.integers(1, m + 1))
    H2 = tuple(int(i) for i in sorted(rng.choice(m, size=h2, replace=False)))
    L2 = tuple(int(i) for i in sorted(rng.choice(m, size=l2, replace=False)))
    return nested, SubsetPair(H2, L2)


def vertex_transitive_family() -> Iterator[tuple[str, KernelSpace]]:
    """Cycles on 3..8 points and hypercubes of dimension 1..4, one at a time."""
    for m in range(3, 9):
        yield f"cycle-{m}", generate(circle(m))
    for d in range(1, 5):
        yield f"hypercube-{d}", generate(hypercube(d))


@dataclass(frozen=True)
class SuiteOutcome:
    """One instance-level verdict with a residual summary."""

    name: str
    passed: bool
    detail: str
    space: KernelSpace | None  # the failing space, for dump_failures; None on a pass


@dataclass(frozen=True)
class SuiteReport:
    """The outcomes of one suite and the wall time, in seconds, of its checks.

    ``seconds`` leaves out the generation of the instances, which in a run
    of several suites is shared by all of them.
    """

    suite: str
    outcomes: tuple[SuiteOutcome, ...]
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for o in self.outcomes if o.passed)
        return good, len(self.outcomes)


def _check_duality(space: KernelSpace) -> tuple[bool, str]:
    # Two separate LP solves, even where an invariant measure would settle
    # the pair: the upper value's LP, and the lower value's own floor LP in
    # place of the first LP's duals.  Nowhere else in the program is the
    # floor solved.  On H = L, _average raises UniquenessViolatedError, a
    # failing outcome, when the two values differ by more than GAP_UNIQUE_TOL.
    full = SubsetPair.full(space.m)
    (qu, mu), (ql, nu) = q_value(space, full), q_floor_value(space, full)
    avg = _average(space, full, qu, ql, mu, nu)
    gap = abs(avg.q_upper - avg.q_lower)
    elton = _elton(space, full, avg)
    ok = elton.residual_upper <= ELTON_UPPER_TOL and elton.residual_lower <= ELTON_LOWER_TOL
    detail = "gap={:.3g} elton_up={:.3g} elton_lo={:.3g}".format(
        gap, elton.residual_upper, elton.residual_lower)
    return ok, detail


def _check_chain(space: KernelSpace, seed: int) -> tuple[bool, str]:
    nested, general = instance_pairs(space.m, seed)
    rep_n = inequality_chain(space, nested)
    rep_g = inequality_chain(space, general)
    ok = rep_n.ok and rep_g.ok
    detail = (
        "nested(res_lo={:.3g} res_hi={:.3g} eq={:.3g} A={}) "
        "general(res_lo={:.3g} res_hi={:.3g} eq={:.3g})".format(
            rep_n.residual_lower_side, rep_n.residual_upper_side,
            rep_n.equality_residual, rep_n.a_nonempty,
            rep_g.residual_lower_side, rep_g.residual_upper_side,
            rep_g.equality_residual)
    )
    return ok, detail


def _check_frostman(space: KernelSpace) -> tuple[bool, str]:
    # the equilibrium measure of C - k with C the largest entry, read from k
    eq = dual_equilibrium(space)
    ok = eq.verdict_a and eq.verdict_b and eq.verdict_c
    detail = "w={:.6g} A={} B={} C={} ({})".format(
        eq.value, eq.verdict_a, eq.verdict_b, eq.verdict_c, eq.certificate)
    return ok, detail


def _check_wolf(space: KernelSpace) -> tuple[bool, str]:
    rep = wolf_relations(space)
    # raises DualMismatchError, a failing outcome, when the maximal energy and
    # the independently solved dual route disagree on a certified kernel
    dual_route_check(space)
    ok = all(side.ok and side.invariant_when_equal for side in (rep.upper, rep.lower))
    if rep.upper.equality_applicable:
        branch = f"equality, invariant_found={rep.upper.invariant_found}"
    else:
        branch = "strict r<E, (ii) vacuous"
    detail = "r={:.6g} E={:.6g} w={:.6g} {}".format(rep.r, rep.e, rep.w, branch)
    return ok, detail


def _check_converse(space: KernelSpace) -> tuple[bool, str]:
    rep = converse_check(space, SubsetPair.full(space.m))
    ok = rep.kernel_form.passed and rep.wolf_form.passed
    parts = []
    if rep.kernel_form.applicable:
        parts.append(f"kernel_form res={rep.kernel_form.residual:.3g}")
    else:
        parts.append("kernel_form n/a")
    # on the full pair both branches are evaluated
    if rep.wolf_form.applicable:
        parts.append(f"wolf_form res={rep.wolf_form.residual:.3g}")
    else:
        parts.append("wolf_form n/a ({})".format(
            "; ".join(rep.wolf_form.failed_hypotheses)))
    return ok, " ".join(parts)


def _check_quasi(space: KernelSpace, seed: int) -> tuple[bool, str]:
    nested, _ = instance_pairs(space.m, seed)
    rep = quasi_invariant_convergence(space, nested)
    if not rep.applicable:
        return True, "not applicable (empty average interval)"
    detail = "gap={:.3g} deviation={:.3g} excess={:.3g}".format(
        rep.minimal_gap, rep.deviation, rep.deviation - rep.minimal_gap)
    return rep.within_bound, detail


def _check_transitive(space: KernelSpace) -> tuple[bool, str]:
    gap, _ = min_invariance_gap(space, SubsetPair.full(space.m))
    uniform = Measure.uniform(space.m)
    pot = space.kernel @ uniform.weights
    osc = float(pot.max() - pot.min())
    ok = gap <= INVARIANCE_TOL and osc <= UNIFORM_TOL
    return ok, f"gap={gap:.3g} uniform_oscillation={osc:.3g}"


def _run(names: tuple[str, ...], seeds: int, max_points: int) -> tuple[SuiteReport, ...]:
    """The named suites over seeds 0..seeds-1.  Each instance is generated once and
    checked by every suite in turn, which reads the solves memoized on it by the
    ones before; one instance is alive at a time.  A typed error fails a check."""
    if seeds < 1 or max_points < 3:
        raise DimensionMismatchError(
            f"a suite needs seeds >= 1 and max_points >= 3; got {seeds} and {max_points}")
    # read when the suites run, so a check replaced on the module is the one run
    checks = {"duality": _check_duality, "chain": _check_chain, "frostman": _check_frostman,
              "wolf": _check_wolf, "converse": _check_converse, "quasi": _check_quasi}
    outcomes = {name: [] for name in names}
    seconds = dict.fromkeys(names, 0.0)

    def check(suite: str, name: str, space: KernelSpace, fn, *args) -> None:
        start = time.perf_counter()
        try:
            ok, detail = fn(space, *args)
        except RdvError as exc:
            ok, detail = False, f"error[{exc.code}] {exc}"
        outcomes[suite].append(SuiteOutcome(name, ok, detail, None if ok else space))
        seconds[suite] += time.perf_counter() - start

    for seed in range(seeds):
        space = instance_space(seed, max_points)
        for suite in names:
            # chain and quasi draw their subset pairs from the seed
            args = (seed,) if suite in ("chain", "quasi") else ()
            check(suite, f"{suite}[{seed}]", space, checks[suite], *args)
    if "quasi" in names:
        for fam_name, fam_space in vertex_transitive_family():
            check("quasi", f"quasi[{fam_name}]", fam_space, _check_transitive)
    return tuple(SuiteReport(suite=n, outcomes=tuple(outcomes[n]), seconds=seconds[n])
                 for n in names)


def run_suite(suite: str, seeds: int = DEFAULT_SEEDS,
              max_points: int = DEFAULT_MAX_POINTS) -> SuiteReport:
    """Run one named suite over seeds 0..seeds-1 (at least one seed, at least 3 points)."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    return _run((suite,), seeds, max_points)[0]


def run_suites(suite: str, seeds: int = DEFAULT_SEEDS,
               max_points: int = DEFAULT_MAX_POINTS) -> tuple[SuiteReport, ...]:
    """Run one suite, or all of them on each instance in turn when ``suite == "all"``."""
    if suite == "all":
        return _run(SUITE_NAMES, seeds, max_points)
    return (run_suite(suite, seeds, max_points),)


def dump_failures(reports: tuple[SuiteReport, ...], directory: str) -> tuple[str, ...]:
    """Write the space file of every failing outcome; returns the paths."""
    paths = []
    for report in reports:
        for outcome in report.outcomes:
            if outcome.passed:
                continue
            safe = outcome.name.replace("[", "_").replace("]", "")
            path = os.path.join(directory, f"failed_{safe}.json")
            save_space(outcome.space, path)
            paths.append(path)
    return tuple(paths)
