"""Seeded verification suites: mathematical-identity checks over instance families.

Each suite runs one class of checks over deterministically generated
random-graph metric spaces (and, for the quasi-invariance suite, a small
family of vertex-transitive spaces).  Outcomes carry residual summaries
so failures are diagnosable from the report alone; the offending space
can be dumped to a file for replay.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatchError,
    KernelSpace,
    Measure,
    RdvError,
    SubsetPair,
    dual_kernel,
)
from .energy import frostman_check, wiener_energy, wolf_relations
from .minimax import _elton, _lp_average, inequality_chain
from .spaces import circle, generate, hypercube, random_graph, save_space
from .structure import (
    INVARIANCE_TOL,
    converse_check,
    min_invariance_gap,
    quasi_invariant_convergence,
)

SUITE_NAMES = ("duality", "chain", "frostman", "wolf", "converse", "quasi")
DEFAULT_SEEDS = 100
DEFAULT_MAX_POINTS = 8
# Seed of the pinned 6-point instance instance_space(REGRESSION_SEED): a strict
# gap between the rendezvous value and the maximal energy (found by
# scripts/find_energy_gap_seed.py) exercises the branch where the equality
# implication is vacuous.
REGRESSION_SEED = 3
ELTON_UPPER_TOL = 1e-8
ELTON_LOWER_TOL = 2e-8
QUASI_EPS = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005)
_UNIFORM_TOL = 1e-12


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


def vertex_transitive_family() -> tuple[tuple[str, KernelSpace], ...]:
    """Cycles on 3..8 points and hypercubes of dimension 1..4."""
    spaces = []
    for m in range(3, 9):
        spaces.append((f"cycle-{m}", generate(circle(m))))
    for d in range(1, 5):
        spaces.append((f"hypercube-{d}", generate(hypercube(d))))
    return tuple(spaces)


@dataclass(frozen=True)
class SuiteOutcome:
    """One instance-level verdict with a residual summary."""

    suite: str
    name: str
    passed: bool
    detail: str
    space: KernelSpace


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    outcomes: tuple[SuiteOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for o in self.outcomes if o.passed)
        return good, len(self.outcomes)


def _check_duality(space: KernelSpace) -> tuple[bool, str]:
    # The LP route even where an invariant measure would settle the pair:
    # the gap then compares two separate LP solves, not a measure with itself.
    full = SubsetPair.full(space.m)
    avg = _lp_average(space, full)
    gap = abs(avg.q_upper - avg.q_lower)
    elton = _elton(space, full, avg)
    ok = (
        gap <= 1e-8
        and avg.unique_point is not None
        and elton.residual_upper <= ELTON_UPPER_TOL
        and elton.residual_lower <= ELTON_LOWER_TOL
    )
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
    dual, _ = dual_kernel(space)
    eq = wiener_energy(dual)
    rep = frostman_check(dual, range(space.m), eq.measure)
    ok = rep.verdict_a and rep.verdict_b and rep.verdict_c
    detail = "w={:.6g} A={} B={} C={} ({})".format(
        rep.w_value, rep.verdict_a, rep.verdict_b, rep.verdict_c, eq.certificate)
    return ok, detail


def _check_wolf(space: KernelSpace) -> tuple[bool, str]:
    rep = wolf_relations(space)
    ok = (
        rep.upper_ok
        and rep.lower_ok
        and rep.dual_lower_ok
        and rep.invariant_found is not False
        and rep.dual_invariant_found is not False
    )
    if rep.equality_applicable:
        branch = f"equality, invariant_found={rep.invariant_found}"
    else:
        branch = "strict r<E, (ii) vacuous"
    detail = "r={:.6g} E={:.6g} w={:.6g} {}".format(rep.r, rep.e, rep.w, branch)
    return ok, detail


def _check_converse(space: KernelSpace) -> tuple[bool, str]:
    rep = converse_check(space, SubsetPair.full(space.m))
    parts = []
    ok = True
    if rep.kernel_form.applicable:
        ok = ok and bool(rep.kernel_form.ok)
        parts.append(f"kernel_form res={rep.kernel_form.residual:.3g}")
    else:
        parts.append("kernel_form n/a")
    if rep.wolf_form is not None:
        if rep.wolf_form.applicable:
            ok = ok and bool(rep.wolf_form.ok)
            parts.append(f"wolf_form res={rep.wolf_form.residual:.3g}")
        else:
            parts.append("wolf_form n/a ({})".format(
                "; ".join(rep.wolf_form.failed_hypotheses)))
    return ok, " ".join(parts)


def _check_quasi(space: KernelSpace, seed: int) -> tuple[bool, str]:
    nested, _ = instance_pairs(space.m, seed)
    rep = quasi_invariant_convergence(space, nested, QUASI_EPS)
    if not rep.applicable:
        return True, "not applicable (empty average interval)"
    feasible = [e for e in rep.entries if e.feasible]
    ok = all(e.within_bound for e in feasible)
    worst = max((e.deviation - e.eps for e in feasible), default=float("-inf"))
    detail = "gap={:.3g} feasible={}/{} worst_excess={:.3g}".format(
        rep.minimal_gap, len(feasible), len(rep.entries), worst)
    return ok, detail


def _check_transitive(name: str, space: KernelSpace) -> tuple[bool, str]:
    gap, _ = min_invariance_gap(space, SubsetPair.full(space.m))
    uniform = Measure.uniform(space.m)
    pot = space.kernel @ uniform.weights
    osc = float(pot.max() - pot.min())
    ok = gap <= INVARIANCE_TOL and osc <= _UNIFORM_TOL
    return ok, f"gap={gap:.3g} uniform_oscillation={osc:.3g}"


def run_suite(suite: str, seeds: int = DEFAULT_SEEDS,
              max_points: int = DEFAULT_MAX_POINTS) -> SuiteReport:
    """Run one named suite over seeds 0..seeds-1 (at least one seed, at least 3 points)."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    if seeds < 1 or max_points < 3:
        raise DimensionMismatchError(
            f"a suite needs seeds >= 1 and max_points >= 3; got {seeds} and {max_points}")
    outcomes = []
    for seed in range(seeds):
        space = instance_space(seed, max_points)
        name = f"{suite}[{seed}]"
        try:
            if suite == "duality":
                ok, detail = _check_duality(space)
            elif suite == "chain":
                ok, detail = _check_chain(space, seed)
            elif suite == "frostman":
                ok, detail = _check_frostman(space)
            elif suite == "wolf":
                ok, detail = _check_wolf(space)
            elif suite == "converse":
                ok, detail = _check_converse(space)
            else:
                ok, detail = _check_quasi(space, seed)
        except RdvError as exc:
            ok, detail = False, f"error[{exc.code}] {exc}"
        outcomes.append(SuiteOutcome(suite=suite, name=name, passed=ok,
                                     detail=detail, space=space))
    if suite == "quasi":
        for fam_name, fam_space in vertex_transitive_family():
            try:
                ok, detail = _check_transitive(fam_name, fam_space)
            except RdvError as exc:
                ok, detail = False, f"error[{exc.code}] {exc}"
            outcomes.append(SuiteOutcome(suite=suite, name=f"{suite}[{fam_name}]",
                                         passed=ok, detail=detail, space=fam_space))
    return SuiteReport(suite=suite, outcomes=tuple(outcomes))


def run_suites(suite: str, seeds: int = DEFAULT_SEEDS,
               max_points: int = DEFAULT_MAX_POINTS) -> tuple[SuiteReport, ...]:
    """Run one suite, or all of them when ``suite == "all"``."""
    names = SUITE_NAMES if suite == "all" else (suite,)
    return tuple(run_suite(n, seeds, max_points) for n in names)


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
