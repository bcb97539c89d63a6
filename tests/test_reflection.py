"""One energy problem, one solve.

On the simplex mu' (C 11' - K) mu = C - mu' K mu, so the minimal energy of
the dual kernel C - k is the maximal energy of k.  An analysis reads
everything about C - k from k (``dual_equilibrium``) and builds no C - k;
the space that ``dual_kernel`` builds solves on its own, and the two must
agree on every QP route.  The maximum and the minimum of one kernel share
one support pass, and each equals the one-support-at-a-time loop bit for
bit.
"""
import sys

import numpy as np
import pytest

import rdv.optimize as optimize_mod
from rdv import (
    KernelSpace,
    SubsetPair,
    circle,
    dual_equilibrium,
    dual_kernel,
    frostman_check,
    generate,
    hypercube,
    interval_grid,
    maximal_energy,
    random_graph,
    rendezvous_number,
    wiener_energy,
)
from rdv.cli import build_analysis
from rdv.optimize import (
    maximize_quadratic_on_simplex,
    minimize_quadratic_on_simplex,
)
from rdv.suites import instance_space

from oracles import enumerate_supports_loop

MAPPED = {"global_convex": "global_concave_max", "global_concave_max": "global_convex",
          "enumerated_exact": "enumerated_exact", "heuristic_bound": "heuristic_bound"}
SOLVERS = {"min": minimize_quadratic_on_simplex, "max": maximize_quadratic_on_simplex}
OPPOSITE = {"min": "max", "max": "min"}
# the nine spaces of the benchmark's analyze workloads
PERFBENCH_SPECS = [circle(64), interval_grid(101), hypercube(6), circle(256), interval_grid(257),
                   random_graph(12, 0.5, 1), random_graph(13, 0.5, 2), random_graph(14, 0.5, 3),
                   random_graph(40, 0.5, 4)]


def _primals():
    cases = [pytest.param(circle(8), id="circle8"), pytest.param(interval_grid(9), id="grid9"),
             pytest.param(hypercube(3), id="hypercube3"),
             pytest.param(random_graph(40, 0.5, 4), id="random40")]
    cases += [pytest.param(random_graph(m, 0.5, m), id=f"random{m}") for m in range(3, 15)]
    return cases


def assert_dual_read_matches_a_solve(space, constant):
    """``dual_equilibrium`` read from k equals C - k solved on its own: the
    value, the measure, the mapped certificate and Frostman's verdicts."""
    eq = dual_equilibrium(space, constant)
    dual, C = dual_kernel(space, constant)
    solved = wiener_energy(dual)
    rep = frostman_check(dual, range(space.m), solved.measure)
    label = (space.name, constant)
    assert eq.constant == C, label
    assert abs(eq.value - solved.value) <= 1e-12 * (1.0 + C), label
    assert np.max(np.abs(eq.measure.weights - solved.measure.weights)) <= 1e-12, label
    assert eq.certificate == solved.certificate == MAPPED[maximal_energy(space).certificate], label
    assert (eq.verdict_a, eq.verdict_b, eq.verdict_c) == (
        rep.verdict_a, rep.verdict_b, rep.verdict_c), label


@pytest.mark.parametrize("shift", [None, 1.5], ids=["max-entry", "dual-constant"])
@pytest.mark.parametrize("desc", _primals())
def test_reflected_extrema_match_unlinked_solves(desc, shift):
    space = generate(desc)
    assert_dual_read_matches_a_solve(space, None if shift is None else space.max_entry() + shift)


@pytest.mark.parametrize("max_points", [8, 12])
def test_dual_read_on_suite_instances(max_points):
    for seed in range(200):
        space = instance_space(seed, max_points)
        for constant in (None, space.max_entry() + 1.5):
            assert_dual_read_matches_a_solve(space, constant)


@pytest.mark.parametrize("desc", PERFBENCH_SPECS, ids=lambda d: generate(d).name)
def test_dual_read_on_benchmark_spaces(desc):
    space = generate(desc)
    for constant in (None, space.max_entry() + 1.5):
        assert_dual_read_matches_a_solve(space, constant)


def test_every_route_is_reflected():
    # the primals above reach every maximal-energy route, so the tag map is
    # checked on each
    seen = set()
    for param in _primals():
        space = generate(param.values[0])
        seen.add((maximal_energy(space).certificate, dual_equilibrium(space).certificate))
    assert seen == {("global_concave_max", "global_convex"),
                    ("enumerated_exact", "enumerated_exact"),
                    ("heuristic_bound", "heuristic_bound")}


def test_reflection_on_a_subset():
    space = generate(random_graph(9, 0.5, 2))
    dual, C = dual_kernel(space)
    H = (0, 2, 3, 7, 8)
    for kind, solve in SOLVERS.items():
        primal = SOLVERS[OPPOSITE[kind]](space, H)
        solved = solve(dual, H)
        assert abs((C - primal.value) - solved.value) <= 1e-12 * (1.0 + C)
        assert np.max(np.abs(primal.measure.weights - solved.measure.weights)) <= 1e-12
        assert solved.certificate == MAPPED[primal.certificate]
        outside = [i for i in range(space.m) if i not in H]
        assert np.all(solved.measure.weights[outside] == 0.0)


def test_an_unlinked_dual_solves_on_its_own(monkeypatch):
    # every space solves its own extrema, the one dual_kernel builds too
    space = generate(random_graph(7, 0.5, 3))
    dual = dual_kernel(space)[0]
    calls = []
    real = optimize_mod._solve_extremum

    def counted(target, *args):
        calls.append(target)
        return real(target, *args)

    monkeypatch.setattr(optimize_mod, "_solve_extremum", counted)
    minimize_quadratic_on_simplex(dual, range(7))
    assert calls == [dual]
    maximize_quadratic_on_simplex(space, range(7))
    assert calls == [dual, space]


def _refuse(*args, **kwargs):
    raise AssertionError("an analysis built C - k")


@pytest.mark.parametrize("desc", [circle(64), random_graph(13, 0.5, 2), random_graph(7, 0.5, 5)],
                         ids=lambda d: generate(d).name)
def test_analysis_builds_no_dual_kernel(monkeypatch, desc):
    space = generate(desc)
    C = space.max_entry() + 1.5
    built = []
    real_post_init = KernelSpace.__post_init__

    def counted(self):
        built.append(self)
        real_post_init(self)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "rdv"]:
        if hasattr(module, "dual_kernel"):
            monkeypatch.setattr(module, "dual_kernel", _refuse)
    monkeypatch.setattr(KernelSpace, "__post_init__", counted)
    report, code = build_analysis(space, SubsetPair.full(space.m), n_max=2, dual_constant=C)
    assert code == 0 and built == []
    assert report.scalars["dual_constant"] == C
    assert report.scalars["w_dual"] == C - report.scalars["max_energy"]


@pytest.mark.parametrize("desc, present", [(circle(64), True), (random_graph(13, 0.5, 2), True),
                                           (random_graph(40, 0.5, 4), False)],
                         ids=["certified-metric", "enumerated", "heuristic"])
def test_dual_route_scalar_presence(desc, present):
    # reported on a metric with a certified concave maximum, or up to
    # QP_ENUM_LIMIT points
    space = generate(desc)
    scalars = build_analysis(space, SubsetPair.full(space.m), n_max=1)[0].scalars
    assert ("max_energy_dual_route" in scalars) is present
    if present:
        assert scalars["max_energy_dual_route"] == scalars["dual_constant"] - scalars["w_dual"]


def test_full_pair_analysis_solves_each_problem_once(monkeypatch):
    # the maximal energy and w: the dual kernel's minimal energy is read
    # from the maximal energy, with the constant given or not
    calls = []
    real = optimize_mod._solve_extremum

    def counted(target, idx, maximize, *args):
        calls.append((target.name, maximize))
        return real(target, idx, maximize, *args)

    monkeypatch.setattr(optimize_mod, "_solve_extremum", counted)
    for constant in (None, 7.5):
        space = generate(random_graph(13, 0.5, 2))
        report, _ = build_analysis(space, SubsetPair.full(13), n_max=2, dual_constant=constant)
        assert sorted(calls) == [(space.name, False), (space.name, True)]
        assert report.parameters["certificate_equilibrium_dual"] == "enumerated_exact"
        calls.clear()


@pytest.mark.parametrize("first", ["min", "max"])
@pytest.mark.parametrize("m, seed", [(9, 1), (12, 1), (14, 3)])
def test_both_signs_share_one_stacked_pass(monkeypatch, first, m, seed):
    # C - K: a metric's own minimum is 0 at a Dirac mass and enumerates
    # nothing, while C - K has a positive diagonal and K's curvature, negated
    space = dual_kernel(generate(random_graph(m, 0.5, seed)))[0]
    passes, stacks, picks = [], [], []
    support_pass, enumerate_supports = optimize_mod._support_pass, optimize_mod._enumerate_supports
    stacked_verdicts = optimize_mod._stacked_verdicts

    def counted_pass(Q):
        passes.append(support_pass(Q))
        return passes[-1]

    def counted_stack(lu, S, Q, resid_tol):
        stacks.append(len(S))
        return stacked_verdicts(lu, S, Q, resid_tol)

    def recorded(Q, sign, swept=None):
        out = enumerate_supports(Q, sign, swept)
        picks.append((sign, swept, out))
        return out

    monkeypatch.setattr(optimize_mod, "_support_pass", counted_pass)
    monkeypatch.setattr(optimize_mod, "_stacked_verdicts", counted_stack)
    monkeypatch.setattr(optimize_mod, "_enumerate_supports", recorded)
    for kind in (first, OPPOSITE[first]):
        assert SOLVERS[kind](space, range(m)).certificate == "enumerated_exact"
    # one pass for both signs, which visits every support once, and decides
    # every one from its bordered solution
    [swept] = passes
    assert swept.visited == swept.bordered == 2 ** m - 1
    assert (swept.fallback, swept.replays, stacks) == (0, 0, [])
    assert [sign for sign, _, _ in picks] == ([1.0, -1.0] if first == "min" else [-1.0, 1.0])
    for sign, given, (w, value, notes) in picks:
        assert given is swept
        w_ref, value_ref, notes_ref = enumerate_supports_loop(space.kernel, sign)
        assert w.tobytes() == w_ref.tobytes()
        assert value == value_ref
        assert notes == notes_ref


def test_dual_rendezvous_number_is_c_minus_r():
    # the identity by which wolf_relations states the dual kernel's relations on k
    for seed in range(100):
        space = instance_space(seed)
        dual, C = dual_kernel(space)
        assert abs(rendezvous_number(dual) - (C - rendezvous_number(space))) <= 1e-12, seed
