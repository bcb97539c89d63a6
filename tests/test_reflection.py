"""One energy problem, one solve.

On the simplex mu' (C 11' - K) mu = C - mu' K mu, so an extremum of the dual
kernel C - k is the opposite extremum of k.  A dual space built by
``dual_kernel`` reads it from its primal; a ``KernelSpace`` built directly
from C - k solves on its own, and the two must agree on every QP route.  The
maximum and the minimum of one kernel share one stacked support pass, and
each equals the one-support-at-a-time loop bit for bit.
"""
import gc
import math
import weakref

import numpy as np
import pytest

import rdv.optimize as optimize_mod
from rdv import (
    KernelSpace,
    SubsetPair,
    circle,
    dual_kernel,
    generate,
    hypercube,
    interval_grid,
    random_graph,
    rendezvous_number,
)
from rdv.cli import build_analysis
from rdv.optimize import (
    _ENUM_CHUNK,
    maximize_quadratic_on_simplex,
    minimize_quadratic_on_simplex,
)
from rdv.suites import instance_space

from oracles import enumerate_supports_loop

MAPPED = {"global_convex": "global_concave_max", "global_concave_max": "global_convex",
          "enumerated_exact": "enumerated_exact", "heuristic_bound": "heuristic_bound"}
SOLVERS = {"min": minimize_quadratic_on_simplex, "max": maximize_quadratic_on_simplex}
OPPOSITE = {"min": "max", "max": "min"}


def unlinked(space):
    """The same kernel as a space of its own, with no link to a primal."""
    return KernelSpace(space.name, space.points, space.kernel, space.is_metric)


def _primals():
    cases = [pytest.param(circle(8), id="circle8"), pytest.param(interval_grid(9), id="grid9"),
             pytest.param(hypercube(3), id="hypercube3"),
             pytest.param(random_graph(40, 0.5, 4), id="random40")]
    cases += [pytest.param(random_graph(m, 0.5, m), id=f"random{m}") for m in range(3, 15)]
    return cases


def assert_agree(reflected, solved, C):
    assert abs(reflected.value - solved.value) <= 1e-12 * (1.0 + C)
    assert np.max(np.abs(reflected.measure.weights - solved.measure.weights)) <= 1e-12
    assert reflected.certificate == solved.certificate


@pytest.mark.parametrize("shift", [None, 1.5], ids=["max-entry", "dual-constant"])
@pytest.mark.parametrize("desc", _primals())
def test_reflected_extrema_match_unlinked_solves(desc, shift):
    space = generate(desc)
    constant = None if shift is None else space.max_entry() + shift
    dual, C = dual_kernel(space, constant)
    # the dual of a dual reflects twice, back to the primal's own extremum
    twice, C2 = dual_kernel(dual, C + 1.0)
    full = range(space.m)
    for kind, solve in SOLVERS.items():
        primal = SOLVERS[OPPOSITE[kind]](space, full)
        reflected = solve(dual, full)
        assert reflected.measure is primal.measure
        assert reflected.certificate == MAPPED[primal.certificate]
        assert reflected.notes[-1] == (
            f"read from the primal's {'minimum' if kind == 'max' else 'maximum'} through C = {C!r}")
        assert_agree(reflected, solve(unlinked(dual), full), C)
        assert_agree(solve(twice, full), solve(unlinked(twice), full), C2)
        assert solve(twice, full).measure is SOLVERS[kind](space, full).measure


def test_every_route_is_reflected():
    # min and max on the duals of the primals above, by the primal's route
    seen = set()
    for param in _primals():
        space = generate(param.values[0])
        dual = dual_kernel(space)[0]
        seen.update(SOLVERS[kind](dual, range(space.m)).certificate for kind in SOLVERS)
        seen.update(SOLVERS[kind](dual_kernel(dual)[0], range(space.m)).certificate
                    for kind in SOLVERS)
    assert seen == set(MAPPED)


def test_reflection_on_a_subset():
    space = generate(random_graph(9, 0.5, 2))
    dual, C = dual_kernel(space)
    H = (0, 2, 3, 7, 8)
    for kind, solve in SOLVERS.items():
        assert_agree(solve(dual, H), solve(unlinked(dual), H), C)
        outside = [i for i in range(space.m) if i not in H]
        assert np.all(solve(dual, H).measure.weights[outside] == 0.0)


def test_an_unlinked_dual_solves_on_its_own(monkeypatch):
    space = generate(random_graph(7, 0.5, 3))
    dual = dual_kernel(space)[0]
    calls = []
    real = optimize_mod._solve_extremum

    def counted(target, *args):
        calls.append(target)
        return real(target, *args)

    monkeypatch.setattr(optimize_mod, "_solve_extremum", counted)
    minimize_quadratic_on_simplex(dual, range(7))
    assert calls == [space]
    fresh = unlinked(dual)
    assert fresh.reflection is None and dual.reflection == (space, dual.kernel[0, 0])
    minimize_quadratic_on_simplex(fresh, range(7))
    assert calls == [space, fresh]


def test_the_primal_owns_its_dual(monkeypatch):
    # no reference cycle: a space and its dual are freed as soon as the
    # last reference goes, with the collector off
    gc.disable()
    try:
        space = generate(random_graph(7, 0.5, 3))
        build_analysis(space, SubsetPair.full(7), n_max=2)
        dual, alive = dual_kernel(space)[0], weakref.ref(space)
        del space
        assert alive() is None
        # a dual that outlived its primal keeps what it read, and solves
        # anything new on its own
        assert dual.reflection is None
        calls = []
        real = optimize_mod._solve_extremum

        def counted(target, *args):
            calls.append(target)
            return real(target, *args)

        monkeypatch.setattr(optimize_mod, "_solve_extremum", counted)
        minimize_quadratic_on_simplex(dual, range(7))
        assert calls == []
        maximize_quadratic_on_simplex(dual, range(7))
        assert calls == [dual]
        del dual
    finally:
        gc.enable()


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


def _chunks(h):
    return sum(-(-math.comb(h, size) // _ENUM_CHUNK) for size in range(1, h + 1))


@pytest.mark.parametrize("first", ["min", "max"])
@pytest.mark.parametrize("m, seed", [(9, 1), (12, 1), (14, 3)])
def test_both_signs_share_one_stacked_pass(monkeypatch, first, m, seed):
    space = generate(random_graph(m, 0.5, seed))
    stacks, picks = [], []
    solve_stack, enumerate_supports = optimize_mod._solve_stack, optimize_mod._enumerate_supports

    def counted_stack(kkt, rhs):
        stacks.append(len(kkt))
        return solve_stack(kkt, rhs)

    def recorded(Q, sign, stacked=None):
        out = enumerate_supports(Q, sign, stacked)
        picks.append((sign, out))
        return out

    monkeypatch.setattr(optimize_mod, "_solve_stack", counted_stack)
    monkeypatch.setattr(optimize_mod, "_enumerate_supports", recorded)
    for kind in (first, OPPOSITE[first]):
        assert SOLVERS[kind](space, range(m)).certificate == "enumerated_exact"
    assert len(stacks) == _chunks(m)
    assert sum(stacks) == 2 ** m - 1
    assert [sign for sign, _ in picks] == ([1.0, -1.0] if first == "min" else [-1.0, 1.0])
    for sign, (w, value, notes) in picks:
        w_ref, value_ref, notes_ref = enumerate_supports_loop(space.kernel, sign)
        assert w.tobytes() == w_ref.tobytes()
        assert value == value_ref
        assert notes == notes_ref


def test_dual_rendezvous_number_is_c_minus_r():
    # the identity by which wolf_relations states the dual kernel's relations on k
    for seed in range(100):
        space = instance_space(seed)
        dual, C = dual_kernel(space)
        unlinked = KernelSpace(dual.name, dual.points, dual.kernel, is_metric=False)
        assert abs(rendezvous_number(unlinked) - (C - rendezvous_number(space))) <= 1e-12, seed
