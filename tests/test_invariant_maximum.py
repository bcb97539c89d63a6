"""The maximal energy that an invariant measure settles, against the Frank-Wolfe route.

On a kernel of negative type the energy is concave on the simplex, so a
measure whose potential is constant on every point is the global maximum.
``optimize`` reads the memoized invariant candidate there and runs no
Frank-Wolfe loop and no KKT solve.  The old route stays reachable: with the
candidate lookup replaced by one that finds nothing, the same solve runs
Frank-Wolfe and its polish, and the two must agree.
"""
import sys
import tracemalloc

import numpy as np
import pytest

from rdv import (
    DualMismatchError,
    KernelSpace,
    Measure,
    SubsetPair,
    circle,
    generate,
    hypercube,
    interval_grid,
    random_graph,
    validate_kernel,
)
from rdv.energy import maximal_energy
from rdv.potential import invariant_candidate, potentials
from rdv.spectral import sum_zero_definiteness
from rdv.suites import _check_converse, instance_space, run_suite, run_suites
from rdv.tolerances import QP_GAP_TOL
import rdv.minimax as minimax_mod
import rdv.optimize as optimize_mod
import rdv.suites as suites_mod

# the package attribute rdv.energy is potential.energy, a function
energy_mod = sys.modules["rdv.energy"]

AGREE = 1e-12

_STRUCTURED = {
    "circle(63,arc)": lambda: generate(circle(63, metric="arc")),
    "circle(64)": lambda: generate(circle(64)),
    "grid(101)": lambda: generate(interval_grid(101)),
    "hypercube(6)": lambda: generate(hypercube(6)),
    "circle(256)": lambda: generate(circle(256)),
    "grid(257)": lambda: generate(interval_grid(257)),
}


def _cases():
    cases = [pytest.param(make, id=name) for name, make in _STRUCTURED.items()]
    cases += [pytest.param(lambda seed=seed: instance_space(seed), id=f"seed {seed}")
              for seed in range(100)]
    return cases


def _frank_wolfe_route(monkeypatch, space):
    """The maximal energy of ``space`` with the candidate lookup finding nothing."""
    monkeypatch.setattr(optimize_mod, "invariant_record", lambda space, pair: None)
    try:
        return maximal_energy(space)
    finally:
        monkeypatch.undo()


def _k33() -> KernelSpace:
    """The complete bipartite graph K_{3,3}: vertex-transitive, so the uniform
    measure is invariant, but not of negative type."""
    row = [0.0, 1.0, 2.0, 1.0, 2.0, 1.0]
    return validate_kernel([[row[(i - j) % 6] for j in range(6)] for i in range(6)], name="K33")


def test_candidate_is_importable_from_minimax():
    assert minimax_mod.invariant_candidate is invariant_candidate


@pytest.mark.parametrize("make", _cases())
def test_agrees_with_the_frank_wolfe_route(monkeypatch, make):
    new = maximal_energy(make())
    old = _frank_wolfe_route(monkeypatch, make())
    assert new.certificate == old.certificate
    assert abs(new.value - old.value) <= AGREE
    assert new.gap <= QP_GAP_TOL
    space = make()
    full = SubsetPair.full(space.m)
    settles = (sum_zero_definiteness(space.kernel)["nsd"]
               and invariant_candidate(space, full) is not None)
    if new.kkt_solves == new.fw_iterations == 0 and new.certificate == "global_concave_max":
        assert settles
    if settles:
        assert (new.kkt_solves, new.fw_iterations) == (0, 0)
        assert new.notes and "invariant" in new.notes[0]
        # the gap is computed, 2 (max K mu - mu' K mu), never a literal 0
        mu = invariant_candidate(space, full).weights
        pot = space.kernel @ mu
        assert new.gap == 2.0 * (float(pot.max()) - float(pot @ mu))


def test_some_computed_gaps_are_not_zero():
    gaps = [maximal_energy(make()).gap for make in _STRUCTURED.values()]
    assert 0.0 < max(gaps) <= QP_GAP_TOL


def test_structured_spaces_take_the_invariant_measure():
    for name, make in _STRUCTURED.items():
        res = maximal_energy(make())
        assert res.certificate == "global_concave_max", name
        assert (res.kkt_solves, res.fw_iterations) == (0, 0), name


@pytest.mark.parametrize("name", ["circle(256)", "grid(257)"])
def test_no_frank_wolfe_loop_and_no_kkt_solve(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("the invariant maximum ran a Frank-Wolfe route")

    monkeypatch.setattr(optimize_mod, "_kkt_weights", refuse)
    monkeypatch.setattr(optimize_mod, "_away_fw_block", refuse)
    res = maximal_energy(_STRUCTURED[name]())
    assert res.certificate == "global_concave_max"


def test_a_kernel_not_of_negative_type_keeps_its_enumerated_maximum():
    # a shortcut that skipped the negative-type test would return the uniform
    # measure, 7/6, as a concave maximum
    space = _k33()
    assert not sum_zero_definiteness(space.kernel)["nsd"]
    mu = invariant_candidate(space, SubsetPair.full(6))
    assert mu is not None and mu.support() == tuple(range(6))
    res = maximal_energy(space)
    assert res.certificate == "enumerated_exact"
    assert res.value == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_a_gap_above_the_tolerance_falls_through():
    # the candidate's gap on grid(101) is about 3e-14: a tighter tolerance
    # sends the solve to Frank-Wolfe
    space = generate(interval_grid(101))
    res = optimize_mod.maximize_quadratic_on_simplex(space, range(101), gap_tol=1e-16)
    assert res.kkt_solves > 0


def test_a_subset_runs_the_route(monkeypatch):
    # the shortcut reads the full pair's candidate only: a proper subset of a
    # circle solves its own maximum
    space = generate(circle(64))
    calls = []
    real = optimize_mod._away_fw_block

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimize_mod, "_away_fw_block", spy)
    res = optimize_mod.maximize_quadratic_on_simplex(space, range(0, 64, 2))
    assert res.certificate == "global_concave_max" and len(calls) == 1


class TestPotentials:
    SPACES = [circle(64), interval_grid(101), hypercube(5), random_graph(40, 0.5, 4)]

    @pytest.mark.parametrize("desc", SPACES, ids=lambda d: generate(d).name)
    def test_bit_for_bit_with_the_row_copy(self, desc):
        space = generate(desc)
        m = space.m
        rng = np.random.default_rng(m)
        w = rng.dirichlet(np.ones(m))
        for L in (tuple(range(m)), list(range(m)), range(m), (0,), tuple(range(0, m, 3)),
                  tuple(range(m - 1, -1, -1)), (2, 2, 1), tuple(range(m - 1))):
            got = potentials(space, L, w)
            assert got.tobytes() == (space.kernel[list(L), :] @ w).tobytes(), L

    def test_every_point_copies_no_row(self):
        space = generate(circle(512))
        w = Measure.uniform(512).weights
        tracemalloc.start()
        potentials(space, range(512), w)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < space.kernel.nbytes // 16


class TestRejectedCandidates:
    """A candidate is tested on a plain array; only an accepted one builds a Measure."""

    @staticmethod
    def _measures(monkeypatch):
        built = []
        real = Measure.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(Measure, "__post_init__", counted)
        return built

    def test_a_miss_builds_no_measure(self, monkeypatch):
        space = generate(random_graph(12, 0.5, 1))
        built = self._measures(monkeypatch)
        assert invariant_candidate(space, SubsetPair.full(12)) is None
        assert built == []

    def test_a_hit_builds_one(self, monkeypatch):
        space = generate(interval_grid(9))
        built = self._measures(monkeypatch)
        mu = invariant_candidate(space, SubsetPair.full(9))
        assert mu is not None and built == [mu] and mu.support() == (0, 8)


class TestConverseDualRoute:
    """Where the Wolf form applies, the converse suite solves C - k on its own."""

    def test_one_dual_solve_per_instance_across_the_suites(self, monkeypatch):
        duals = []
        real = optimize_mod._solve_extremum

        def counted(target, *args):
            if target.name.startswith("dual("):
                duals.append(target.name)
            return real(target, *args)

        monkeypatch.setattr(optimize_mod, "_solve_extremum", counted)
        reports = run_suites("all", seeds=20)
        assert all(rep.passed for rep in reports)
        # the wolf suite builds C - k on every instance; the converse suite
        # reads the gap kept on the space
        assert len(duals) == 20

    def test_converse_alone_checks_the_dual_route(self, monkeypatch):
        calls = []
        real = suites_mod.dual_route_check

        def spy(space, *args):
            calls.append(space.name)
            return real(space, *args)

        monkeypatch.setattr(suites_mod, "dual_route_check", spy)
        report = run_suite("converse", seeds=30)
        applicable = [o.name for o in report.outcomes if "wolf_form res=" in o.detail]
        assert report.passed and applicable and len(calls) == len(applicable)

    def test_a_wrong_dual_route_fails_the_converse_suite(self, monkeypatch):
        seeds = [s for s in range(30) if "wolf_form res="
                 in _check_converse(instance_space(s))[1]]
        assert seeds
        real = energy_mod.wiener_energy

        def corrupted(space, H=None):
            out = real(space, H)
            return type(out)(value=out.value + 1e-3, measure=out.measure,
                             certificate=out.certificate, gap=out.gap, notes=out.notes)

        monkeypatch.setattr(energy_mod, "wiener_energy", corrupted)
        for seed in seeds:
            with pytest.raises(DualMismatchError):
                _check_converse(instance_space(seed))
