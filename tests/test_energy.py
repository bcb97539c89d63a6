"""Extremal energies, maximum-principle verdicts, and the ordering relations."""
import dataclasses

import numpy as np
import pytest

from rdv import (
    DimensionMismatchError,
    DualMismatchError,
    EmptySubsetError,
    IndexOutOfRangeError,
    Measure,
    SubsetPair,
    circle,
    dual_equilibrium,
    dual_kernel,
    dual_route_check,
    frostman_check,
    generate,
    hypercube,
    interval_grid,
    maximal_energy,
    random_graph,
    rendezvous_number,
    wiener_energy,
    wolf_relations,
)
from rdv.cli import build_analysis
from rdv.energy import maximal_energy_raw, order_side
from rdv.optimize import maximize_quadratic_on_simplex
import sys

# the package re-exports the energy() function, which shadows the module
# attribute; grab the module object itself for monkeypatching
energy_mod = sys.modules["rdv.energy"]
from rdv.suites import REGRESSION_SEED, instance_space
from rdv.tolerances import EQUALITY_TOL, FROSTMAN_TOL, ORDER_TOL

from oracles import grid_energy


class TestWienerEnergy:
    def test_zero_on_metric_spaces(self, k3, instances100):
        # point masses have zero self-energy whenever the diagonal is zero
        for space in (k3, instances100[0], instances100[25]):
            res = wiener_energy(space)
            assert res.value == pytest.approx(0.0, abs=1e-10)
            assert len(res.measure.support()) == 1

    def test_dual_complete_graph_is_identity(self, k3):
        dual, C = dual_kernel(k3)
        assert C == 1.0
        assert np.array_equal(dual.kernel, np.eye(3))
        res = wiener_energy(dual)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert res.measure.weights == pytest.approx([1 / 3] * 3, abs=1e-6)

    def test_subset_restriction(self, instances100):
        space = instances100[8]
        dual, _ = dual_kernel(space)
        sub = wiener_energy(dual, H=(0, 1, 2))
        assert set(sub.measure.support()) <= {0, 1, 2}
        assert sub.value >= wiener_energy(dual).value - 1e-9

    def test_against_grid(self, instances100):
        space = instances100[5]
        dual, _ = dual_kernel(space)
        res = wiener_energy(dual)
        lo_grid, _ = grid_energy(dual.kernel, range(dual.m), denom=20)
        assert res.value <= lo_grid + 1e-9
        assert res.value >= lo_grid - 5.0 * dual.max_entry() / 20.0


class TestFrostmanCheck:
    def test_equilibrium_passes_all_three(self, k3):
        dual, _ = dual_kernel(k3)
        eq = wiener_energy(dual).measure
        rep = frostman_check(dual, range(3), eq)
        assert rep.verdict_a and rep.verdict_b and rep.verdict_c
        assert rep.violation_mass <= 1e-6
        assert rep.min_potential == pytest.approx(rep.w_value, abs=1e-6)
        assert rep.max_potential_on_support == pytest.approx(rep.w_value, abs=1e-6)

    def test_point_mass_fails(self, k3):
        dual, _ = dual_kernel(k3)  # identity kernel, w = 1/3
        rep = frostman_check(dual, range(3), Measure.dirac(3, 0))
        assert not rep.verdict_a  # potential 0 away from the atom
        assert not rep.verdict_b  # potential 1 on the atom
        assert not rep.verdict_c  # all mass sits on a violating point
        assert rep.violation_mass == pytest.approx(1.0, abs=1e-9)

    def test_equilibria_on_random_duals(self, instances100):
        for space in instances100[:10]:
            dual, _ = dual_kernel(space)
            eq = wiener_energy(dual).measure
            rep = frostman_check(dual, range(dual.m), eq)
            assert rep.verdict_a and rep.verdict_b and rep.verdict_c

    def test_tolerance_is_adjustable(self, k3):
        # frostman_check reads FROSTMAN_TOL; the principle it shares with
        # dual_equilibrium takes any tolerance
        dual, _ = dual_kernel(k3)
        uneven = Measure(np.array([0.34, 0.33, 0.33]))
        pot, w = dual.kernel @ uneven.weights, wiener_energy(dual).value
        strict = energy_mod._principle(pot, w, uneven.weights, 1e-12)
        loose = energy_mod._principle(pot, w, uneven.weights, 0.05)
        assert not (strict.verdict_a and strict.verdict_b and strict.verdict_c)
        assert loose.verdict_a and loose.verdict_b and loose.verdict_c
        assert frostman_check(dual, range(3), uneven) == energy_mod._principle(
            pot, w, uneven.weights, FROSTMAN_TOL)

    def test_input_validation(self, k3):
        with pytest.raises(EmptySubsetError):
            frostman_check(k3, [], Measure.uniform(3))
        with pytest.raises(IndexOutOfRangeError):
            frostman_check(k3, [0, 9], Measure.uniform(3))
        with pytest.raises(DimensionMismatchError):
            frostman_check(k3, [0], Measure.uniform(4))

    @pytest.mark.parametrize("space, weights, verdicts", [
        ("k3", [1.0, 0.0, 0.0], (False, False, False)),
        ("k3", [0.34, 0.33, 0.33], (False, False, False)),
        ("g3", [0.4, 0.2, 0.4], (True, False, False)),
        ("g3", [0.5, 0.0, 0.5], (True, True, True))])
    def test_dual_equilibrium_states_the_same_principle(self, request, monkeypatch,
                                                        space, weights, verdicts):
        # a measure in place of the maximal-energy one: the verdicts read on
        # k are frostman_check's on C - k for that measure
        space = request.getfixturevalue(space)
        real = maximal_energy(space)
        mu = Measure(np.array(weights))
        monkeypatch.setattr(energy_mod, "maximal_energy",
                            lambda space: dataclasses.replace(real, measure=mu))
        eq = dual_equilibrium(space)
        rep = frostman_check(dual_kernel(space)[0], range(3), mu)
        assert (eq.verdict_a, eq.verdict_b, eq.verdict_c) == (
            rep.verdict_a, rep.verdict_b, rep.verdict_c) == verdicts


class TestMaximalEnergy:
    def test_complete_graph_both_routes(self, k3):
        res = maximal_energy(k3)
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-9)
        # metric and certified on the sum-zero cone, so dual_route_check asserts
        assert res.certificate == "global_concave_max"
        eq = dual_equilibrium(k3)
        assert eq.constant == 1.0
        assert eq.constant - eq.value == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert dual_route_check(k3) <= 1e-9

    def test_direct_equals_raw(self, instances100):
        space = instances100[14]
        assert maximal_energy(space).value == maximal_energy_raw(space).value

    def test_reflection_identity_on_small_spaces(self, instances100):
        # energy_{C-k}(mu) = C - energy_k(mu) pointwise, so the routes agree
        # on every exactly solved instance whether or not the check is armed
        for space in instances100[:10]:
            assert dual_route_check(space) <= 1e-8

    def test_explicit_constant(self, k3):
        eq = dual_equilibrium(k3, 5.0)
        assert eq.constant == 5.0
        assert eq.constant - eq.value == pytest.approx(maximal_energy(k3).value, abs=1e-8)
        assert dual_route_check(k3, 5.0) <= 1e-8

    @pytest.mark.parametrize("desc, certified", [
        (circle(8), True), (interval_grid(9), True), (hypercube(3), True),
        (random_graph(12, 0.5, 1), False), (random_graph(40, 0.5, 4), False)])
    @pytest.mark.parametrize("shift", [None, 1.5])
    def test_dual_route_matches_an_unlinked_solve(self, desc, certified, shift):
        # C - k built by dual_kernel solves its minimal energy itself
        space = generate(desc)
        constant = None if shift is None else space.max_entry() + shift
        res = maximal_energy(space)
        assert (space.is_metric and res.certificate == "global_concave_max") is certified
        dual, C = dual_kernel(space, constant)
        solved = wiener_energy(dual)
        gap = abs(res.value - (C - solved.value))
        assert gap <= 1e-12 * (1.0 + C)
        assert dual_route_check(space, constant) == gap
        eq = dual_equilibrium(space, constant)
        assert eq.constant == C
        assert eq.value == C - res.value
        assert abs(eq.value - solved.value) <= 1e-12 * (1.0 + C)

    def test_certified_disagreement_is_fatal(self, k3, monkeypatch):
        real = energy_mod.minimize_quadratic_on_simplex

        def corrupted(space, H, **kw):
            out = real(space, H, **kw)
            return type(out)(
                value=out.value + 1e-3,
                measure=out.measure,
                certificate=out.certificate,
                gap=out.gap,
                notes=out.notes,
            )

        monkeypatch.setattr(energy_mod, "minimize_quadratic_on_simplex", corrupted)
        with pytest.raises(DualMismatchError) as e:
            dual_route_check(k3)
        assert e.value.code == "DualMismatch"
        # off a metric of negative type the gap is only reported
        assert dual_route_check(generate(random_graph(12, 0.5, 1))) == pytest.approx(1e-3)

    def test_against_grid(self, instances100):
        space = instances100[6]
        res = maximal_energy(space)
        _, hi_grid = grid_energy(space.kernel, range(space.m), denom=20)
        assert res.value >= hi_grid - 1e-9


class TestWolfRelations:
    def test_two_point_space(self, t2):
        rep = wolf_relations(t2)
        assert rep.r == pytest.approx(0.5, abs=1e-9)
        assert rep.e == pytest.approx(0.5, abs=1e-9)
        assert rep.w == pytest.approx(0.0, abs=1e-10)
        assert rep.upper.ok and rep.lower.ok
        assert rep.upper.equality_applicable
        assert rep.upper.invariant_found is True
        assert not rep.lower.equality_applicable and rep.lower.invariant_found is None

    def test_complete_graph_equalities(self, k3):
        rep = wolf_relations(k3)
        assert rep.r == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert rep.e == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert rep.upper.equality_applicable
        assert rep.upper.invariant_found is True

    def test_interval_grid_endpoint_equality(self):
        rep = wolf_relations(generate(interval_grid(11)))
        assert rep.r == pytest.approx(0.5, abs=1e-9)
        assert rep.e == pytest.approx(0.5, abs=1e-9)
        assert rep.upper.invariant_found is True

    def test_orderings_hold_across_instances(self, instances100):
        for space in instances100[:15]:
            rep = wolf_relations(space)
            for side in (rep.upper, rep.lower):
                assert side.ok
                if side.equality_applicable:
                    assert side.invariant_found is True

    def test_sides_restate_the_dual_kernel(self, instances100):
        # w_dual <= r_dual <= E_dual solved on C - k gives the verdicts of
        # the two sides on k: r_dual <= C - w is the lower side, w_dual =
        # C - E <= r_dual the upper one
        for space in instances100:
            rep = wolf_relations(space)
            dual, C = dual_kernel(space)
            r_dual = rendezvous_number(dual)
            dual_upper = order_side(dual, r_dual, C - rep.w)
            assert (dual_upper.ok, dual_upper.equality_applicable, dual_upper.invariant_found) == (
                rep.lower.ok, rep.lower.equality_applicable, rep.lower.invariant_found)
            assert bool(r_dual >= wiener_energy(dual).value - ORDER_TOL) is rep.upper.ok

    def test_pinned_strict_gap_instance(self):
        # 6-point geodesic space where the maximal energy strictly exceeds
        # the rendezvous value; values pinned as a regression guard
        rep = wolf_relations(instance_space(REGRESSION_SEED))
        assert rep.r == pytest.approx(1.0360979992548067, abs=1e-9)
        assert rep.e == pytest.approx(1.1990690458407671, abs=1e-9)
        assert rep.e - rep.r == pytest.approx(0.1629710465859604, abs=1e-9)
        assert not rep.upper.equality_applicable
        assert rep.upper.invariant_found is None
        assert rep.upper.ok and rep.lower.ok


class TestUpperSide:
    """``order_side`` on r <= E: the tolerances of r <= E and r = E, and the search it triggers."""

    def test_strict_gap_skips_the_search(self, k3, monkeypatch):
        def searched(*args):
            raise AssertionError("no invariant search when r < E")

        monkeypatch.setattr(energy_mod, "invariant_measure", searched)
        side = order_side(k3, 0.5, 0.5 + 2 * EQUALITY_TOL)
        assert (side.ok, side.equality_applicable, side.invariant_found) == (True, False, None)
        assert side.invariant_when_equal

    def test_equality_searches_the_full_pair(self, k3):
        side = order_side(k3, 2.0 / 3.0 + 0.5 * ORDER_TOL, 2.0 / 3.0)
        assert side.equality_applicable and side.invariant_found is True
        assert side.ok and side.invariant_when_equal

    def test_order_tolerance(self, k3):
        e = 2.0 / 3.0
        assert order_side(k3, e + 0.5 * ORDER_TOL, e).ok
        assert not order_side(k3, e + 2 * EQUALITY_TOL, e).ok

    def test_wolf_relations_and_analysis_agree(self):
        space = instance_space(REGRESSION_SEED)
        rep = wolf_relations(space)
        side = order_side(space, rep.r, rep.e)
        assert rep.upper == side
        report, _ = build_analysis(space, SubsetPair.full(space.m), n_max=2)
        assert report.verdicts["wolf_upper"] is side.ok
        assert report.verdicts["wolf_invariant_when_equal"] is side.invariant_when_equal
        assert report.parameters["wolf_equality_applicable"] is side.equality_applicable


class TestSubsetValidation:
    """Every energy entry point checks H as strictly as a SubsetPair side."""

    CALLS = {
        "wiener_energy": wiener_energy,
        "maximize_quadratic_on_simplex": maximize_quadratic_on_simplex,
        "frostman_check": lambda space, H: frostman_check(space, H, Measure.uniform(space.m)),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("H, error", [
        ([0.7, 2], IndexOutOfRangeError),
        ([-1, 2], IndexOutOfRangeError),
        ([0, 6], IndexOutOfRangeError),
        ([], EmptySubsetError),
    ], ids=["non-integer", "negative", "out-of-range", "empty"])
    def test_bad_subset_raises(self, name, H, error):
        with pytest.raises(error):
            self.CALLS[name](generate(circle(6)), H)
