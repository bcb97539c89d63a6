"""Invariance LPs, quasi-invariant squeezing, negative type, converse checks."""
import numpy as np
import pytest

from rdv import (
    IndexOutOfRangeError,
    Measure,
    SubsetPair,
    converse_check,
    dual_kernel,
    generate,
    hypercube,
    circle,
    interval_grid,
    invariant_measure,
    min_invariance_gap,
    negative_type_test,
    profile,
    quasi_invariant_convergence,
    rendezvous_number,
    validate_kernel,
)
from rdv.spectral import centered
from rdv.suites import REGRESSION_SEED, instance_pairs, instance_space

from oracles import centered_by_projection, invariance_gap_grid, max_sum_zero_energy_probe


class TestInvarianceGap:
    def test_two_point_space_is_invariant(self, t2):
        gap, mu = min_invariance_gap(t2, SubsetPair.full(2))
        assert gap <= 1e-10
        assert mu.weights == pytest.approx([0.5, 0.5], abs=1e-9)
        res = invariant_measure(t2, SubsetPair.full(2))
        assert res.found
        assert res.constant == pytest.approx(0.5, abs=1e-9)
        assert res.residual <= 1e-9
        assert res.average_matches is True

    def test_half_support_cannot_flatten_complete_graph(self, k3):
        # mass on {0,1} shows potential 1 at point 2 but at most 1/2 nearby
        pair = SubsetPair((0, 1), (0, 1, 2))
        gap, mu = min_invariance_gap(k3, pair)
        assert gap == pytest.approx(0.5, abs=1e-9)
        assert mu.weights[:2] == pytest.approx([0.5, 0.5], abs=1e-8)
        res = invariant_measure(k3, pair)
        assert not res.found
        assert res.constant is None
        assert res.average_matches is None

    def test_grid_endpoints_flatten_the_interval(self):
        space = generate(interval_grid(11))
        res = invariant_measure(space, SubsetPair.full(11))
        assert res.found
        assert res.constant == pytest.approx(0.5, abs=1e-9)
        # the optimizer may return any flat measure; the canonical one is
        # half the mass on each endpoint, so verify that one directly
        endpoint = Measure.from_subvector(11, (0, 10), np.array([0.5, 0.5]))
        prof = profile(space, endpoint, range(11))
        assert prof.interval.width <= 1e-12

    def test_lopsided_path_graph_against_grid_oracle(self):
        kernel = [[0.0, 1.0, 11.0], [1.0, 0.0, 10.0], [11.0, 10.0, 0.0]]
        space = validate_kernel(kernel, require_metric=True)
        pair = SubsetPair.full(3)
        gap, _ = min_invariance_gap(space, pair)
        denom = 200
        grid_gap = invariance_gap_grid(space.kernel, pair.H, pair.L, denom)
        assert gap <= grid_gap + 1e-9  # grid measures are feasible
        assert grid_gap - gap <= 3.0 * space.max_entry() / denom

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_uniform_flattens_vertex_transitive_spaces(self, m):
        space = generate(circle(m))
        res = invariant_measure(space, SubsetPair.full(m))
        assert res.found
        assert res.average_matches is True
        assert res.constant == pytest.approx(rendezvous_number(space), abs=1e-8)
        uniform = Measure.uniform(m)
        prof = profile(space, uniform, range(m))
        assert prof.interval.width <= 1e-12

    def test_gap_never_negative(self, instances100):
        for space in instances100[:10]:
            gap, _ = min_invariance_gap(space, SubsetPair.full(space.m))
            assert gap >= 0.0

    def test_pair_range_checked(self, t2):
        with pytest.raises(IndexOutOfRangeError):
            min_invariance_gap(t2, SubsetPair((0,), (4,)))


class TestQuasiInvariance:
    def test_feasibility_threshold(self, k3):
        # g = 1/2 is the least oscillation a measure on {0, 1} reaches on L,
        # the threshold from which an eps-flat measure exists.  Its level at
        # point 0 is 1/2, the lower value is 1/2 and the upper value 1, so
        # the deviation meets the bound g exactly.
        pair = SubsetPair((0, 1), (0, 1, 2))
        rep = quasi_invariant_convergence(k3, pair)
        assert rep.applicable
        assert rep.minimal_gap == pytest.approx(0.5, abs=1e-9)
        assert rep.rho == pytest.approx(0.5, abs=1e-9)
        assert (rep.average.q_lower, rep.average.q_upper) == pytest.approx((0.5, 1.0), abs=1e-9)
        assert rep.deviation == pytest.approx(0.5, abs=1e-9)
        assert rep.within_bound is True
        # mass on {1, 2}: the level at point 0 is the upper value 1, and the
        # deviation g comes from the lower value's side
        rep = quasi_invariant_convergence(k3, SubsetPair((1, 2), (0, 1, 2)))
        assert rep.rho == pytest.approx(1.0, abs=1e-9)
        assert rep.deviation == pytest.approx(0.5, abs=1e-9)
        assert rep.within_bound is True

    def test_levels_squeeze_on_invariant_pair(self, t2):
        rep = quasi_invariant_convergence(t2, SubsetPair.full(2))
        assert rep.applicable
        assert rep.minimal_gap <= 1e-12
        assert rep.rho == pytest.approx(0.5, abs=1e-12)
        assert rep.deviation <= 1e-12
        assert rep.within_bound is True

    def test_not_applicable_on_crossing_pair(self, t2):
        rep = quasi_invariant_convergence(t2, SubsetPair((0, 1), (0,)))
        assert not rep.applicable
        assert rep.average.interval.empty
        assert (rep.rho, rep.deviation, rep.within_bound) == (None, None, None)
        assert rep.minimal_gap == pytest.approx(0.0, abs=1e-12)

    def test_deviation_within_gap_on_random_pairs(self, instances100):
        for space in instances100[:8]:
            pair = SubsetPair((0, 1, 2), tuple(range(space.m)))
            rep = quasi_invariant_convergence(space, pair)
            assert rep.applicable  # a nested pair's interval is never empty
            assert 0.0 <= rep.deviation <= rep.minimal_gap + 1e-12
            assert rep.within_bound is True

    @pytest.mark.parametrize("max_points", [8, 12])
    def test_sharp_bound_on_suite_instances(self, max_points):
        # both pairs of every suite seed; the bound is d <= g, up to rounding
        applicable = 0
        for seed in range(200):
            space = instance_space(seed, max_points)
            for pair in instance_pairs(space.m, seed):
                rep = quasi_invariant_convergence(space, pair)
                if not rep.applicable:
                    assert rep.deviation is None and rep.within_bound is None
                    continue
                applicable += 1
                label = (seed, pair)
                assert 0.0 <= rep.deviation <= rep.minimal_gap + 1e-12, label
                assert rep.within_bound is True, label
                assert rep.rho == float(space.kernel[pair.L[0]] @ rep.measure.weights), label
        assert applicable >= 200  # every nested pair, and some general ones


class TestNegativeType:
    def test_two_point_spectrum(self, t2):
        cert = negative_type_test(t2)
        assert cert.holds
        assert cert.extreme_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert cert.violating_vector is None
        vals = np.linalg.eigvalsh(centered(t2.kernel))
        assert vals == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_complete_graph_spectrum(self, k3):
        cert = negative_type_test(k3)
        assert cert.holds
        vals = np.linalg.eigvalsh(centered(k3.kernel))
        assert vals == pytest.approx([-1.0, -1.0, 0.0], abs=1e-12)

    def test_identity_kernel_fails_with_witness(self, k3):
        dual, _ = dual_kernel(k3)  # identity matrix
        cert = negative_type_test(dual)
        assert not cert.holds
        assert cert.extreme_eigenvalue == pytest.approx(1.0, abs=1e-12)
        c = cert.violating_vector
        assert abs(c.sum()) <= 1e-12
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
        assert cert.witness_energy == pytest.approx(1.0, abs=1e-10)
        assert cert.witness_energy > 0

    @pytest.mark.parametrize(
        "desc",
        [interval_grid(9), circle(6), circle(7, "arc"), hypercube(3)],
    )
    def test_classical_spaces_have_negative_type(self, desc):
        assert negative_type_test(generate(desc)).holds

    def test_centering_matches_projection_product(self, instances100):
        for space in instances100[:10]:
            direct = centered(space.kernel)
            explicit = centered_by_projection(space.kernel)
            assert np.max(np.abs(direct - explicit)) <= 1e-12

    def test_dual_centering_is_negation(self, instances100):
        # constant rows vanish under centering, so C - k centers to -centered(k)
        for space in instances100[:10]:
            dual, _ = dual_kernel(space)
            diff = centered(dual.kernel) + centered(space.kernel)
            assert np.max(np.abs(diff)) <= 1e-12

    def test_random_probe_agrees_with_verdict(self, instances100):
        for space in instances100[:12]:
            cert = negative_type_test(space)
            probe = max_sum_zero_energy_probe(space.kernel)
            if cert.holds:
                assert probe <= 1e-8
            # the probe is a lower bound for the max sum-zero energy
            assert probe <= max(cert.extreme_eigenvalue, 0.0) + 1e-8


class TestConverseCheck:
    def test_kernel_form_on_identity(self, k3):
        dual, _ = dual_kernel(k3)
        rep = converse_check(dual, SubsetPair.full(3))
        form = rep.kernel_form
        assert form.applicable
        assert form.ok
        assert form.target == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert form.achieved == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert form.residual <= 1e-7

    def test_wolf_form_on_grid(self):
        space = generate(interval_grid(11))
        rep = converse_check(space, SubsetPair.full(11))
        assert rep.wolf_form is not None
        assert rep.wolf_form.applicable
        assert rep.wolf_form.ok
        assert rep.wolf_form.target == pytest.approx(0.5, abs=1e-8)
        assert rep.wolf_form.achieved == pytest.approx(0.5, abs=1e-8)

    def test_complete_graph_splits_by_branch(self, k3):
        rep = converse_check(k3, SubsetPair.full(3))
        # energy form is concave, so the kernel branch cannot apply ...
        assert not rep.kernel_form.applicable
        assert any("not positive" in h for h in rep.kernel_form.failed_hypotheses)
        # ... but the metric branch does, and the equality holds
        assert rep.wolf_form.applicable
        assert rep.wolf_form.ok
        assert rep.wolf_form.target == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_no_invariant_measure_disables_both(self):
        space = instance_space(REGRESSION_SEED)
        rep = converse_check(space, SubsetPair.full(space.m))
        assert not rep.kernel_form.applicable
        assert any("invariant" in h for h in rep.kernel_form.failed_hypotheses)
        assert rep.wolf_form is not None
        assert not rep.wolf_form.applicable

    def test_wolf_form_requires_equal_pair(self, k3):
        rep = converse_check(k3, SubsetPair((0, 1), (0, 1, 2)))
        assert rep.wolf_form is None

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_hypercubes_satisfy_wolf_form(self, dim):
        space = generate(hypercube(dim))
        rep = converse_check(space, SubsetPair.full(space.m))
        assert rep.wolf_form.applicable
        assert rep.wolf_form.ok
        assert rep.wolf_form.achieved == pytest.approx(dim / 2.0, abs=1e-8)
