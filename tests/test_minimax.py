"""Minimax level values, duality, separating measures, and the value chain."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdv import (
    KernelSpace,
    Measure,
    SubsetPair,
    UniquenessViolatedError,
    average_interval,
    chebyshev_table,
    circle,
    dual_chebyshev_n,
    elton_measures,
    generate,
    hypercube,
    inequality_chain,
    interval_grid,
    invariant_measure,
    profile,
    q_lower_value,
    q_value,
    random_graph,
    rendezvous_number,
    validate_kernel,
)
import rdv.minimax as minimax

from oracles import circle_rendezvous_closed_form, grid_minimax, hypercube_rendezvous


class TestLevelProgram:
    """The one LP behind q, q_lower and the invariance gap, row by row."""

    # K[L, H] for H = (0, 2), L = (1, 2) is [[1, 3], [2, 0]]
    SPACE = KernelSpace("k", ("a", "b", "c"),
                        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]), False)
    PAIR = SubsetPair((0, 2), (1, 2))

    @pytest.mark.parametrize("roof, floor, c, A", [
        (True, False, [0, 0, 1],
         [[1, 3, -1], [2, 0, -1], [1, 1, 0]]),
        (False, True, [0, 0, -1],
         [[-1, -3, 1], [-2, 0, 1], [1, 1, 0]]),
        (True, True, [0, 0, 1, -1],
         [[1, 3, -1, 0], [2, 0, -1, 0], [-1, -3, 0, 1], [-2, 0, 0, 1], [1, 1, 0, 0]]),
    ], ids=["roof", "floor", "both"])
    def test_rows(self, roof, floor, c, A):
        lp = minimax.level_program(self.SPACE, self.PAIR, roof=roof, floor=floor)
        rows = len(A)
        assert np.array_equal(lp.c, np.array(c, dtype=float))
        assert np.array_equal(lp.A, np.array(A, dtype=float))
        assert lp.senses == ("<=",) * (rows - 1) + ("=",)
        assert np.array_equal(lp.b, np.eye(rows)[-1])
        assert np.array_equal(lp.lower, np.zeros(len(c)))
        assert np.array_equal(lp.upper, np.full(len(c), np.inf))

    # delta on point 0 has potentials (1, 2) on L, delta on point 2 has (3, 0):
    # point 0 wins each form, the roof tight on row 1, the floor on row 0.
    # Slack columns follow the x columns in row order.
    @pytest.mark.parametrize("roof, floor, basis", [
        (True, False, (0, 2, 3)),
        (False, True, (0, 2, 4)),
        (True, True, (0, 2, 3, 4, 7)),
    ], ids=["roof", "floor", "both"])
    def test_dirac_basis(self, roof, floor, basis):
        lp = minimax.level_program(self.SPACE, self.PAIR, roof=roof, floor=floor)
        assert lp.basis == basis

    def test_dirac_basis_ties_go_to_the_first_index(self, g3):
        # On H = L = (0, 2) both Dirac masses have worst potential 1, and the
        # potential (0, 1) of delta_0 is largest on row 1.
        ends = SubsetPair((0, 2), (0, 2))
        assert minimax.level_program(g3, ends, True, False).basis == (0, 2, 3)
        # On the full space delta_1 has the least worst potential, 0.5, on
        # rows 0 and 2; row 0 is the tight one.
        full = SubsetPair.full(3)
        assert minimax.level_program(g3, full, True, False).basis == (1, 3, 5, 6)


class TestFrozenValues:
    def test_two_points(self, t2):
        pair = SubsetPair.full(2)
        qu, mu = q_value(t2, pair)
        ql, nu = q_lower_value(t2, pair)
        assert qu == pytest.approx(0.5, abs=1e-10)
        assert ql == pytest.approx(0.5, abs=1e-10)
        assert mu.weights == pytest.approx([0.5, 0.5], abs=1e-9)
        assert nu.weights == pytest.approx([0.5, 0.5], abs=1e-9)
        assert rendezvous_number(t2) == pytest.approx(0.5, abs=1e-9)

    def test_complete_graph(self, k3):
        assert rendezvous_number(k3) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_three_point_interval(self, g3):
        # half-spaced path: ends at distance 1, middle at 1/2
        r = rendezvous_number(g3)
        assert r == pytest.approx(0.5, abs=1e-9)
        # the q LP has two optimal measures, delta_1 and (1/2, 0, 1/2); it
        # starts at delta_1, already optimal, and stays there
        full = SubsetPair.full(3)
        qu, mu = q_value(g3, full)
        assert qu == 0.5
        assert mu.weights.tolist() == [0.0, 1.0, 0.0]
        ends = invariant_measure(g3, full).measure
        assert ends.weights == pytest.approx([0.5, 0.0, 0.5], abs=1e-8)
        for measure in (mu, ends):
            assert (g3.kernel @ measure.weights).max() == pytest.approx(0.5, abs=1e-12)

    def test_interval_grid(self):
        for m in (11, 101):
            space = generate(interval_grid(m))
            assert rendezvous_number(space) == pytest.approx(0.5, abs=1e-9)

    def test_circle_closed_form(self):
        for m in (4, 8, 16):
            space = generate(circle(m))
            assert rendezvous_number(space) == pytest.approx(
                circle_rendezvous_closed_form(m), abs=1e-9
            )

    def test_hypercube(self):
        for dim in (1, 2, 3):
            space = generate(hypercube(dim))
            assert rendezvous_number(space) == pytest.approx(
                hypercube_rendezvous(dim), abs=1e-9
            )

    def test_scale_equivariance(self, k3):
        doubled = validate_kernel(2.0 * k3.kernel)
        assert rendezvous_number(doubled) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_singleton_subset(self, k3):
        assert rendezvous_number(k3, [1]) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_subset_is_half_distance(self, instances100):
        space = instances100[21]
        for i, j in ((0, 1), (2, 5)):
            assert rendezvous_number(space, [i, j]) == pytest.approx(
                space.kernel[i, j] / 2.0, abs=1e-9
            )


class TestOptimalMeasures:
    def test_upper_measure_caps_potential_at_value(self, instances100):
        for space in instances100[:8]:
            pair = SubsetPair.full(space.m)
            qu, mu = q_value(space, pair)
            prof = profile(space, mu, pair.L)
            assert prof.interval.hi <= qu + 1e-9
            assert set(mu.support()) <= set(pair.H)

    def test_lower_measure_floors_potential_at_value(self, instances100):
        for space in instances100[:8]:
            pair = SubsetPair.full(space.m)
            ql, nu = q_lower_value(space, pair)
            prof = profile(space, nu, pair.L)
            assert prof.interval.lo >= ql - 1e-9

    def test_partial_pair_support(self, instances100):
        space = instances100[30]
        pair = SubsetPair((1, 3), (0, 2, 4, 5))
        _, mu = q_value(space, pair)
        assert set(mu.support()) <= {1, 3}


class TestDuality:
    @settings(max_examples=25)
    @given(seed=st.integers(0, 80), pick=st.integers(0, 500))
    def test_lower_value_is_swapped_upper_value(self, seed, pick):
        space = generate(random_graph(6, 0.5, seed))
        rng = np.random.default_rng([pick, 7])
        H = tuple(int(i) for i in rng.choice(6, size=rng.integers(1, 6), replace=False))
        L = tuple(int(i) for i in rng.choice(6, size=rng.integers(1, 6), replace=False))
        pair = SubsetPair(H, L)
        ql, _ = q_lower_value(space, pair)
        qs, _ = q_value(space, pair.swapped())
        assert ql == pytest.approx(qs, abs=1e-8)

    def test_against_dense_measure_grid(self, instances100):
        space = instances100[2]
        pair = SubsetPair.full(space.m)
        qu, _ = q_value(space, pair)
        ql, _ = q_lower_value(space, pair)
        grid_up, grid_lo = grid_minimax(space.kernel, pair.H, pair.L, denom=24)
        # grid measures are feasible, so they cannot beat the LP optimum
        assert grid_up >= qu - 1e-9
        assert grid_lo <= ql + 1e-9
        tol = 3.0 * space.max_entry() / 24.0
        assert grid_up == pytest.approx(qu, abs=tol)
        assert grid_lo == pytest.approx(ql, abs=tol)


class TestAverageInterval:
    def test_point_interval_on_full_pair(self, instances100):
        space = instances100[40]
        avg = average_interval(space, SubsetPair.full(space.m))
        assert avg.unique_point is not None
        assert avg.interval.width <= 1e-8
        assert avg.interval.contains(avg.unique_point, tol=1e-9)

    def test_crossing_values_flagged_empty(self, t2):
        # measures on both points, judged only from point 0: the guaranteed
        # level (1, mass far away) exceeds the achievable cap (0, mass here)
        avg = average_interval(t2, SubsetPair((0, 1), (0,)))
        assert avg.q_upper == pytest.approx(0.0, abs=1e-10)
        assert avg.q_lower == pytest.approx(1.0, abs=1e-10)
        assert avg.interval.empty
        assert avg.unique_point is None

    def test_equal_pair_gap_is_hard_error(self, monkeypatch):
        # a space without an invariant-measure candidate, so the two LPs run
        space = generate(random_graph(6, 0.5, 3))
        assert minimax.invariant_candidate(space, SubsetPair.full(6)) is None
        real = minimax.q_value

        def skewed(space, pair):
            value, mu = real(space, pair)
            return value + 1e-4, mu

        monkeypatch.setattr(minimax, "q_value", skewed)
        with pytest.raises(UniquenessViolatedError) as e:
            average_interval(space, SubsetPair.full(6))
        assert e.value.code == "UniquenessViolated"


class TestEltonMeasures:
    def test_two_sided_witnesses(self, instances100):
        for space in instances100[:6]:
            em = elton_measures(space)
            assert em.max_potential_mu <= em.r + 1e-8
            assert em.min_potential_nu >= em.r - 1e-8
            assert em.residual_upper <= 1e-8
            assert em.residual_lower <= 1e-8

    def test_frozen_two_point_pair(self, t2):
        em = elton_measures(t2)
        assert em.r == pytest.approx(0.5, abs=1e-9)
        assert em.mu.weights == pytest.approx([0.5, 0.5], abs=1e-9)
        assert em.residual_upper == 0.0
        assert em.residual_lower == 0.0

    def test_subset(self, instances100):
        space = instances100[50]
        em = elton_measures(space, [0, 1, 2])
        assert set(em.mu.support()) <= {0, 1, 2}
        assert em.r == pytest.approx(rendezvous_number(space, [0, 1, 2]), abs=1e-9)


class TestInequalityChain:
    def test_full_pair(self, instances100):
        for space in instances100[:10]:
            rep = inequality_chain(space, SubsetPair.full(space.m))
            assert rep.ok
            assert rep.orders_lower == rep.orders_upper == (1, 2, 3)
            assert rep.residual_lower_side >= -1e-8
            assert rep.residual_upper_side >= -1e-8
            assert rep.equality_residual <= 1e-8
            assert rep.a_nonempty is True

    def test_nested_pair(self, instances100):
        space = instances100[33]
        pair = SubsetPair((0, 2), tuple(range(space.m)))
        rep = inequality_chain(space, pair)
        assert rep.pair.nested
        assert rep.q_upper is not None
        assert rep.q_upper >= rep.q_lower - 1e-8
        assert rep.ok

    def test_general_pair_skips_nesting_checks(self, t2):
        rep = inequality_chain(t2, SubsetPair((0, 1), (0,)))
        assert rep.q_upper is None
        assert rep.a_nonempty is None
        assert rep.ok  # duality still holds even though the interval is empty

    def test_cap_shortens_orders(self, instances100):
        space = instances100[12]
        pair = SubsetPair.full(space.m)
        rep = inequality_chain(space, pair, n_max=3, cap=space.m)
        assert 3 not in rep.orders_lower and 3 not in rep.orders_upper
        assert rep.ok

    def test_cap_reports_orders_per_side(self):
        # |H| = 2 fits orders 1..3 in the cap; the swapped side over |L| = 6 only order 1
        space = generate(random_graph(6, 0.5, 3))
        pair = SubsetPair((0, 1), tuple(range(6)))
        rep = inequality_chain(space, pair, n_max=3, cap=10)
        assert rep.orders_lower == (1, 2, 3)
        assert rep.orders_upper == (1,)
        assert rep.cheb_upper == dual_chebyshev_n(space, pair.swapped(), 1)[0]

    def test_shared_table_gives_the_same_report(self, instances100):
        # a table of higher order caches the passes the chain reads
        kernel = instances100[21].kernel
        for pair in (SubsetPair.full(6), SubsetPair((0, 3), tuple(range(6)))):
            warm, cold = validate_kernel(kernel), validate_kernel(kernel)
            chebyshev_table(warm, pair, 4)
            assert inequality_chain(warm, pair) == inequality_chain(cold, pair)

    @settings(max_examples=15)
    @given(seed=st.integers(0, 60))
    def test_chain_holds_on_random_nested_pairs(self, seed):
        space = generate(random_graph(6, 0.5, seed))
        rng = np.random.default_rng([seed, 13])
        H = tuple(int(i) for i in rng.choice(6, size=3, replace=False))
        rep = inequality_chain(space, SubsetPair(H, tuple(range(6))))
        assert rep.ok
