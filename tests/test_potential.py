"""Potentials, energies, and potential profiles."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdv import (
    DimensionMismatchError,
    EmptySubsetError,
    IndexOutOfRangeError,
    Measure,
    energy,
    generate,
    potential_at,
    profile,
    random_graph,
    validate_kernel,
)


class TestPotentialAt:
    def test_hand_computed(self, g3):
        mu = Measure(np.array([0.25, 0.25, 0.5]))
        # k(0,.) = [0, 1/2, 1]: 0*0.25 + 0.5*0.25 + 1*0.5
        assert potential_at(g3, mu, 0) == pytest.approx(0.625, abs=1e-15)
        assert potential_at(g3, mu, 1) == pytest.approx(0.25 * 0.5 + 0.5 * 0.5, abs=1e-15)

    def test_dirac_reads_kernel_column(self, k3):
        for i in range(3):
            for j in range(3):
                assert potential_at(k3, Measure.dirac(3, i), j) == k3.kernel[j, i]

    def test_index_out_of_range(self, k3):
        mu = Measure.uniform(3)
        with pytest.raises(IndexOutOfRangeError):
            potential_at(k3, mu, 3)
        with pytest.raises(IndexOutOfRangeError):
            potential_at(k3, mu, -1)

    def test_dimension_mismatch(self, k3):
        with pytest.raises(DimensionMismatchError):
            potential_at(k3, Measure.uniform(4), 0)

    @pytest.mark.parametrize("x", [1.5, 0.7, np.float64(2.25)])
    def test_non_integer_index_rejected(self, k3, x):
        with pytest.raises(IndexOutOfRangeError, match="non-integer"):
            potential_at(k3, Measure.uniform(3), x)

    def test_integral_float_and_numpy_indices_accepted(self, g3):
        mu = Measure(np.array([0.25, 0.25, 0.5]))
        for x in (1.0, np.int64(1), np.float64(1.0)):
            assert potential_at(g3, mu, x) == potential_at(g3, mu, 1)


class TestEnergy:
    def test_metric_dirac_has_zero_energy(self, k3):
        for i in range(3):
            assert energy(k3, Measure.dirac(3, i)) == 0.0

    def test_uniform_on_two_point_space(self, t2):
        # 2 * (1/2)(1/2) * k(0,1) = 1/2
        assert energy(t2, Measure.uniform(2)) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_on_complete_graph(self, k3):
        # 6 ordered off-diagonal pairs at weight 1/9 each
        assert energy(k3, Measure.uniform(3)) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_matches_double_sum(self, instances100):
        space = instances100[7]
        rng = np.random.default_rng(0)
        w = rng.dirichlet(np.ones(space.m))
        mu = Measure(w)
        brute = sum(
            space.kernel[i, j] * mu.weights[i] * mu.weights[j]
            for i in range(space.m)
            for j in range(space.m)
        )
        assert energy(space, mu) == pytest.approx(brute, abs=1e-14)

    def test_energy_is_mean_potential(self, instances100):
        space = instances100[11]
        mu = Measure(np.random.default_rng(1).dirichlet(np.ones(space.m)))
        mean_potential = sum(
            mu.weights[i] * potential_at(space, mu, i) for i in range(space.m)
        )
        assert energy(space, mu) == pytest.approx(mean_potential, abs=1e-14)


class TestProfile:
    def test_values_and_extremes(self, g3):
        mu = Measure.dirac(3, 0)
        prof = profile(g3, mu, [0, 1, 2])
        assert np.allclose(prof.values, [0.0, 0.5, 1.0], atol=1e-15)
        assert prof.interval.lo == 0.0
        assert prof.interval.hi == 1.0
        assert prof.argmin == (0,)
        assert prof.argmax == (2,)

    def test_ties_collected(self, k3):
        prof = profile(k3, Measure.uniform(3), [0, 1, 2])
        assert prof.argmin == (0, 1, 2)
        assert prof.argmax == (0, 1, 2)
        assert prof.interval.width == 0.0

    def test_subset_evaluation(self, g3):
        prof = profile(g3, Measure.dirac(3, 0), [1, 2])
        assert prof.L == (1, 2)
        assert np.allclose(prof.values, [0.5, 1.0], atol=1e-15)
        assert prof.argmin == (1,)
        assert prof.argmax == (2,)

    def test_argmin_ties_at_tolerance(self):
        space = validate_kernel(
            [[0.0, 1.0, 1.0 + 5e-10], [1.0, 0.0, 1.0], [1.0 + 5e-10, 1.0, 0.0]],
            require_metric=False,
        )
        prof = profile(space, Measure.dirac(3, 0), [1, 2])
        # the two potentials differ by 5e-10 < the 1e-9 tie tolerance
        assert prof.argmin == (1, 2)
        assert prof.argmax == (1, 2)

    def test_empty_evaluation_set(self, k3):
        with pytest.raises(EmptySubsetError):
            profile(k3, Measure.uniform(3), [])

    def test_out_of_range(self, k3):
        with pytest.raises(IndexOutOfRangeError):
            profile(k3, Measure.uniform(3), [0, 5])
        with pytest.raises(IndexOutOfRangeError):
            profile(k3, Measure.uniform(3), [0, -1])

    @pytest.mark.parametrize("L", [[0.7, 2.9], [0, 1.5], [np.float64(0.5)]])
    def test_non_integer_index_rejected(self, k3, L):
        with pytest.raises(IndexOutOfRangeError, match="non-integer"):
            profile(k3, Measure.uniform(3), L)

    def test_order_and_duplicates_kept(self, g3):
        prof = profile(g3, Measure.dirac(3, 0), [2, 0, 2.0, 1])
        assert prof.L == (2, 0, 2, 1)
        assert np.array_equal(prof.values, g3.kernel[[2, 0, 2, 1], 0])
        assert prof.argmax == (2, 2)


class TestLinearity:
    @given(
        seed=st.integers(0, 30),
        a=st.integers(0, 16),
    )
    def test_potential_linear_in_measure(self, seed, a):
        space = generate(random_graph(5, 0.6, seed))
        t = a / 16.0
        rng = np.random.default_rng(seed + 1000)
        w1 = rng.dirichlet(np.ones(5))
        w2 = rng.dirichlet(np.ones(5))
        mix = Measure(t * w1 + (1.0 - t) * w2)
        for x in range(5):
            direct = potential_at(space, mix, x)
            combined = t * potential_at(space, Measure(w1), x) + (1.0 - t) * potential_at(
                space, Measure(w2), x
            )
            assert direct == pytest.approx(combined, abs=1e-12)

    @given(seed=st.integers(0, 30))
    def test_energy_symmetric_bilinear_bound(self, seed):
        # energy of a mixture never exceeds the bilinear expansion's value
        space = generate(random_graph(4, 0.7, seed))
        rng = np.random.default_rng(seed + 2000)
        w1 = rng.dirichlet(np.ones(4))
        w2 = rng.dirichlet(np.ones(4))
        mix = Measure(0.5 * w1 + 0.5 * w2)
        cross = float(w1 @ space.kernel @ w2)
        expansion = 0.25 * energy(space, Measure(w1)) + 0.5 * cross + 0.25 * energy(
            space, Measure(w2)
        )
        assert energy(space, mix) == pytest.approx(expansion, abs=1e-12)
