import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdv.core import (
    AsymmetricKernelError,
    ConstantTooSmallError,
    DimensionMismatchError,
    EmptyInputError,
    EmptySubsetError,
    IndexOutOfRangeError,
    InvalidMeasureError,
    KernelSpace,
    Measure,
    MetricViolationError,
    NegativeEntryError,
    NonFiniteEntryError,
    SchemaError,
    SubsetPair,
    ValueInterval,
    dual_kernel,
    validate_kernel,
)
from rdv.tolerances import TIE_TOL


def test_validate_accepts_metric_and_flags_it(t2):
    assert t2.is_metric
    assert t2.m == 2
    np.testing.assert_array_equal(t2.kernel, [[0.0, 1.0], [1.0, 0.0]])


def test_kernel_array_is_read_only(t2):
    with pytest.raises(ValueError):
        t2.kernel[0, 1] = 5.0


def test_measure_weights_are_a_read_only_copy():
    raw = np.array([0.25, 0.75])
    mu = Measure(raw)
    raw[0] = 0.5
    assert mu.weights.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        mu.weights[0] = 1.0


def test_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        validate_kernel([[0.0, 1.0]])
    with pytest.raises(DimensionMismatchError):
        validate_kernel([1.0, 2.0])


def test_rejects_empty():
    with pytest.raises(EmptyInputError) as ei:
        validate_kernel(np.empty((0, 0)))
    assert ei.value.code == "EmptyInput"


def test_rejects_asymmetric():
    with pytest.raises(AsymmetricKernelError) as ei:
        validate_kernel([[0.0, 1.0], [2.0, 0.0]])
    assert ei.value.code == "AsymmetricKernel"


def test_rejects_negative_entry():
    with pytest.raises(NegativeEntryError):
        validate_kernel([[0.0, -1.0], [-1.0, 0.0]])


def test_rejects_nonfinite():
    with pytest.raises(NonFiniteEntryError):
        validate_kernel([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(NonFiniteEntryError):
        validate_kernel([[0.0, np.nan], [np.nan, 0.0]])


def test_symmetry_checked_before_sign():
    # asymmetric and negative: asymmetry must win
    with pytest.raises(AsymmetricKernelError):
        validate_kernel([[0.0, -1.0], [1.0, 0.0]])


def test_triangle_violation_witness_is_lex_first():
    k = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    space = validate_kernel(k)
    assert not space.is_metric
    with pytest.raises(MetricViolationError) as ei:
        validate_kernel(k, require_metric=True)
    assert ei.value.witness == (0, 2, 1)


def test_zero_offdiagonal_is_not_metric():
    space = validate_kernel([[0.0, 0.0], [0.0, 0.0]])
    assert not space.is_metric


def test_nonzero_diagonal_is_not_metric():
    space = validate_kernel([[1.0, 1.0], [1.0, 1.0]])
    assert not space.is_metric
    with pytest.raises(MetricViolationError):
        validate_kernel([[1.0, 1.0], [1.0, 1.0]], require_metric=True)


def test_single_point_space_is_metric():
    assert validate_kernel([[0.0]]).is_metric


@given(st.integers(2, 5), st.data())
def test_triangle_detection_matches_brute_force(m, data):
    entries = data.draw(
        st.lists(st.integers(0, 8), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2)
    )
    k = np.zeros((m, m))
    it = iter(entries)
    for i in range(m):
        for j in range(i + 1, m):
            k[i, j] = k[j, i] = next(it) / 4.0
    space = validate_kernel(k)
    brute = all(
        k[i, j] <= k[i, v] + k[v, j] + 1e-12
        for i in range(m) for j in range(m) for v in range(m)
    ) and all(k[i, j] > 0 for i in range(m) for j in range(m) if i != j)
    assert space.is_metric == brute


# --- measures ---


def test_measure_normalizes_and_clips_noise():
    mu = Measure(np.array([0.5, 0.5 + 1e-12, -1e-12]))
    assert mu.weights.min() >= 0.0
    assert abs(mu.weights.sum() - 1.0) < 1e-15


def test_measure_rejects_bad_sum():
    with pytest.raises(InvalidMeasureError):
        Measure(np.array([0.7, 0.7]))


def test_measure_rejects_negative_mass():
    with pytest.raises(InvalidMeasureError):
        Measure(np.array([1.5, -0.5]))


def test_measure_support_threshold():
    mu = Measure(np.array([1.0 - 1e-13, 1e-13, 0.0]))
    assert mu.support() == (0,)


def test_dirac_and_uniform():
    assert Measure.dirac(4, 2).support() == (2,)
    np.testing.assert_allclose(Measure.uniform(4).weights, 0.25)


def test_from_subvector_places_mass():
    mu = Measure.from_subvector(5, (1, 3), np.array([0.25, 0.75]))
    np.testing.assert_allclose(mu.weights, [0.0, 0.25, 0.0, 0.75, 0.0])


@pytest.mark.parametrize("build", [
    lambda: Measure.dirac(3, 4),
    lambda: Measure.dirac(3, 3),
    lambda: Measure.dirac(3, -1),
    lambda: Measure.dirac(3, 1.5),
    lambda: Measure.uniform(3, [1, 3]),
    lambda: Measure.uniform(3, [-1, 0]),
    lambda: Measure.from_subvector(3, (0, 5), np.array([0.5, 0.5])),
    lambda: Measure.from_subvector(3, (0.5,), np.array([1.0])),
], ids=["dirac-past-m", "dirac-at-m", "dirac-negative", "dirac-fraction", "uniform-past-m",
        "uniform-negative", "subvector-past-m", "subvector-fraction"])
def test_subset_constructors_reject_bad_indices(build):
    with pytest.raises(IndexOutOfRangeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: Measure(np.array([])),
    lambda: Measure.uniform(3, []),
    lambda: Measure.from_subvector(3, (), np.array([])),
], ids=["weights", "uniform", "subvector"])
def test_empty_measure_rejected(build):
    with pytest.raises(EmptySubsetError):
        build()


# --- subset pairs and intervals ---


def test_subset_pair_sorts_and_dedups():
    p = SubsetPair((3, 1, 1), (2,))
    assert p.H == (1, 3)
    assert p.L == (2,)


def test_subset_pair_rejects_empty():
    with pytest.raises(EmptySubsetError):
        SubsetPair((), (0,))


def test_subset_pair_range_check():
    p = SubsetPair((0, 5), (1,))
    with pytest.raises(IndexOutOfRangeError):
        p.check_range(4)
    with pytest.raises(IndexOutOfRangeError):
        SubsetPair((-1,), (0,)).check_range(4)


def test_subset_pair_nested_and_swapped():
    p = SubsetPair((0, 1), (0, 1, 2))
    assert p.nested
    assert p.swapped() == SubsetPair((0, 1, 2), (0, 1))
    assert not SubsetPair((0, 3), (0, 1, 2)).nested


def test_value_interval_basics():
    iv = ValueInterval(0.25, 0.75)
    assert iv.width == 0.5
    assert iv.contains(0.5)
    assert not iv.contains(0.8)
    assert ValueInterval(0.5, 0.5).point
    empty = ValueInterval(0.7, 0.3, empty=True)
    assert empty.empty and not empty.contains(0.5)


@pytest.mark.parametrize("lower, upper, expected", [
    (0.25, 0.75, (0.25, 0.75, False)),  # in order: [lower, upper]
    (0.5 + TIE_TOL / 2, 0.5, (0.5, 0.5 + TIE_TOL / 2, False)),  # a tie: [upper, lower]
    (0.5 + 2 * TIE_TOL, 0.5, (0.5 + 2 * TIE_TOL, 0.5, True)),  # crossed: empty, (lower, upper)
])
def test_value_interval_between(lower, upper, expected):
    iv = ValueInterval.between(lower, upper)
    assert (iv.lo, iv.hi, iv.empty) == expected


# --- dual kernels ---


def test_dual_kernel_default_constant(k3):
    dual, C = dual_kernel(k3)
    assert C == 1.0
    np.testing.assert_array_equal(dual.kernel, 1.0 - k3.kernel)
    assert not dual.is_metric
    assert dual.name == "dual(k3)"


def test_dual_kernel_rejects_small_constant(k3):
    with pytest.raises(ConstantTooSmallError):
        dual_kernel(k3, 0.5)
    # equality with the max entry is allowed
    dual, C = dual_kernel(k3, 1.0)
    assert C == 1.0


@given(st.integers(2, 4), st.data())
def test_dual_involution_exact_on_dyadic_kernels(m, data):
    vals = data.draw(
        st.lists(st.integers(0, 64), min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2)
    )
    k = np.zeros((m, m))
    it = iter(vals)
    for i in range(m):
        for j in range(i, m):
            k[i, j] = k[j, i] = next(it) / 64.0
    space = validate_kernel(k)
    dual, C = dual_kernel(space, 1.0)
    roundtrip, _ = dual_kernel(dual, 1.0)
    # differences of 1/64-multiples in [0, 1] are exact in binary floating point
    assert np.array_equal(roundtrip.kernel, space.kernel)


def test_error_codes_exposed():
    for err, code in [
        (AsymmetricKernelError("x"), "AsymmetricKernel"),
        (NegativeEntryError("x"), "NegativeEntry"),
        (DimensionMismatchError("x"), "DimensionMismatch"),
        (ConstantTooSmallError("x"), "ConstantTooSmall"),
    ]:
        assert err.code == code
