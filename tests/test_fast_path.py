"""The invariant-measure fast path of ``average_interval`` against the LP oracles.

For H = L, ``average_interval`` first tries the uniform measure and the
normalized solution of K z = 1.  Where one is accepted, its levels must
agree with the raw LPs ``q_value`` / ``q_lower_value`` and the measure must
witness both sides; where both miss, the result must be the LPs' bit for
bit.
"""
import numpy as np
import pytest

from rdv import (
    KernelSpace,
    SubsetPair,
    average_interval,
    circle,
    generate,
    hypercube,
    interval_grid,
    invariant_measure,
    min_invariance_gap,
    q_lower_value,
    q_value,
    random_graph,
    rendezvous_number,
    validate_kernel,
)
from rdv.minimax import invariant_candidate
from rdv.potential import _certified_invariant
from rdv.suites import instance_space
from rdv.tolerances import INVARIANCE_TOL
import rdv.minimax as minimax_mod
import rdv.structure as structure_mod

from oracles import circle_rendezvous_closed_form

AGREE = 1e-12


def _spaces():
    cases = []
    for m in range(3, 65):
        for metric in ("chord", "arc"):
            cases.append((f"circle({m},{metric})", circle(m, metric=metric)))
    for m in range(3, 102):
        cases.append((f"grid({m})", interval_grid(m)))
    for d in range(1, 7):
        cases.append((f"hypercube({d})", hypercube(d)))
    for m in range(12, 41):
        cases.append((f"random({m})", random_graph(m=m, edge_prob=0.5, seed=m)))
    return [pytest.param(desc, id=name) for name, desc in cases]


def _plain_average(avg):
    return (avg.q_upper, avg.q_lower, avg.unique_point, avg.interval,
            avg.mu_opt.weights.tobytes(), avg.nu_opt.weights.tobytes())


def _check_against_lp(space: KernelSpace) -> bool:
    """Compare ``average_interval`` with the raw LPs; True when the fast path hit."""
    pair = SubsetPair.full(space.m)
    avg = average_interval(space, pair)
    qu, mu = q_value(space, pair)
    ql, nu = q_lower_value(space, pair)
    if avg.mu_opt is not avg.nu_opt:
        assert invariant_candidate(space, pair) is None
        assert (avg.q_upper, avg.q_lower) == (qu, ql)
        assert avg.mu_opt.weights.tobytes() == mu.weights.tobytes()
        assert avg.nu_opt.weights.tobytes() == nu.weights.tobytes()
        return False
    assert abs(avg.q_upper - qu) <= AGREE
    assert abs(avg.q_lower - ql) <= AGREE
    pot = space.kernel @ avg.mu_opt.weights
    # the one measure witnesses both values: its potential stays within
    # [q_lower, q_upper] of the LPs everywhere
    assert pot.max() <= qu + AGREE
    assert pot.min() >= ql - AGREE
    inv = invariant_measure(space, pair)
    assert inv.found
    assert inv.measure.weights.tobytes() == avg.mu_opt.weights.tobytes()
    assert inv.gap == avg.q_upper - avg.q_lower
    assert min_invariance_gap(space, pair)[0] <= INVARIANCE_TOL
    return True


@pytest.mark.parametrize("desc", _spaces())
def test_structured_and_random_spaces(desc):
    space = generate(desc)
    hit = _check_against_lp(space)
    if desc.kind in ("circle", "interval_grid", "hypercube"):
        assert hit
    else:
        assert not hit


def test_suite_instances():
    hits = sum(_check_against_lp(instance_space(seed)) for seed in range(200))
    assert 0 < hits < 200


def test_subset_pair_uses_the_subspace():
    space = generate(interval_grid(9))
    pair = SubsetPair((1, 3, 4, 7), (1, 3, 4, 7))
    mu = invariant_candidate(space, pair)
    # the two ends of the subspace
    assert mu is not None and mu.support() == (1, 7)
    avg = average_interval(space, pair)
    assert abs(avg.q_upper - q_value(space, pair)[0]) <= AGREE
    assert abs(avg.q_lower - q_lower_value(space, pair)[0]) <= AGREE


def test_unequal_pairs_never_take_the_fast_path():
    space = generate(circle(8))
    for pair in (SubsetPair((0, 2, 4, 6), tuple(range(8))), SubsetPair((0, 1), (2, 3))):
        assert invariant_candidate(space, pair) is None
        avg = average_interval(space, pair)
        qu, mu = q_value(space, pair)
        ql, nu = q_lower_value(space, pair)
        lp_average = minimax_mod._average(space, pair, qu, ql, mu, nu)
        assert _plain_average(avg) == _plain_average(lp_average)


class TestAcceptance:
    """The rule that admits a candidate z: nonnegative after the snap, proved near constant."""

    GRID = validate_kernel([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]], name="g3")
    FULL = SubsetPair.full(3)

    def test_endpoints_accepted(self):
        record = _certified_invariant(self.GRID, self.FULL, np.array([1.0, 0.0, 1.0]))
        assert record is not None and list(record.measure.weights) == [0.5, 0.0, 0.5]

    def test_round_off_negative_weight_snapped(self):
        record = _certified_invariant(self.GRID, self.FULL, np.array([1000.0, -0.5e-6, 1000.0]))
        assert record is not None and list(record.measure.weights) == [0.5, 0.0, 0.5]

    @pytest.mark.parametrize("middle", [-1.5e-6, -1e-3])
    def test_negative_weight_rejected(self, middle):
        # -1.5e-6 is above the snap (1e-9 of the largest weight) and, once
        # normalized, small enough that Measure would silently clip it
        assert _certified_invariant(self.GRID, self.FULL,
                                    np.array([1000.0, middle, 1000.0])) is None

    @pytest.mark.parametrize("z", [[np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0]])
    def test_non_finite_rejected(self, z):
        assert _certified_invariant(self.GRID, self.FULL, np.array(z)) is None

    @pytest.mark.parametrize("excess, accepted", [(1e-11, False), (-1e-11, True)])
    def test_oscillation_at_the_tolerance(self, excess, accepted):
        # the complete graph on 3 points with one edge stretched by delta: the
        # uniform measure's potential oscillates by delta / 3
        delta = 3.0 * (INVARIANCE_TOL + excess)
        k = np.ones((3, 3)) - np.eye(3)
        k[0, 1] = k[1, 0] = 1.0 + delta
        space = KernelSpace("k3-stretched", ("a", "b", "c"), k, False)
        mu = _certified_invariant(space, self.FULL, np.ones(3))
        assert (mu is not None) is accepted

    @pytest.mark.parametrize("scale, accepted", [(2.0e7, True), (2.5e7, False)])
    def test_rounding_bound_counts(self, scale, accepted):
        # scale times the complete graph: the computed oscillation is exactly
        # 0, but the rounding bound 2 gamma_3 (2 scale / 3) ~ 4.4e-16 scale
        # passes INVARIANCE_TOL between the two scales
        space = KernelSpace("k3-scaled", ("a", "b", "c"), scale * (np.ones((3, 3)) - np.eye(3)),
                            False)
        mu = _certified_invariant(space, self.FULL, np.ones(3))
        assert (mu is not None) is accepted

    def test_singular_kernel_falls_through_to_the_lp(self):
        # two coincident points: K is singular and the uniform measure misses
        space = KernelSpace("doubled", ("a", "b", "c"),
                            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), False)
        assert invariant_candidate(space, self.FULL) is None
        avg = average_interval(space, self.FULL)
        assert avg.q_upper == q_value(space, self.FULL)[0]


def test_structured_spaces_solve_no_lp(monkeypatch):
    calls = []

    def spy(lp):
        calls.append(lp)
        raise AssertionError("solve_lp called")

    monkeypatch.setattr(minimax_mod, "solve_lp", spy)
    monkeypatch.setattr(structure_mod, "solve_lp", spy)
    assert rendezvous_number(generate(circle(64))) == pytest.approx(
        circle_rendezvous_closed_form(64), abs=1e-12)
    assert rendezvous_number(generate(interval_grid(2048))) == pytest.approx(0.5, abs=1e-12)
    space = generate(hypercube(6))
    assert invariant_measure(space, SubsetPair.full(space.m)).found
    assert calls == []
