"""Order-n multiset constants: exact scans, witnesses, caps, and bounds."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdv import (
    DimensionMismatchError,
    EnumerationCapExceededError,
    IndexOutOfRangeError,
    SubsetPair,
    chebyshev_limit_bounds,
    chebyshev_n,
    chebyshev_table,
    circle,
    dual_chebyshev_n,
    generate,
    hypercube,
    inequality_chain,
    multiset_count,
    random_graph,
    rendezvous_n,
)
import rdv.chebyshev as chebyshev

from oracles import chebyshev_brute, chebyshev_scan, dual_chebyshev_brute


class TestTwoPointTable:
    """All constants of the two-point space are tiny closed forms."""

    def test_order_one(self, t2):
        pair = SubsetPair.full(2)
        lo, _ = chebyshev_n(t2, pair, 1)
        hi, _ = dual_chebyshev_n(t2, pair, 1)
        assert lo == 0.0
        assert hi == 1.0

    def test_order_two_collapses(self, t2):
        pair = SubsetPair.full(2)
        lo, wl = chebyshev_n(t2, pair, 2)
        hi, wu = dual_chebyshev_n(t2, pair, 2)
        assert lo == pytest.approx(0.5, abs=1e-15)
        assert hi == pytest.approx(0.5, abs=1e-15)
        assert wl.points == (0, 1)
        assert wu.points == (0, 1)
        interval = rendezvous_n(t2, pair, 2)
        assert not interval.empty
        assert interval.width <= 1e-15

    def test_odd_orders_stay_strict(self, t2):
        pair = SubsetPair.full(2)
        assert chebyshev_n(t2, pair, 3)[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert dual_chebyshev_n(t2, pair, 3)[0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_limit_bounds_close_at_order_four(self, t2):
        lo, hi = chebyshev_limit_bounds(t2, SubsetPair.full(2), 4)
        assert lo == pytest.approx(0.5, abs=1e-15)
        assert hi == pytest.approx(0.5, abs=1e-15)

    def test_table_contents(self, t2):
        table = chebyshev_table(t2, SubsetPair.full(2), 4)
        assert table.n_values == (1, 2, 3, 4)
        assert table.skipped == ()
        assert table.lower == pytest.approx((0.0, 0.5, 1 / 3, 0.5), abs=1e-15)
        assert table.upper == pytest.approx((1.0, 0.5, 2 / 3, 0.5), abs=1e-15)
        for n, w in zip(table.n_values, table.lower_witnesses):
            assert len(w.points) == n


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 5, 12])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_pair(self, seed, n):
        space = generate(random_graph(6, 0.5, seed))
        pair = SubsetPair.full(6)
        lo, _ = chebyshev_n(space, pair, n)
        hi, _ = dual_chebyshev_n(space, pair, n)
        assert lo == pytest.approx(chebyshev_brute(space.kernel, pair.H, pair.L, n), abs=1e-12)
        assert hi == pytest.approx(
            dual_chebyshev_brute(space.kernel, pair.H, pair.L, n), abs=1e-12
        )

    @pytest.mark.parametrize("seed", [1, 9])
    def test_general_pair(self, seed):
        space = generate(random_graph(7, 0.6, seed))
        pair = SubsetPair((0, 2, 5), (1, 3, 4, 6))
        for n in (1, 2, 3):
            lo, _ = chebyshev_n(space, pair, n)
            assert lo == pytest.approx(
                chebyshev_brute(space.kernel, pair.H, pair.L, n), abs=1e-12
            )
            hi, _ = dual_chebyshev_n(space, pair, n)
            assert hi == pytest.approx(
                dual_chebyshev_brute(space.kernel, pair.H, pair.L, n), abs=1e-12
            )


class TestWitnesses:
    def test_witness_reproduces_value(self, instances100):
        space = instances100[13]
        pair = SubsetPair.full(space.m)
        for n in (1, 2, 3):
            val, w = chebyshev_n(space, pair, n)
            assert len(w.points) == n
            assert all(p in pair.H for p in w.points)
            assert w.points == tuple(sorted(w.points))
            avg = space.kernel[:, list(w.points)].sum(axis=1) / n
            assert float(avg[list(pair.L)].min()) == pytest.approx(val, abs=1e-12)
            assert avg[w.extremal] == pytest.approx(val, abs=1e-9)

    def test_dual_witness_reproduces_value(self, instances100):
        space = instances100[17]
        pair = SubsetPair.full(space.m)
        val, w = dual_chebyshev_n(space, pair, 2)
        avg = space.kernel[:, list(w.points)].sum(axis=1) / 2
        assert float(avg[list(pair.L)].max()) == pytest.approx(val, abs=1e-12)
        assert avg[w.extremal] == pytest.approx(val, abs=1e-9)


class TestCaps:
    def test_count(self):
        assert multiset_count(2, 2) == 3
        assert multiset_count(6, 4) == math.comb(9, 4)

    def test_cap_raises_with_details(self, instances100):
        space = instances100[3]
        pair = SubsetPair.full(space.m)
        needed = multiset_count(space.m, 3)
        with pytest.raises(EnumerationCapExceededError) as e:
            chebyshev_n(space, pair, 3, cap=needed - 1)
        assert e.value.cap == needed - 1
        assert e.value.required == needed
        # exactly at the cap is allowed
        chebyshev_n(space, pair, 3, cap=needed)

    def test_table_skips_capped_orders(self, t2):
        pair = SubsetPair.full(2)
        table = chebyshev_table(t2, pair, 4, cap=3)
        # orders 1..2 need at most 3 multisets; 3..4 need 4 and 5
        assert table.n_values == (1, 2)
        assert table.skipped == (3, 4)
        full = chebyshev_table(t2, pair, 4, cap=10)
        assert full.skipped == ()

    def test_order_must_be_positive(self, t2):
        with pytest.raises(DimensionMismatchError):
            chebyshev_n(t2, SubsetPair.full(2), 0)

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_largest_order_must_be_positive(self, t2, n_max):
        # an empty range of orders has no bounds to give, not max() of nothing
        pair = SubsetPair.full(2)
        for fn in (chebyshev_table, chebyshev_limit_bounds, inequality_chain):
            with pytest.raises(DimensionMismatchError, match="at least 1"):
                fn(t2, pair, n_max)

    def test_pair_range_checked(self, t2):
        with pytest.raises(IndexOutOfRangeError):
            chebyshev_n(t2, SubsetPair((0,), (5,)), 1)


class TestIntervalShape:
    def test_disjoint_pair_can_cross(self, t2):
        # from L={0} the best single point of H is far, the dual best is 0
        pair = SubsetPair((0, 1), (0,))
        interval = rendezvous_n(t2, pair, 1)
        assert interval.empty
        assert interval.lo == 1.0 and interval.hi == 0.0

    @settings(max_examples=20)
    @given(seed=st.integers(0, 60))
    def test_doubling_tightens_both_sides(self, seed):
        # concatenating two optimal multisets shows n->2n never loses ground
        space = generate(random_graph(5, 0.6, seed))
        pair = SubsetPair.full(5)
        for n in (1, 2):
            assert (
                chebyshev_n(space, pair, 2 * n)[0]
                >= chebyshev_n(space, pair, n)[0] - 1e-12
            )
            assert (
                dual_chebyshev_n(space, pair, 2 * n)[0]
                <= dual_chebyshev_n(space, pair, n)[0] + 1e-12
            )

    @settings(max_examples=15)
    @given(seed=st.integers(0, 60), n=st.integers(1, 3))
    def test_witness_roles(self, seed, n):
        # multiset points always come from H, extremal points from L
        space = generate(random_graph(5, 0.6, seed))
        pair = SubsetPair((0, 1, 2), (2, 3, 4))
        for fn in (chebyshev_n, dual_chebyshev_n):
            _, w = fn(space, pair, n)
            assert all(p in pair.H for p in w.points)
            assert w.extremal in pair.L

    @settings(max_examples=15)
    @given(seed=st.integers(0, 60))
    def test_nested_pair_interval_nonempty(self, seed):
        # with H inside L the order-n interval can touch but never cross:
        # the same multiset is seen from all of L, so min <= max pointwise,
        # and mixing optimal multisets keeps the two scans ordered
        space = generate(random_graph(6, 0.5, seed))
        pair = SubsetPair((0, 1, 2), tuple(range(6)))
        for n in (1, 2):
            interval = rendezvous_n(space, pair, n)
            assert not interval.empty


def _pairs(m: int, seed: int) -> list[SubsetPair]:
    """The full pair and a seeded general pair with |H| != |L|, both ways round."""
    rng = np.random.default_rng([seed, m])
    H = rng.choice(m, size=max(1, m // 3), replace=False)
    L = rng.choice(m, size=m - 1, replace=False)
    general = SubsetPair(tuple(int(i) for i in H), tuple(int(i) for i in L))
    return [SubsetPair.full(m), general, general.swapped()]


def _old_scan_cases():
    for m in range(3, 11):
        for seed in (0, 1):
            space = generate(random_graph(m, 0.5, seed))
            for pair in _pairs(m, seed):
                yield space, pair
    for desc in (circle(7), hypercube(3)):
        space = generate(desc)
        yield space, SubsetPair.full(space.m)


class TestAgainstOldScan:
    """The one-pass scan reproduces the old itertools scan to the bit."""

    @staticmethod
    def assert_same(space, pair, n):
        assert chebyshev_n(space, pair, n) == chebyshev_scan(space, pair, n)
        assert dual_chebyshev_n(space, pair, n) == chebyshev_scan(space, pair, n, dual=True)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orders_up_to_seven_bit_identical(self, n):
        for space, pair in _old_scan_cases():
            self.assert_same(space, pair, n)

    @pytest.mark.parametrize("n", [8, 9])
    def test_orders_eight_and_nine(self, n):
        # numpy's own sum unrolls by eight here, so only the values are close
        for m, seed in ((4, 2), (5, 7)):
            space = generate(random_graph(m, 0.5, seed))
            for pair in _pairs(m, seed):
                for dual, fn in ((False, chebyshev_n), (True, dual_chebyshev_n)):
                    val, w = fn(space, pair, n)
                    old, _ = chebyshev_scan(space, pair, n, dual=dual)
                    assert val == pytest.approx(old, abs=1e-12)
                    avg = space.kernel[:, list(w.points)].sum(axis=1) / n
                    view = avg[list(pair.L)]
                    seen = view.max() if dual else view.min()
                    assert float(seen) == pytest.approx(val, abs=1e-12)
                    assert avg[w.extremal] == pytest.approx(val, abs=1e-12)

    def test_one_row_chunks_keep_the_first_optimizer(self, monkeypatch):
        # every multiset is its own chunk, so ties straddle chunk boundaries
        monkeypatch.setattr(chebyshev, "_CHUNK_CELLS", 1)
        cases = [(generate(circle(7)), SubsetPair.full(7)),
                 (generate(hypercube(3)), SubsetPair.full(8)),
                 (generate(random_graph(6, 0.5, 4)), SubsetPair((1, 4), (0, 2, 3, 5)))]
        for space, pair in cases:
            for n in (1, 2, 3, 4):
                self.assert_same(space, pair, n)

    def test_cap_boundary_matches(self):
        space = generate(random_graph(7, 0.5, 11))
        for pair in _pairs(7, 11):
            for n in (1, 2, 3):
                required = multiset_count(len(pair.H), n)
                for dual, fn in ((False, chebyshev_n), (True, dual_chebyshev_n)):
                    assert fn(space, pair, n, cap=required) == chebyshev_scan(
                        space, pair, n, cap=required, dual=dual)
                    with pytest.raises(EnumerationCapExceededError) as new:
                        fn(space, pair, n, cap=required - 1)
                    with pytest.raises(EnumerationCapExceededError) as old:
                        chebyshev_scan(space, pair, n, cap=required - 1, dual=dual)
                    assert (new.value.cap, new.value.required) == (old.value.cap,
                                                                   old.value.required)
                    assert str(new.value) == str(old.value)

    def test_single_point_h(self):
        space = generate(random_graph(6, 0.5, 5))
        for L in ((3,), (0, 1, 2, 3, 4, 5), (2, 5)):
            pair = SubsetPair((3,), L)
            for n in range(1, 6):
                self.assert_same(space, pair, n)
