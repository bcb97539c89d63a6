"""Order-n multiset constants: exact scans, witnesses, caps, and bounds."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdv import (
    DimensionMismatchError,
    EnumerationCapExceededError,
    IndexOutOfRangeError,
    NumericalBreakdownError,
    SubsetPair,
    chebyshev_limit_bounds,
    chebyshev_n,
    chebyshev_table,
    circle,
    dual_chebyshev_n,
    generate,
    hypercube,
    inequality_chain,
    interval_grid,
    multiset_count,
    random_graph,
    rendezvous_n,
)
import rdv.chebyshev as chebyshev

from oracles import chebyshev_brute, chebyshev_prefix_loop, chebyshev_scan, dual_chebyshev_brute
from rdv.cli import build_analysis
from rdv.core import validate_kernel
from rdv.suites import vertex_transitive_family


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
        for n in table.n_values:
            assert len(chebyshev_n(t2, SubsetPair.full(2), n)[1].points) == n


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

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_must_be_positive(self, t2, cap):
        # a cap below 1 would skip every order and leave the chain vacuous
        pair = SubsetPair.full(2)
        calls = (lambda: chebyshev_table(t2, pair, 3, cap=cap),
                 lambda: chebyshev_limit_bounds(t2, pair, 3, cap=cap),
                 lambda: chebyshev_n(t2, pair, 1, cap=cap),
                 lambda: inequality_chain(t2, pair, 3, cap=cap))
        for call in calls:
            with pytest.raises(DimensionMismatchError, match="cap must be at least 1"):
                call()


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


def _twin(m: int, seed: int):
    """A random graph kernel with point 1 replaced by a copy of point 0."""
    k = generate(random_graph(m, 0.5, seed)).kernel.copy()
    k[1] = k[0]
    k[:, 1] = k[:, 0]
    return validate_kernel(k, name=f"twin{m}")


def _prefix_loop_cases():
    yield from _old_scan_cases()
    # integer sums: many exact ties between multisets
    for dim in (3, 4, 5):
        space = generate(hypercube(dim))
        yield space, SubsetPair.full(space.m)
    for m in range(7, 17):
        for metric in ("chord", "arc"):
            yield generate(circle(m, metric)), SubsetPair.full(m)
    twin = _twin(9, 3)
    yield twin, SubsetPair.full(9)
    yield twin, SubsetPair((0, 1, 4, 6), (0, 1, 2, 3, 8))
    space = generate(random_graph(7, 0.5, 2))
    for pair in (SubsetPair(tuple(range(7)), (3,)), SubsetPair((0, 2, 5), (4,)),
                 SubsetPair((1, 3, 4, 6), (0, 2, 5)), SubsetPair((2,), (0, 1, 6))):
        yield space, pair


# Sums (multisets times |L|) above which a case is left out of the orders
# 1-9 sweep: the loop reference then takes too long for the tier-1 suite.
_LOOP_CELLS = 200_000


class TestAgainstPrefixLoop:
    """The colex-table pass reproduces the prefix-loop pass's constants to the
    bit, and the search its witnesses."""

    @staticmethod
    def assert_same(space, pair, n):
        lo, lower, hi, upper = chebyshev_prefix_loop(space, pair, n)
        assert chebyshev._scan(space, pair, n) == (lo, hi)
        assert chebyshev_n(space, pair, n) == (lo, lower)
        assert dual_chebyshev_n(space, pair, n) == (hi, upper)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_orders_one_to_nine(self, n):
        checked = 0
        for space, pair in _prefix_loop_cases():
            if multiset_count(len(pair.H), n) * len(pair.L) <= _LOOP_CELLS:
                self.assert_same(space, pair, n)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("desc, n", [(circle(64), 4), (hypercube(6), 4),
                                         (interval_grid(101), 3)])
    def test_benchmark_spaces(self, desc, n):
        space = generate(desc)
        self.assert_same(space, SubsetPair.full(space.m), n)

    @pytest.mark.parametrize("cells", [1, 100, 5000])
    def test_small_budgets(self, monkeypatch, cells):
        # split blocks, merged blocks and prefixes filled from a lower-order table
        monkeypatch.setattr(chebyshev, "_CHUNK_CELLS", cells)
        cases = [(generate(hypercube(4)), SubsetPair.full(16)),
                 (generate(circle(12, "arc")), SubsetPair.full(12)),
                 (_twin(9, 3), SubsetPair((0, 1, 4, 6), (0, 1, 2, 3, 8))),
                 (generate(random_graph(7, 0.5, 2)), SubsetPair(tuple(range(7)), (3,)))]
        for space, pair in cases:
            for n in range(1, 7):
                if multiset_count(len(pair.H), n) * len(pair.L) <= _LOOP_CELLS // 4:
                    self.assert_same(space, pair, n)


class TestWitnessSearch:
    """A witness is searched for on demand, after the pass, and only by
    ``chebyshev_n`` and ``dual_chebyshev_n``."""

    def test_one_multiset_chunks_find_the_first_match(self, monkeypatch):
        # every multiset is its own chunk, so the search crosses chunk
        # boundaries before it meets the first of several tied optimizers
        monkeypatch.setattr(chebyshev, "_CHUNK_CELLS", 1)
        beyond_first = 0
        for space, pair in [(generate(hypercube(3)), SubsetPair.full(8)),
                            (generate(circle(9, "arc")), SubsetPair.full(9)),
                            (_twin(9, 3), SubsetPair((0, 1, 4, 6), (0, 1, 2, 3, 8)))]:
            for n in (1, 2, 3, 4):
                lo, lower, hi, upper = chebyshev_prefix_loop(space, pair, n)
                assert chebyshev_n(space, pair, n) == (lo, lower)
                assert dual_chebyshev_n(space, pair, n) == (hi, upper)
                first = (pair.H[0],) * n
                beyond_first += (lower.points != first) + (upper.points != first)
        assert beyond_first >= 10

    def test_cap_is_the_callers(self, monkeypatch):
        # the search reads the pass's value; it does not check the cap again
        space = generate(random_graph(7, 0.5, 11))
        pair = SubsetPair.full(7)
        required = multiset_count(7, 3)
        monkeypatch.setattr(chebyshev, "DEFAULT_ENUM_CAP", required - 1)
        with pytest.raises(EnumerationCapExceededError):
            chebyshev_n(space, pair, 3)
        lo, lower, hi, upper = chebyshev_prefix_loop(space, pair, 3)
        assert chebyshev_n(space, pair, 3, cap=required) == (lo, lower)
        assert dual_chebyshev_n(space, pair, 3, cap=required) == (hi, upper)

    def test_exhausted_search_raises(self):
        space = generate(random_graph(6, 0.5, 2))
        pair = SubsetPair.full(6)
        for dual in (False, True):
            with pytest.raises(NumericalBreakdownError):
                chebyshev._search(space, pair, 2, -1.0, dual=dual)

    def test_analysis_never_searches(self, monkeypatch):
        searches = []
        search = chebyshev._search

        def spy(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(chebyshev, "_search", spy)
        space = generate(random_graph(7, 0.5, 4))
        for pair in _pairs(7, 4):
            build_analysis(space, pair, n_max=3)
            chebyshev_table(space, pair, 3)
            chebyshev_limit_bounds(space, pair, 3)
            inequality_chain(space, pair, 3)
            for n in (1, 2, 3):
                rendezvous_n(space, pair, n)
        assert searches == []
        chebyshev_n(space, SubsetPair.full(7), 2)
        assert len(searches) == 1


def _full_scan(space, pair, n, monkeypatch):
    """The pass over every multiset, with the transitivity check turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(chebyshev, "_transitive", lambda space, pair, n: False)
        return chebyshev._scan(space, pair, n)


def _xor_kernel(row):
    """The kernel K[i, j] = row[i ^ j] on len(row) = 2^d points."""
    idx = np.arange(len(row))
    return validate_kernel(np.asarray(row, dtype=float)[idx[:, None] ^ idx[None, :]],
                           name="xor")


def _circulant(rng, m):
    """A cyclic kernel K[i, j] = f((j - i) mod m), f(d) = f(m - d), with
    entries over 16 decades, so that sums round differently in another order."""
    f = rng.uniform(0, 1, m) * 10.0 ** rng.integers(-8, 9, m)
    f = np.minimum(f, f[-np.arange(m) % m])
    idx = np.arange(m)
    return validate_kernel(f[(idx[None, :] - idx[:, None]) % m], name=f"circulant{m}")


def _transitive_cases():
    for m in range(1, 41):
        for desc in (circle(m), circle(m, "arc"), circle(m, radius=1e3)):
            yield generate(desc)
    for dim in range(7):
        yield generate(hypercube(dim))
    rng = np.random.default_rng(7)
    for m in list(range(3, 13)) * 2:
        yield _circulant(rng, m)
    # XOR-invariant integer kernels with no cyclic symmetry
    for m in (4, 8, 16):
        yield _xor_kernel(np.r_[0, rng.integers(1, 10 ** 6, m - 1)])


class TestAnchoredScan:
    """On a transitive space the pass over the multisets that contain point 0
    reproduces the pass over all multisets to the bit."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orders_one_to_six(self, monkeypatch, n):
        checked = 0
        for space in _transitive_cases():
            pair = SubsetPair.full(space.m)
            if multiset_count(space.m, n) * space.m <= _LOOP_CELLS:
                assert chebyshev._scan(space, pair, n) == _full_scan(space, pair, n, monkeypatch)
                checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("cells", [1, 100, 5000])
    def test_small_budgets(self, monkeypatch, cells):
        # masked order-2 blocks, split blocks and prefixes filled from a
        # lower-order table, all after the offset column
        monkeypatch.setattr(chebyshev, "_CHUNK_CELLS", cells)
        for desc in (hypercube(4), circle(12, "arc"), circle(9, radius=1e3), circle(10)):
            space = generate(desc)
            pair = SubsetPair.full(space.m)
            for n in range(1, 7):
                if multiset_count(space.m, n) * space.m <= _LOOP_CELLS // 4:
                    assert chebyshev._scan(space, pair, n) == _full_scan(space, pair, n,
                                                                        monkeypatch)

    def test_benchmark_circle_takes_the_anchored_pass(self, monkeypatch):
        orders = []
        bounded = chebyshev._bounded

        def record(cols, n, counts, offset, budget, work):
            orders.append((n, len(counts), offset is not None))
            return bounded(cols, n, counts, offset, budget, work)

        monkeypatch.setattr(chebyshev, "_bounded", record)
        space = generate(circle(64))
        chebyshev._scan(space, SubsetPair.full(64), 4)
        # one bounded pass of order 3 over the rest of each multiset, after point 0
        assert orders == [(4, 3, True)]

    def test_cap_counts_every_multiset(self):
        # the anchored pass forms C(66, 3) multisets, but the cap is on C(67, 4)
        space = generate(circle(64))
        needed = multiset_count(64, 4)
        with pytest.raises(EnumerationCapExceededError) as e:
            chebyshev_n(space, SubsetPair.full(64), 4, cap=needed - 1)
        assert e.value.required == needed
        assert chebyshev_table(space, SubsetPair.full(64), 4, cap=needed - 1).skipped == (4,)


def _integer_kernel(m: int, top: int, seed: int):
    """A symmetric kernel of integers 1..top off a zero diagonal: its sums
    are exact, so many multisets tie."""
    k = np.triu(np.random.default_rng(seed).integers(1, top + 1, (m, m)), 1).astype(float)
    return validate_kernel(k + k.T, name=f"int{m}")


def _tie_cases():
    """Pairs whose bounds meet the running constants with equality."""
    for seed in (0, 1):
        space = _integer_kernel(10, 3, seed)
        yield space, SubsetPair.full(10)
        yield space, SubsetPair((0, 2, 3, 7), (1, 4, 5, 6, 8, 9))
        yield space, SubsetPair(tuple(range(10)), (4,))
    space = generate(hypercube(4))
    yield space, SubsetPair.full(16)
    yield space, SubsetPair(tuple(range(16)), (5,))
    space = generate(interval_grid(17))
    yield space, SubsetPair.full(17)
    yield space, SubsetPair((0, 1, 2, 3, 4), (12, 13, 14, 15, 16))


def _work(space, pair, n):
    """The pass's constants, and the cells it evaluated and bound."""
    work = chebyshev._ScanWork()
    return chebyshev._scan(space, pair, n, work), work


class TestBoundedPass:
    """The pass that skips the prefixes and tiles whose bounds cannot move
    either constant returns the prefix-loop pass's constants to the bit."""

    @staticmethod
    def assert_same(space, pair, n):
        """The pass's constants are the prefix loop's; returns them and the
        pass's work."""
        lo, _, hi, _ = chebyshev_prefix_loop(space, pair, n)
        result, work = _work(space, pair, n)
        assert result == (lo, hi)
        return result, work

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dyadic_grid(self, n):
        # grid(65) has entries j / 64: exact sums, and both constants tie
        # across thousands of multisets
        _, work = self.assert_same(generate(interval_grid(65)), SubsetPair.full(65), n)
        assert (work.bound > 0) == (n > 1)

    def test_hypercube_constants_meet(self, monkeypatch):
        # at even orders lo = hi, so a prefix is skipped only where both of
        # its bounds meet that one value exactly
        monkeypatch.setattr(chebyshev, "_transitive", lambda space, pair, n: False)
        monkeypatch.setattr(chebyshev, "_CHUNK_CELLS", 1000)
        space = generate(hypercube(4))
        for n in (2, 4, 6):
            (lo, hi), work = self.assert_same(space, SubsetPair.full(16), n)
            assert work.bound > 0
            assert lo == hi

    @pytest.mark.parametrize("cells", [1, 100, 5000])
    def test_small_budgets(self, monkeypatch, cells):
        # one prefix, tile and seed per chunk at 1 cell; several at 5000
        monkeypatch.setattr(chebyshev, "_CHUNK_CELLS", cells)
        bounded = 0
        for space, pair in _tie_cases():
            for n in range(1, 6):
                if multiset_count(len(pair.H), n) * len(pair.L) <= _LOOP_CELLS // 4:
                    _, work = self.assert_same(space, pair, n)
                    bounded += work.bound > 0
        assert bounded >= 20

    def test_order_forty_on_five_points(self):
        # 135,751 multisets from prefixes filled out of a lower-order table
        space = generate(random_graph(5, 0.5, 3))
        assert multiset_count(5, 39) * 5 > chebyshev._CHUNK_CELLS
        self.assert_same(space, SubsetPair.full(5), 40)

    @pytest.mark.parametrize("desc, n", [(circle(64), 4), (hypercube(6), 4),
                                         (interval_grid(101), 3), (interval_grid(257), 2)])
    def test_benchmark_passes_skip_most_cells(self, desc, n):
        # the cells evaluated and bound, against every cell of the pass
        space = generate(desc)
        pair = SubsetPair.full(space.m)
        order = n - 1 if chebyshev._transitive(space, pair, n) else n
        _, work = _work(space, pair, n)
        assert work.evaluated + work.bound < multiset_count(space.m, order) * space.m / 4


def _relabelled_grid(m):
    """grid(m) with its points in a seeded random order: no step between
    consecutive rows is small."""
    k = generate(interval_grid(m)).kernel
    order = np.random.default_rng(0).permutation(m)
    return validate_kernel(k[np.ix_(order, order)], name=f"relabelled-grid{m}")


def _screened_cases():
    """Pairs whose bounded passes take a screen: grids, chord and arc
    circles (anchored at point 0 on the full pair) and sub-pairs with
    |H| != |L|."""
    for m in (17, 40, 65, 101):
        yield generate(interval_grid(m)), SubsetPair.full(m)
    for m in (33, 41, 64):
        for metric in ("chord", "arc"):
            yield generate(circle(m, metric)), SubsetPair.full(m)
    grid = generate(interval_grid(60))
    yield grid, SubsetPair(tuple(range(0, 60, 3)), tuple(range(5, 50)))
    yield grid, SubsetPair(tuple(range(5, 50)), tuple(range(0, 60, 3)))
    arc = generate(circle(48, "arc"))
    yield arc, SubsetPair(tuple(range(0, 48, 2)), tuple(range(10, 41)))


class TestScreenedPass:
    """A bounded pass of more than ``_CHUNK_CELLS`` cells over a row-smooth
    block bounds and first evaluates its cells on every 8th row of L and the
    last, forms a tile on all of L only where a screen value could still
    move a constant, and returns the constants of the pass over all of L to
    the bit."""

    @pytest.mark.parametrize("cells, n, least", [(None, 2, 1), (None, 3, 4), (4096, 2, 6),
                                                 (4096, 3, 13), (200, 2, 7), (200, 3, 13)])
    def test_against_prefix_loop(self, monkeypatch, cells, n, least):
        if cells is not None:
            monkeypatch.setattr(chebyshev, "_CHUNK_CELLS", cells)
        screened = 0
        for space, pair in _screened_cases():
            lo, _, hi, _ = chebyshev_prefix_loop(space, pair, n)
            result, work = _work(space, pair, n)
            assert result == (lo, hi)
            screened += 0 < work.screen < len(pair.L)
        # Order 2 on a full circle is an anchored pass of order 1, never
        # bounded; at the full budget the smaller passes keep all of L.
        assert screened >= least

    @pytest.mark.parametrize("n", [2, 3])
    def test_against_old_scan(self, monkeypatch, n):
        # the witnesses too: the search reads the screened pass's values
        monkeypatch.setattr(chebyshev, "_CHUNK_CELLS", 4096)
        for space, pair in _screened_cases():
            if len(pair.H) <= 65:
                assert chebyshev_n(space, pair, n) == chebyshev_scan(space, pair, n)
                assert dual_chebyshev_n(space, pair, n) == chebyshev_scan(space, pair, n,
                                                                          dual=True)

    @pytest.mark.parametrize("desc, n, rows", [(interval_grid(101), 3, 14), (circle(64), 4, 9),
                                               (interval_grid(257), 2, 33),
                                               (circle(256), 3, 33)])
    def test_smooth_blocks_take_the_screen(self, monkeypatch, desc, n, rows):
        space = generate(desc)
        result, work = _work(space, SubsetPair.full(space.m), n)
        assert work.screen == rows
        monkeypatch.setattr(chebyshev, "_screen", lambda cols: None)
        assert result == chebyshev._scan(space, SubsetPair.full(space.m), n)

    @pytest.mark.parametrize("space, n, evaluated, bound", [
        (generate(hypercube(6)), 3, 83_968, 42_496),
        (generate(hypercube(6)), 4, 5_120, 266_240),
        (generate(random_graph(40, 0.5, 4)), 3, 146_880, 174_160),
        (generate(random_graph(40, 0.5, 4)), 4, 166_080, 1_312_840),
        (_relabelled_grid(101), 2, 438_744, 87_971),
        (_relabelled_grid(101), 3, 12_150_704, 4_641_354),
    ], ids=lambda v: getattr(v, "name", v))
    def test_rough_blocks_keep_all_of_l(self, space, n, evaluated, bound):
        # the unscreened pass's counts: steps between consecutive rows of
        # nearly the whole range fail the gate, and S = L
        _, work = _work(space, SubsetPair.full(space.m), n)
        assert (work.evaluated, work.bound, work.screen) == (evaluated, bound, space.m)

    def test_gate(self):
        def screen(k):
            return chebyshev._screen(np.ascontiguousarray(k))

        ramp = np.arange(17.0)[:, None] * np.ones((1, 3))
        assert screen(ramp).tolist() == [0, 8, 16]
        assert screen(ramp[:10]).tolist() == [0, 8, 9]
        # steps of exactly 1/8 of the range pass; one a little larger does not
        eighths = np.arange(9.0)[:, None] * np.ones((1, 2))
        assert screen(eighths).tolist() == [0, 8]
        eighths[8, 1] = 8.5
        assert screen(eighths) is None
        # two rows or fewer are their own screen
        assert screen(ramp[:2]) is None
        assert screen(ramp[:1]) is None

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_gather_adds_as_fill(self, order):
        space = generate(random_graph(11, 0.5, 6))
        cols = np.ascontiguousarray(space.kernel[:, :9])
        counts = [np.ones(9, dtype=np.int64)]
        for _ in range(order):
            counts.append(np.cumsum(counts[-1]))
        ranks = np.random.default_rng(order).integers(0, int(counts[-1][-1]), 40)
        for offset in (None, 0.0 + cols[:, 3:4]):
            table = chebyshev._colex_table(cols, 0, counts, offset)
            whole = chebyshev._fill(cols, table, 0, counts, order, 0, int(counts[-1][-1]))
            out, scratch = np.empty((11, 40)), np.empty((11, 40))
            gathered = chebyshev._gather(cols, offset, counts, ranks, out, scratch)
            assert np.array_equal(gathered, whole[:, ranks])


def _moved_by_one_ulp(desc):
    k = generate(desc).kernel.copy()
    k[0, 2] = k[2, 0] = np.nextafter(k[0, 2], np.inf)
    return validate_kernel(k, name="moved")


def _relabelled(desc):
    k = generate(desc).kernel
    order = np.random.default_rng(0).permutation(k.shape[0])
    return validate_kernel(k[np.ix_(order, order)], name="relabelled")


def _xor_invariant_below(m, p, seed):
    """A random integer kernel on m points, invariant under XOR with each
    power of two below p but not with p."""
    k = np.random.default_rng(seed).integers(1, 100, (m, m)).astype(float)
    k = k + k.T
    idx = np.arange(m)
    q = 1
    while q < p:
        k = k + k[np.ix_(idx ^ q, idx ^ q)]
        q *= 2
    np.fill_diagonal(k, 0.0)
    return validate_kernel(k, name=f"xor-below-{p}")


class TestTransitiveCheck:
    @pytest.mark.parametrize("name, space", vertex_transitive_family())
    def test_vertex_transitive_family(self, name, space):
        assert chebyshev._transitive(space, SubsetPair.full(space.m), 4)

    @pytest.mark.parametrize("desc", [circle(64), hypercube(6), circle(256)])
    def test_benchmark_spaces(self, desc):
        space = generate(desc)
        assert chebyshev._transitive(space, SubsetPair.full(space.m), 4)

    @pytest.mark.parametrize("space", [
        generate(interval_grid(101)), generate(interval_grid(257)),
        *(generate(random_graph(m, 0.5, s)) for m in (12, 13, 14, 40) for s in (1, 2, 3, 4)),
        _moved_by_one_ulp(circle(64)), _moved_by_one_ulp(hypercube(4)),
        _relabelled(circle(64)), _relabelled(hypercube(4)),
        _xor_invariant_below(8, 2, 0), _xor_invariant_below(8, 4, 1),
        _xor_invariant_below(16, 8, 2),
    ], ids=lambda space: space.name)
    def test_not_transitive(self, space):
        assert not chebyshev._transitive(space, SubsetPair.full(space.m), 4)

    def test_only_the_full_pair_from_order_two(self):
        space = generate(circle(8))
        pairs = [SubsetPair(H, L) for r in range(1, 9)
                 for H in itertools.combinations(range(8), r) for L in ((0, 3, 5), H)]
        for pair in pairs:
            assert chebyshev._transitive(space, pair, 2) == (pair == SubsetPair.full(8))
        assert not chebyshev._transitive(space, SubsetPair.full(8), 1)
        assert not chebyshev._transitive(generate(circle(1)), SubsetPair.full(1), 2)

    def test_xor_needs_exact_sums(self):
        # XOR reorders the terms of a sum: on tenths the anchored pass could
        # round differently, on integers up to 2^53 it cannot
        assert not chebyshev._transitive(_xor_kernel([0, 0.1, 0.2, 0.3]), SubsetPair.full(4), 2)
        big = _xor_kernel([0, 1, 2 ** 50, 2 ** 51])
        assert chebyshev._transitive(big, SubsetPair.full(4), 4)
        assert not chebyshev._transitive(big, SubsetPair.full(4), 5)


class TestMemoryBound:
    """One pass allocates a fixed multiple of the cell budget, beside its input."""

    @staticmethod
    def assert_bounded(space, n):
        tracemalloc.start()
        try:
            chebyshev._scan(space, SubsetPair.full(space.m), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the table and the blocks of sums, plus the |L| x |H| kernel columns
        assert peak <= 8 * (3 * chebyshev._CHUNK_CELLS + space.m * space.m)

    def test_high_order_small_h(self):
        # the order-38 table alone would hold 111,930 x 5 cells
        assert multiset_count(5, 38) * 5 > chebyshev._CHUNK_CELLS
        self.assert_bounded(generate(random_graph(5, 0.5, 3)), 40)

    def test_wide_order_two(self):
        # one block for all 33,153 pairs of 257 points would hold 8.5M cells
        self.assert_bounded(generate(interval_grid(257)), 2)

    def test_anchored_order_two(self):
        # the transitivity check compares views of the kernel, it copies none
        self.assert_bounded(generate(circle(256)), 2)

    def test_screened_passes(self):
        # the screen's rows of the block live in the pass's one scratch block
        for desc, n in ((interval_grid(257), 2), (circle(256), 3)):
            space = generate(desc)
            work = chebyshev._ScanWork()
            chebyshev._scan(space, SubsetPair.full(space.m), n, work)
            assert work.screen == 33
            self.assert_bounded(space, n)
