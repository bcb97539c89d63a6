"""Chebyshev-type constants of order n by exact multiset enumeration.

The order-n constant maximizes, over size-n multisets from H, the smallest
averaged kernel sum seen from L; the dual constant minimizes the largest
one.  One pass over the multisets (combinations with replacement) yields
both, with a hard cap on the enumeration size.  A cell is the sum of one
multiset seen from one point of L, divided by n; every sum runs left to
right from 0.0 in sorted index order, so the pass and the witness search
compute the same bits.  The pass computes the two constants only.  A
witness, the lexicographically smallest optimizer, is searched for when
``chebyshev_n`` or ``dual_chebyshev_n`` asks for one (``_search``).

A pass of order 1 forms every cell, in blocks of ``_CHUNK_CELLS // 4``
float64 cells; a pass of higher order whose cells fit one block is plain:
its sums are one table of every multiset.  A larger pass is bounded
(``_bounded``): it forms the sums of order n - 1, the prefixes, in colex
order (by largest index), a chunk at a time, and a prefix P with largest
index x only meets the last indices c >= x.  For each prefix it computes

    ub = fl(min over L of fl(P + max_c k_c) / n)
    lb = fl(max over L of fl(P + min_c k_c) / n)

with the max and min taken per point of L over the c of x's tile and all
later ones, which include every c >= x.  Rounded addition and division are
monotone, so ub is at least the smallest-over-L value of every cell
``fl(P + k_c)`` as computed, and lb at most its largest-over-L value.  A
prefix with ub <= lo and lb >= hi therefore has no cell that could raise
the running constant lo or lower the running dual hi, and is skipped; the
result is bit for bit the full pass's.  The pass first forms every cell of
the prefixes with the largest ub and the smallest lb, for a good lo and hi
early, then bounds each surviving prefix again on tiles of ``_TILE``
consecutive c, and forms only the tiles that survive.  Every table and
block stays within ``_CHUNK_CELLS`` cells, and the bounds go chunk by
chunk.

Every multiset sum above order 1 comes from one routine, ``_sums``: a
colex rank splits into one index per order, and a sum adds their columns to
a column of a lower order's table in increasing index order.  ``_table``
builds the table of every multiset of an order from the order below.

A bounded pass takes its prefixes, bounds and a first value of each cell
on a screen S of L.  A min over S is at least the min over L and a max
over S at most the max over L, so a bound on S only weakens, and a cell
that cannot raise lo or lower hi on S cannot over L.  A tile is formed on
all of L only if one of its cells could still move a constant on S, and
lo and hi are updated from those cells over L alone: both constants stay
the full pass's to the bit.  S is every 8th row of L and the last where
the pass has more than ``_CHUNK_CELLS`` cells and its L x H block is
row-smooth (no step between consecutive rows above 1/8 of its range, as on
a grid or a circle).  Elsewhere S is L: a smaller pass costs less than the
screen's set-up, and on a random graph or a hypercube few cells would fail
on S.

On the full pair of a kernel invariant under a group of index permutations
that acts transitively (the cyclic shift, or the XOR translations of 2^d
points), every multiset has an image that contains point 0 and the same
constants, so the pass of order n >= 2 forms only the multisets that
contain 0: an order-(n - 1) pass over the rest, whose sums start from
``0 + k_0`` and are thus bit for bit the full pass's sums of those
multisets.  The constants are therefore the full pass's (see
``_transitive`` for when rounding keeps them so).  The cap still counts
every multiset of H.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DimensionMismatchError,
    EnumerationCapExceededError,
    KernelSpace,
    NumericalBreakdownError,
    SubsetPair,
    ValueInterval,
)
from .spectral import exact_sum_terms, is_cyclic, is_xor_invariant

DEFAULT_ENUM_CAP = 2_000_000
# Cells (float64) of the largest temporary of a pass: 2 MB, enough for the
# order-2 table of 64 points (2,080 columns of 64).
_CHUNK_CELLS = 2 ** 18
# Last indices per tile: a pass bounds, and forms, the sums of one prefix
# with up to this many consecutive last indices at a time.
_TILE = 8
# Rows of L per row of a screen, and the steps per range of a smooth block.
_SCREEN = 8


@dataclass(frozen=True)
class ChebyshevWitness:
    """Optimal multiset (point indices, sorted) and the extremal point of L."""

    points: tuple[int, ...]
    extremal: int


@dataclass
class _ScanWork:
    """The cells one pass formed: sums evaluated, and bound cells; and the
    rows of its screen if it was bounded."""

    evaluated: int = 0
    bound: int = 0
    screen: int = 0


@dataclass(frozen=True)
class ChebyshevTable:
    """Per-order constants: row n holds M_n and the dual constant.

    Orders whose enumeration would exceed the cap are listed in ``skipped``
    rather than raising, so a table can accompany a report for any space.
    """

    n_values: tuple[int, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    skipped: tuple[int, ...] = ()


def multiset_count(h: int, n: int) -> int:
    return math.comb(h + n - 1, n)


def check_n_max(n_max: int) -> None:
    """Reject an empty range of orders 1..n_max."""
    if n_max < 1:
        raise DimensionMismatchError(f"largest multiset order must be at least 1, got {n_max}")


def _enum_limit(cap: Optional[int]) -> int:
    """The multiset cap in force; one below 1 would admit no order at all."""
    limit = DEFAULT_ENUM_CAP if cap is None else int(cap)
    if limit < 1:
        raise DimensionMismatchError(f"multiset enumeration cap must be at least 1, got {limit}")
    return limit


def _order_pass(space: KernelSpace, pair: SubsetPair, n: int, cap: Optional[int]
                ) -> tuple[float, float]:
    """Both order-n constants, from one pass over the multisets.

    The pass runs once per space, pair and order; the cap is checked on
    every call.
    """
    if n < 1:
        raise DimensionMismatchError(f"multiset order must be at least 1, got {n}")
    pair.check_range(space.m)
    limit = _enum_limit(cap)
    required = multiset_count(len(pair.H), n)
    if required > limit:
        raise EnumerationCapExceededError(
            f"order {n} over {len(pair.H)} points needs {required} multisets; cap is {limit}",
            cap=limit,
            required=required,
        )
    return space.memo(("order_pass", pair, n), lambda: _scan(space, pair, n))


def _scan(space: KernelSpace, pair: SubsetPair, n: int,
          work: Optional[_ScanWork] = None) -> tuple[float, float]:
    """Both order-n constants; on a transitive space (see the module
    docstring) only the multisets that contain point 0 are formed.  The
    cells the pass forms are added to ``work``."""
    work = _ScanWork() if work is None else work
    H, L = pair.H, pair.L
    # Column i holds the kernel from H[i] to every point of L.  L leads, so the
    # reductions over L run elementwise across contiguous slabs.  Copies of the
    # last column fill the last tile; their cells repeat the last column's.
    padded = H + H[-1:] * (-len(H) % _TILE)
    cols = np.ascontiguousarray(space.kernel[np.ix_(L, padded)])
    if _transitive(space, pair, n):
        # the rest of each multiset after a first term 0
        return _pass(cols, len(H), n - 1, n, 0.0 + cols[:, :1], work)
    return _pass(cols, len(H), n, n, None, work)


def _transitive(space: KernelSpace, pair: SubsetPair, n: int) -> bool:
    """Whether the order-n pass may form only the multisets that contain
    point 0 and still give the full pass's constants to the bit.

    That needs n >= 2, the full pair of at least two points, and a kernel
    exactly invariant under a group of index permutations that acts
    transitively and keeps every sum's rounding:

    - the cyclic shift i -> i + 1 (mod m).  Shifting a multiset down by its
      smallest index keeps its indices in order, so from the shifted points
      it has the same sums, term by term.
    - for m = 2^d, every XOR translation i -> i ^ 2^e, on a kernel of
      integers whose sums of n entries stay within 2^53.  XOR reorders the
      terms of a sum, which only exact sums do not feel.

    Only views of the kernel are compared; no m x m index array or copy is
    built.
    """
    m = space.m
    # H and L hold sorted distinct indices: m of them ending at m - 1 are all
    full = len(pair.H) == len(pair.L) == pair.H[-1] + 1 == pair.L[-1] + 1 == m
    if n < 2 or m < 2 or not full:
        return False
    return n <= space.memo(("transitive",), lambda: _anchored_orders(space.kernel))


def _anchored_orders(k: np.ndarray) -> float:
    """The largest order whose pass may anchor at point 0, 0 for none."""
    if is_cyclic(k):
        return math.inf
    # an XOR-invariant kernel holds K[i, j] = K[0, i ^ j]: row 0 has every entry
    return exact_sum_terms(k[0]) if is_xor_invariant(k) else 0


def _pass(cols: np.ndarray, h: int, order: int, n: int, offset: Optional[np.ndarray],
          work: _ScanWork) -> tuple[float, float]:
    """Both constants over the order-``order`` multisets of the first ``h``
    columns of ``cols``, each sum divided by n.

    Every sum accumulates left to right from 0.0,
    ``((0 + k_a1) + k_a2) + ... + k_an``, or from the column ``offset``
    (|L| x 1) in place of 0.0.  Order 1 has one prefix, the start, so no
    bound can skip a cell; its cells go in blocks of columns.  A larger
    order whose cells fit one block is plain: its sums are one table
    (``_table``).  A pass too large for that is bounded (``_bounded``).
    """
    n_l = cols.shape[0]
    # Blocks get a quarter of the budget: at 2**17 cells they raised the peak
    # RSS of a random(40) analysis by 1.3 MB, at 2**16 not measurably.
    budget = max(1, _CHUNK_CELLS // 4)
    start = np.zeros((n_l, 1)) if offset is None else offset
    if order == 1:
        width = max(1, budget // n_l)
        folds = [_fold(start + cols[:, c0:min(c0 + width, h)], n, work)
                 for c0 in range(0, h, width)]
        return max(low for low, _ in folds), min(high for _, high in folds)
    # counts[j][x]: multisets of order j with largest index at most x.
    counts = [np.ones(h, dtype=np.int64)]
    for _ in range(order):
        counts.append(np.cumsum(counts[-1]))
    cells = n_l * int(counts[order][-1])
    if cells <= budget:
        return _fold(_table(cols, start, counts, order, np.empty(cells)), n, work)
    return _bounded(cols, n, counts[:order], offset, budget, work)


def _fold(sums: np.ndarray, n: int, work: _ScanWork) -> tuple[float, float]:
    """The evaluation step: over a block of sums with L on its first axis,
    the largest smallest-over-L cell and the smallest largest-over-L cell,
    both divided by n."""
    low, high = _cells(sums, None, n, work)
    return float(low.max()), float(high.min())


def _cells(sums: np.ndarray, invalid: Optional[np.ndarray], n: int, work: _ScanWork
           ) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of a block of sums, its smallest and largest value over the
    first axis, divided by n; an invalid cell reads -inf and inf."""
    work.evaluated += sums.size
    # Divide before comparing: sums that differ can tie once divided by n.
    low = sums.min(axis=0)
    low /= n
    high = sums.max(axis=0)
    high /= n
    if invalid is not None:
        low[invalid] = -np.inf
        high[invalid] = np.inf
    return low, high


def _table(cols: np.ndarray, start: np.ndarray, counts: list, t: int, scratch: np.ndarray
           ) -> np.ndarray:
    """Sums of every order-t multiset of the first ``len(counts[0])``
    columns, in colex order, from the column ``start`` (|L| x 1); ``scratch``
    is a flat block for ``_sums``.

    Order 0 is ``start``, order 1 ``start + k_x``, and each higher order one
    ``_sums`` call from the order below: one peel and one add per sum.
    """
    table = start if t == 0 else start + cols[:, :len(counts[0])]
    for j in range(2, t + 1):
        width = int(counts[j][-1])
        table = _sums(cols, table, j - 1, counts, j, np.arange(width),
                      np.empty((cols.shape[0], width)), scratch)
    return table


def _bound(heads: np.ndarray, edge: np.ndarray, t: np.ndarray, extreme: np.ufunc,
           out: np.ndarray, n: int, work: _ScanWork) -> np.ndarray:
    """Per column i, the ``extreme`` over L of ``heads + edge[:, t[i]]``,
    divided by n; ``out`` is scratch of the shape of ``heads``.

    With ``edge`` the largest kernel entries over some last indices c and
    ``np.minimum``, no cell ``heads + k_c`` among them has a larger
    smallest value, as computed: rounded addition and division are
    monotone.  With the smallest entries and ``np.maximum``, none has a
    smaller largest value.
    """
    work.bound += heads.size
    # the indices are in range; "clip" only spares take a buffered copy
    edge.take(t, axis=1, out=out, mode="clip")
    value = extreme.reduce(np.add(heads, out, out=out), axis=0)
    value /= n
    return value


def _tile_pairs(q: np.ndarray, t0: np.ndarray, tiles: int, size: int):
    """The pairs (q[i], t) for every tile t0[i] <= t < ``tiles``, in that
    order, ``size`` pairs at a time, as two index arrays."""
    ends = np.cumsum(tiles - t0)
    total = int(ends[-1]) if ends.size else 0
    for j0 in range(0, total, size):
        j = np.arange(j0, min(j0 + size, total))
        i = np.searchsorted(ends, j, side="right")
        yield q[i], j - (ends[i] - tiles)


def _screen(cols: np.ndarray) -> Optional[np.ndarray]:
    """The rows of a pass's screen over the block ``cols`` (see the module
    docstring), or None for all of L."""
    n_l, width = cols.shape
    # every 8th row and the last are all of two rows
    if n_l <= 2:
        return None
    limit = (cols.max() - cols.min()) / _SCREEN
    # a few rows at a time, up to the first step too large
    span = min(n_l - 1, max(1, _CHUNK_CELLS // 64 // width))
    steps = np.empty((span, width))
    for r0 in range(0, n_l - 1, span):
        step = steps[:min(span, n_l - 1 - r0)]
        np.subtract(cols[r0 + 1:r0 + 1 + len(step)], cols[r0:r0 + len(step)], out=step)
        if np.abs(step, out=step).max() > limit:
            return None
    return np.append(np.arange(0, n_l - 1, _SCREEN), n_l - 1)


def _bounded(cols: np.ndarray, n: int, counts: list, offset: Optional[np.ndarray],
             budget: int, work: _ScanWork) -> tuple[float, float]:
    """The pass of ``_pass`` that forms only the cells that can still raise
    ``lo`` or lower ``hi`` (see the module docstring).

    The prefixes, the sums of order ``len(counts) - 1``, are formed in colex
    order (by largest index first), ``budget // (2 |S|)`` at a time on the
    screen S; a prefix q with largest index x forms ``P_q + k_c`` for every
    c >= x, in tiles of ``_TILE`` consecutive c.  ``cols`` holds whole
    tiles; the columns past ``len(counts[0])`` copy the last one.
    """
    n_l = cols.shape[0]
    tiles = cols.shape[1] // _TILE
    blocks = cols.reshape(n_l, tiles, _TILE)
    k = len(counts) - 1
    # The cells of the pass, multisets times |L|: up to _CHUNK_CELLS of them
    # cost less than a screen's set-up.
    screen = _screen(cols) if n_l * int(counts[k].sum()) > _CHUNK_CELLS else None
    n_s = work.screen = n_l if screen is None else screen.size
    # Scratch blocks of half the budget each, reused by every chunk: a fresh
    # block each time costs more in page faults than its arithmetic.  One
    # allocation holds them all and S's rows of ``cols``; freed whole, it
    # leaves no heap behind.  ``heads`` is free until a chunk's prefixes are
    # filled, and ``sums`` until a tile is formed: ``_sums`` works in them.
    rows = max(1, budget // (2 * n_s))
    pairs = max(1, budget // (2 * n_s * _TILE))
    full = max(1, budget // (2 * n_l * _TILE))
    cells = max(n_s * pairs, n_l * full)
    sizes = [n_s * rows] * 3 + [cells * _TILE, cells]
    if screen is not None:
        sizes.append(n_s * cols.shape[1])
    scratch = np.empty(sum(sizes))
    filled, edges, heads, sums, tails, *on_screen = np.split(scratch, np.cumsum(sizes)[:-1])
    start = np.zeros((n_l, 1)) if offset is None else offset
    seen_cols, seen_start = cols, start
    if screen is not None:
        seen_cols = cols.take(screen, axis=0, out=on_screen[0].reshape(n_s, -1), mode="clip")
        seen_start = start[screen]
    seen_blocks = seen_cols.reshape(n_s, tiles, _TILE)
    # The prefixes are filled chunk by chunk from the table of the largest
    # lower order that fits the budget.
    t = 0
    while t + 1 < k and n_s * int(counts[t + 1][-1]) <= _CHUNK_CELLS:
        t += 1
    table = _table(seen_cols, seen_start, counts, t, heads)
    # The largest and smallest kernel entry from each row of S over each
    # tile, and over each tile and all tiles after it.
    tile_max, tile_min = seen_blocks[:, :, 0].copy(), seen_blocks[:, :, 0].copy()
    for j in range(1, _TILE):
        # eight elementwise steps; a reduction over the short last axis is
        # several times slower
        np.maximum(tile_max, seen_blocks[:, :, j], out=tile_max)
        np.minimum(tile_min, seen_blocks[:, :, j], out=tile_min)
    rest_max = np.ascontiguousarray(np.maximum.accumulate(tile_max[:, ::-1], axis=1)[:, ::-1])
    rest_min = np.ascontiguousarray(np.minimum.accumulate(tile_min[:, ::-1], axis=1)[:, ::-1])
    lo, hi = -math.inf, math.inf
    last = counts[k]
    prefixes = int(last[-1])

    def form(source, tail, first, q, t_):
        """``_cells`` of the pairs (q, t_) over the rows of ``source``;
        ``tail`` holds the prefixes q on those rows."""
        block = sums[:tail.size * _TILE].reshape(*tail.shape, _TILE)
        source.take(t_, axis=1, out=block, mode="clip")
        np.add(block, tail[:, :, None], out=block)
        # the cells with c below the prefix's largest index
        head = first[q] - t_ * _TILE
        invalid = np.arange(_TILE) < head[:, None] if head.max() > 0 else None
        return _cells(block, invalid, n, work)

    def evaluate(r0, seen, first, q, t_):
        nonlocal lo, hi
        tail = seen.take(q, axis=1, out=tails[:n_s * q.size].reshape(n_s, q.size), mode="clip")
        low, high = form(seen_blocks, tail, first, q, t_)
        if screen is None:
            lo, hi = max(lo, float(low.max())), min(hi, float(high.min()))
            return
        # the tiles that could move lo or hi, formed on all of L
        keep = np.flatnonzero(((low > lo) | (high < hi)).any(axis=1))
        for s in range(0, keep.size, full):
            i = keep[s:s + full]
            tail = tails[:n_l * i.size].reshape(n_l, i.size)
            _sums(cols, start, 0, counts, k, r0 + q[i], tail, sums)
            low, high = form(blocks, tail, first, q[i], t_[i])
            lo, hi = max(lo, float(low.max())), min(hi, float(high.min()))

    for r0 in range(0, prefixes, rows):
        r1 = min(r0 + rows, prefixes)
        size = n_s * (r1 - r0)
        ranks = np.arange(r0, r1)
        seen = _sums(seen_cols, table, t, counts, k, ranks, filled[:size].reshape(n_s, -1), heads)
        first = np.searchsorted(last, ranks, side="right")
        t0 = first // _TILE
        edge = edges[:size].reshape(n_s, r1 - r0)
        upper = _bound(seen, rest_max, t0, np.minimum, edge, n, work)
        lower = _bound(seen, rest_min, t0, np.maximum, edge, n, work)
        # Seeds: every cell of the prefixes with the largest and the smallest bound.
        seeds = np.array(sorted({int(np.argmax(upper)), int(np.argmin(lower))}), dtype=np.intp)
        seeds = seeds[(upper[seeds] > lo) | (lower[seeds] < hi)]
        for q, t_ in _tile_pairs(seeds, t0[seeds], tiles, pairs):
            evaluate(r0, seen, first, q, t_)
        alive = (upper > lo) | (lower < hi)
        alive[seeds] = False
        q_alive = np.flatnonzero(alive)
        # A side no prefix can improve needs no tile bounds.
        raise_lo, lower_hi = bool((upper[q_alive] > lo).any()), bool((lower[q_alive] < hi).any())
        for q, t_ in _tile_pairs(q_alive, t0[q_alive], tiles, rows):
            size = n_s * q.size
            head = seen.take(q, axis=1, out=heads[:size].reshape(n_s, q.size), mode="clip")
            edge = edges[:size].reshape(n_s, q.size)
            keep = np.zeros(q.size, dtype=bool)
            if raise_lo:
                keep |= _bound(head, tile_max, t_, np.minimum, edge, n, work) > lo
            if lower_hi:
                keep |= _bound(head, tile_min, t_, np.maximum, edge, n, work) < hi
            q, t_ = q[keep], t_[keep]
            for s in range(0, q.size, pairs):
                evaluate(r0, seen, first, q[s:s + pairs], t_[s:s + pairs])
    return lo, hi


def _sums(cols: np.ndarray, table: np.ndarray, t: int, counts: list, k: int,
          ranks: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sums of the order-k multisets of the given colex ranks, contiguous or
    scattered, into ``out`` (|L| x ranks), from ``table``, the sums of every
    order-t multiset (t <= k) in colex order; ``scratch`` is a flat block.

    In colex order the order-j multisets with largest index x are those of
    order j - 1 with largest index at most x, plus x, and follow those with
    a smaller largest index (the combinatorial number system).  One
    ``searchsorted`` per order peels a rank's largest index off, down to its
    order-t prefix, a column of ``table``.  A sum takes that column and adds
    ``k_x`` for the peeled indices in increasing order, as every sum of a
    pass is added.  Ranks go a slice at a time: a slice's kernel columns
    fill at most ``scratch``, and its indices, one per order above t, at
    most ``_CHUNK_CELLS // 4`` entries.
    """
    n_l = cols.shape[0]
    size = max(1, min(scratch.size // n_l, _CHUNK_CELLS // 4 // max(1, k - t)))
    # firsts[j][x]: the rank of the first order-j multiset with largest index x
    firsts = {j: counts[j] - counts[j - 1] for j in range(t + 1, k + 1)}
    for s0 in range(0, ranks.size, size):
        rest = ranks[s0:s0 + size]
        part = out[:, s0:s0 + rest.size]
        block = scratch[:n_l * rest.size].reshape(n_l, rest.size)
        last = []
        for j in range(k, t, -1):
            x = np.searchsorted(counts[j], rest, side="right")
            rest = rest - firsts[j].take(x)
            last.append(x)
        np.copyto(part, table.take(rest, axis=1, out=block, mode="clip"))
        while last:
            np.add(part, cols.take(last.pop(), axis=1, out=block, mode="clip"), out=part)
    return out


def _search(space: KernelSpace, pair: SubsetPair, n: int, value: float,
            dual: bool) -> ChebyshevWitness:
    """The lexicographically first order-n multiset of H whose constant (the
    dual one if ``dual``) equals ``value``, with its extremal point of L.

    ``value`` comes from ``_order_pass``, which checked the caller's cap.
    The pass sums each multiset as here, left to right from 0.0 (from
    ``0 + k_0`` on a transitive space: the same sum for a multiset that
    starts with 0), so ``value`` is the cell of a multiset and the first
    match is the first optimizer in lexicographic order.
    """
    def search() -> ChebyshevWitness:
        H, L = pair.H, pair.L
        # Row i holds the kernel from H[i] to every point of L.
        rows = np.ascontiguousarray(space.kernel[np.ix_(L, H)].T)
        size = max(1, _CHUNK_CELLS // 4 // len(L))
        combos = itertools.combinations_with_replacement(range(len(H)), n)
        for chunk in iter(lambda: list(itertools.islice(combos, size)), []):
            idx = np.array(chunk, dtype=np.intp)
            avg = np.zeros((len(chunk), len(L)))
            for j in range(n):
                avg += rows[idx[:, j]]
            avg /= n
            inner = avg.max(axis=1) if dual else avg.min(axis=1)
            hits = np.flatnonzero(inner == value)
            if hits.size:
                first = hits[0]
                extremal = int(np.argmax(avg[first]) if dual else np.argmin(avg[first]))
                return ChebyshevWitness(points=tuple(H[i] for i in chunk[first]),
                                        extremal=L[extremal])
        raise NumericalBreakdownError(
            f"no order-{n} multiset over {len(H)} points has the constant {value!r}")

    return space.memo(("witness", pair, n, dual), search)


def chebyshev_n(space: KernelSpace, pair: SubsetPair, n: int,
                cap: Optional[int] = None) -> tuple[float, ChebyshevWitness]:
    """Order-n constant: best multiset of H for the worst (smallest) view from L."""
    lo, _ = _order_pass(space, pair, n, cap)
    return lo, _search(space, pair, n, lo, dual=False)


def dual_chebyshev_n(space: KernelSpace, pair: SubsetPair, n: int,
                     cap: Optional[int] = None) -> tuple[float, ChebyshevWitness]:
    """Dual order-n constant: best multiset of H for the largest view from L."""
    _, hi = _order_pass(space, pair, n, cap)
    return hi, _search(space, pair, n, hi, dual=True)


def rendezvous_n(space: KernelSpace, pair: SubsetPair, n: int,
                 cap: Optional[int] = None) -> ValueInterval:
    """Order-n interval between the constant and its dual; may be empty."""
    return ValueInterval.between(*_order_pass(space, pair, n, cap))


def chebyshev_limit_bounds(space: KernelSpace, pair: SubsetPair, n_max: int,
                           cap: Optional[int] = None) -> tuple[float, float]:
    """Certified bracket from orders 1..n_max.

    Concatenating multisets makes ``n * M_n`` superadditive and the dual
    sequence subadditive, so the limits equal ``sup_n M_n`` and the dual
    ``inf_n``; the running max and min over a finite prefix are therefore
    valid lower and upper bounds for the respective limits.
    """
    check_n_max(n_max)
    passes = [_order_pass(space, pair, n, cap) for n in range(1, n_max + 1)]
    return max(p[0] for p in passes), min(p[1] for p in passes)


def chebyshev_table(space: KernelSpace, pair: SubsetPair, n_max: int,
                    cap: Optional[int] = None) -> ChebyshevTable:
    """Table of orders 1..n_max, skipping orders whose scan would blow the cap."""
    check_n_max(n_max)
    limit = _enum_limit(cap)
    ns, lows, highs, skipped = [], [], [], []
    for n in range(1, n_max + 1):
        if multiset_count(len(pair.H), n) > limit:
            skipped.append(n)
            continue
        lo, hi = _order_pass(space, pair, n, limit)
        ns.append(n)
        lows.append(lo)
        highs.append(hi)
    return ChebyshevTable(
        n_values=tuple(ns),
        lower=tuple(lows),
        upper=tuple(highs),
        skipped=tuple(skipped),
    )
