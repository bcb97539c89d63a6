"""Chebyshev-type constants of order n by exact multiset enumeration.

The order-n constant maximizes, over size-n multisets from H, the smallest
averaged kernel sum seen from L; the dual constant minimizes the largest
one.  One pass over all multisets (combinations with replacement) yields
both, with a hard cap on the enumeration size.  The pass keeps the sums of
order n - 2 in a table ordered by largest index (colex), and forms every
sum with second-largest index b by one broadcast add over the table's first
columns and the indices c >= b; no multiset tuples or index arrays are
built.  The table and every block of sums stay within ``_CHUNK_CELLS``
float64 cells.  Multiset witnesses are the lexicographically smallest
optimizers.

On the full pair of a kernel invariant under a group of index permutations
that acts transitively (the cyclic shift, or the XOR translations of 2^d
points), every multiset has an image that contains point 0 and the same
constants, so the pass of order n >= 2 forms only the multisets that
contain 0: an order-(n - 1) pass over the rest, whose sums start from
``0 + k_0`` and are thus bit for bit the full pass's sums of those
multisets.  The lexicographically smallest optimizer contains 0 (see
``_transitive`` for when rounding keeps it so), so the constants and
witnesses are the full pass's.  The cap still counts every multiset of H.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DimensionMismatchError,
    EnumerationCapExceededError,
    KernelSpace,
    SubsetPair,
    TIE_TOL,
    ValueInterval,
)

DEFAULT_ENUM_CAP = 2_000_000
# Cells (float64) of the largest temporary of a pass: 2 MB, enough for the
# order-2 table of 64 points (2,080 columns of 64).
_CHUNK_CELLS = 2 ** 18


@dataclass(frozen=True)
class ChebyshevWitness:
    """Optimal multiset (point indices, sorted) and the extremal point of L."""

    points: tuple[int, ...]
    extremal: int


@dataclass(frozen=True)
class ChebyshevTable:
    """Per-order constants: row n holds M_n, the dual constant, witnesses.

    Orders whose enumeration would exceed the cap are listed in ``skipped``
    rather than raising, so a table can accompany a report for any space.
    """

    n_values: tuple[int, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    lower_witnesses: tuple[ChebyshevWitness, ...]
    upper_witnesses: tuple[ChebyshevWitness, ...]
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
                ) -> tuple[float, ChebyshevWitness, float, ChebyshevWitness]:
    """Both order-n constants with their witnesses, from one pass over the multisets.

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


def _scan(space: KernelSpace, pair: SubsetPair, n: int
          ) -> tuple[float, ChebyshevWitness, float, ChebyshevWitness]:
    """Both order-n constants and witnesses; on a transitive space (see the
    module docstring) only the multisets that contain point 0 are formed."""
    H, L = pair.H, pair.L
    # Column i holds the kernel from H[i] to every point of L.  L leads, so the
    # reductions over L run elementwise across contiguous slabs.
    cols = np.ascontiguousarray(space.kernel[np.ix_(L, H)])
    anchored = _transitive(space, pair, n)
    # The anchored pass forms the rest of each multiset after a first term 0.
    order, offset = (n - 1, 0.0 + cols[:, :1]) if anchored else (n, None)
    # counts[j][x]: multisets of order j with largest index at most x.
    counts = [np.ones(len(H), dtype=np.int64)]
    for _ in range(order - 2):
        counts.append(np.cumsum(counts[-1]))
    lo = hi = None
    for sums, invalid, locate in _blocks(cols, order, counts, offset):
        # Divide before comparing: sums that differ can tie once divided by n.
        inner = sums.min(axis=0)
        inner /= n
        if invalid is not None:
            inner[invalid] = -np.inf
        lo = _keep(lo, inner, locate, larger=True)
        inner = sums.max(axis=0)
        inner /= n
        if invalid is not None:
            inner[invalid] = np.inf
        hi = _keep(hi, inner, locate, larger=False)
    head = (0,) if anchored else ()
    return (lo[0], _witness(cols, pair, head + _multiset(counts, lo[1]), dual=False),
            hi[0], _witness(cols, pair, head + _multiset(counts, hi[1]), dual=True))


def _transitive(space: KernelSpace, pair: SubsetPair, n: int) -> bool:
    """Whether the order-n pass may form only the multisets that contain
    point 0 and still give the full pass's constants and witnesses to the bit.

    That needs n >= 2, the full pair of at least two points, and a kernel
    exactly invariant under a group of index permutations that acts
    transitively and keeps every sum's rounding:

    - the cyclic shift i -> i + 1 (mod m).  Shifting a multiset down by its
      smallest index keeps its indices in order, so from the shifted points
      it has the same sums, term by term; the lexicographically smallest
      optimizer thus contains 0.
    - for m = 2^d, every XOR translation i -> i ^ 2^e, on a kernel of
      integers whose sums of n entries stay within 2^53.  XOR reorders the
      terms of a sum, which only exact sums do not feel.

    Only views of the kernel are compared; no m x m index array or copy is
    built.
    """
    m = space.m
    if n < 2 or m < 2 or pair != SubsetPair.full(m):
        return False
    return n <= space.memo(("transitive",), lambda: _anchored_orders(space.kernel))


def _anchored_orders(k: np.ndarray) -> float:
    """The largest order whose pass may anchor at point 0, 0 for none."""
    if _cyclic(k):
        return math.inf
    # an XOR-invariant kernel holds K[i, j] = K[0, i ^ j]: row 0 has every entry
    if not _xor(k) or not np.array_equal(k[0], np.floor(k[0])):
        return 0
    return 2.0 ** 53 // max(1.0, float(k[0].max()))


def _cyclic(k: np.ndarray) -> bool:
    """K[i + 1, j + 1] == K[i, j] for all i, j, indices mod m.

    The pairs (i + t, j + t) form cycles, one relation per step, and each
    cycle has one step from column m - 1 to column 0.  Equality along all
    other steps implies it there too, so those steps are not compared.
    """
    return (np.array_equal(k[1:, 1:], k[:-1, :-1])
            and np.array_equal(k[0, 1:], k[-1, :-1]))


def _xor(k: np.ndarray) -> bool:
    """K[i ^ p, j ^ p] == K[i, j] for all i, j and every power of two p < m."""
    m = k.shape[0]
    if m & (m - 1):
        return False
    p = 1
    while p < m:
        a = m // (2 * p)
        # index i = (x * 2 + y) * p + z, and i ^ p flips y
        blocks = k.reshape(a, 2, p, a, 2, p)
        if not np.array_equal(blocks, blocks[:, ::-1, :, :, ::-1, :]):
            return False
        p *= 2
    return True


def _keep(best, inner: np.ndarray, locate, larger: bool):
    """The better of ``best`` and this block's optimum, as ``(value, key)``.

    Blocks do not come in lexicographic order, so an exact tie goes to the
    smaller key, which orders multisets lexicographically: the first
    optimizer of a scan in lexicographic order.
    """
    first = int(inner.argmax() if larger else inner.argmin())
    value = float(inner.flat[first])
    if best is not None and (value < best[0] if larger else value > best[0]):
        return best
    key = locate(inner, first)
    if best is None or value != best[0] or key < best[1]:
        return value, key
    return best


def _blocks(cols: np.ndarray, n: int, counts: list, offset: Optional[np.ndarray] = None):
    """Kernel sums of all order-n multisets, in blocks of bounded size.

    Yields ``(sums, invalid, locate)``.  ``sums`` holds L on its first axis;
    ``invalid`` is ``None`` or masks the cells of ``sums[0]`` that are no
    multiset; ``locate(inner, first)`` maps a reduction ``inner`` of ``sums``
    over L and the flat position of its first optimum to the key
    (``_multiset``) of the lexicographically smallest multiset whose cell
    ties with it.  Every sum accumulates left to right from 0.0,
    ``((0 + k_a1) + k_a2) + ... + k_an``, or from the column ``offset``
    (|L| x 1) in place of 0.0.

    The sums of order k = n - 2 sit in a table in colex order (by largest
    index first), so those with largest index at most b are its first
    ``counts[k][b]`` columns.  For each second-largest index b, one broadcast
    add forms ``(T[q] + k_b) + k_c`` for every such prefix q and every
    c >= b.  Consecutive b merge into one masked block while it fits; a b too
    large for one block splits along q and c.  A table larger than
    ``_CHUNK_CELLS`` is replaced by the largest order that fits, and each
    chunk of prefixes is filled from it (``_fill``).  In a merged block the
    cells with c < b hold no multiset; for order 2 from 0.0 they hold the sum
    of (c, b) exactly, since ``k_b + k_c == k_c + k_b``, and stay unmasked,
    but after an ``offset`` they are masked like the rest.
    """
    n_l, h = cols.shape
    # Blocks get a quarter of the budget: at 2**17 cells they raised the peak
    # RSS of a random(40) analysis by 1.3 MB, at 2**16 not measurably.
    budget = max(1, _CHUNK_CELLS // 4)
    if n == 1:
        width = max(1, budget // n_l)
        for c0 in range(0, h, width):
            # positions follow the index, so the first optimum is the smallest
            yield ((0.0 if offset is None else offset) + cols[:, c0:c0 + width], None,
                   lambda inner, first, c0=c0: (c0 + first,))
        return
    k = n - 2
    t = 0
    while t < k and n_l * int(counts[t + 1][-1]) <= _CHUNK_CELLS:
        t += 1
    table = _colex_table(cols, t, counts, offset)
    lex = _lex_ranks(counts, np.arange(table.shape[1])) if t == k else None
    last = counts[k]
    b = 0
    while b < h:
        b1 = b + 1
        if t == k:
            while b1 < h and n_l * (b1 + 1 - b) * int(last[b1]) * (h - b) <= budget:
                b1 += 1
        if b1 > b + 1:
            nq, nc = int(last[b1 - 1]), h - b
            heads = table[:, None, :nq] + cols[:, b:b1, None]
            # Cells with q >= counts[k][b] or c < b hold no multiset.  For
            # order 2 from 0.0 a cell (b, c) with c < b holds the sum of (c, b)
            # exactly, because addition commutes, so it needs no mask.
            invalid = None if k == 0 and offset is None else (
                (np.arange(nq) >= last[b:b1, None])[:, :, None]
                | (np.arange(nc) < np.arange(b1 - b)[:, None])[:, None, :])
            yield (heads[:, :, :, None] + cols[:, None, None, b:], invalid,
                   _locator(counts, lex, (b1 - b, nq, nc), b, 0, b, False, True))
        else:
            nq, nc = int(last[b]), h - b
            width = max(1, min(nc, budget // n_l))
            rows = max(1, budget // (n_l * width))
            for r0 in range(0, nq, rows):
                r1 = min(r0 + rows, nq)
                prefix = table[:, r0:r1] if t == k else _fill(cols, table, t, counts, k, r0, r1)
                heads = prefix + cols[:, b, None]
                for c0 in range(b, h, width):
                    c1 = min(c0 + width, h)
                    # the longer axis goes innermost, where numpy's loops run
                    q_last = r1 - r0 >= c1 - c0
                    if q_last:
                        sums = heads[:, None, None, :] + cols[:, None, c0:c1, None]
                    else:
                        sums = heads[:, None, :, None] + cols[:, None, None, c0:c1]
                    yield sums, None, _locator(counts, lex, sums.shape[1:], b, r0, c0,
                                               q_last, False)
        b = b1


def _colex_table(cols: np.ndarray, t: int, counts: list,
                 offset: Optional[np.ndarray] = None) -> np.ndarray:
    """Sums of all order-t multisets in colex order, one column each, built
    one order at a time, starting from ``offset`` (|L| x 1) or 0.0."""
    start = np.zeros((cols.shape[0], 1)) if offset is None else offset
    table = start if t == 0 else start + cols
    for j in range(2, t + 1):
        table = _fill(cols, table, j - 1, counts, j, 0, int(counts[j][-1]))
    return table


def _fill(cols: np.ndarray, table: np.ndarray, t: int, counts: list, k: int,
          r0: int, r1: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sums of the order-k multisets of colex ranks r0..r1-1, from the order-t table.

    The multisets with largest index x are those of order k - 1 with largest
    index at most x, plus x; their sums add ``k_x`` last.
    """
    if out is None:
        out = np.empty((cols.shape[0], r1 - r0))
    if k == t:
        out[...] = table[:, r0:r1]
        return out
    x = int(np.searchsorted(counts[k], r0, side="right"))
    pos = 0
    while r0 < r1:
        end, size = int(counts[k][x]), int(counts[k - 1][x])
        stop = min(end, r1)
        part = out[:, pos:pos + stop - r0]
        _fill(cols, table, t, counts, k - 1, r0 - (end - size), stop - (end - size), part)
        part += cols[:, x, None]
        pos += stop - r0
        r0 = stop
        x += 1
    return out


def _locator(counts: list, lex: Optional[np.ndarray], shape: tuple, b0: int, r0: int,
             c0: int, q_last: bool, merged: bool):
    """``locate`` of a block with axes (b, q, c), or (b, c, q) with ``q_last``;
    its keys are ``(lex rank of the prefix, b, c, colex rank of the prefix)``."""
    def locate(inner: np.ndarray, first: int) -> tuple[int, int, int, int]:
        if len(counts) == 1:
            # Order 2: the first optimum is the smallest multiset.  Its cells
            # run in lexicographic order, and a cell (b, c) with c < b has its
            # twin (c, b) in an earlier row of the same block.
            j, _, c = np.unravel_index(first, shape)
            return 0, b0 + int(j), c0 + int(c), 0
        pos = np.flatnonzero(inner == inner.flat[first])
        j, q, c = np.unravel_index(pos, shape)
        if q_last:
            q, c = c, q
        b, rank, c = b0 + j, r0 + q, c0 + c
        if merged:
            keep = (rank < counts[-1][b]) & (c >= b)
            b, rank, c = b[keep], rank[keep], c[keep]
        order = lex[rank] if lex is not None else _lex_ranks(counts, rank)
        i = np.lexsort((c, b, order))[0]
        return int(order[i]), int(b[i]), int(c[i]), int(rank[i])
    return locate


def _unrank(counts: list, ranks):
    """Indices a_1 <= ... <= a_k of the order-k multisets of these colex ranks
    (an array each, or a scalar each for a scalar rank), k = len(counts) - 1."""
    indices = []
    for i in range(len(counts) - 1, 0, -1):
        # the largest index x is the first with more multisets up to x than the rank
        x = np.searchsorted(counts[i], ranks, side="right")
        indices.append(x)
        ranks = ranks - (counts[i][x] - counts[i - 1][x])
    return indices[::-1]


def _lex_ranks(counts: list, ranks: np.ndarray) -> np.ndarray:
    """Lexicographic ranks of the order-k multisets of these colex ranks.

    Before a multiset a come those that agree with it up to a_(i-1) and
    have a smaller i-th index; with m = k - i indices left, ending in
    x >= a_(i-1), they number C(h - x + m, m + 1) summed over x from a_(i-1)
    to a_i - 1 (hockey stick), i.e. ``counts[m + 1][h - 1 - x]`` differences.
    """
    k, h = len(counts) - 1, len(counts[0])
    lex = np.zeros(len(ranks), dtype=np.int64)
    prev = np.zeros(len(ranks), dtype=np.int64)
    for i, a in enumerate(_unrank(counts, ranks), start=1):
        tail = counts[k - i + 1]
        lex += tail[h - 1 - prev] - tail[h - 1 - a]
        prev = a
    return lex


def _multiset(counts: list, key: tuple) -> tuple[int, ...]:
    """The multiset of a key from ``_blocks``: ``(c,)`` or ``(lex, b, c, rank)``."""
    if len(key) == 1:
        return key
    _, b, c, rank = key
    return tuple(int(a) for a in _unrank(counts, rank)) + (b, c)


def _prefix_sum(cols: np.ndarray, multiset: tuple[int, ...]) -> np.ndarray:
    total = np.zeros(cols.shape[0])
    for a in multiset:
        total = total + cols[:, a]
    return total


def _witness(cols: np.ndarray, pair: SubsetPair, multiset: tuple[int, ...],
             dual: bool) -> ChebyshevWitness:
    avg = _prefix_sum(cols, multiset) / len(multiset)
    row = int(np.argmax(avg)) if dual else int(np.argmin(avg))
    return ChebyshevWitness(points=tuple(pair.H[i] for i in multiset), extremal=pair.L[row])


def chebyshev_n(space: KernelSpace, pair: SubsetPair, n: int,
                cap: Optional[int] = None) -> tuple[float, ChebyshevWitness]:
    """Order-n constant: best multiset of H for the worst (smallest) view from L."""
    lo, witness, _, _ = _order_pass(space, pair, n, cap)
    return lo, witness


def dual_chebyshev_n(space: KernelSpace, pair: SubsetPair, n: int,
                     cap: Optional[int] = None) -> tuple[float, ChebyshevWitness]:
    """Dual order-n constant: best multiset of H for the largest view from L."""
    _, _, hi, witness = _order_pass(space, pair, n, cap)
    return hi, witness


def rendezvous_n(space: KernelSpace, pair: SubsetPair, n: int,
                 cap: Optional[int] = None) -> ValueInterval:
    """Order-n interval between the constant and its dual; may be empty."""
    lo, _, hi, _ = _order_pass(space, pair, n, cap)
    if lo > hi + TIE_TOL:
        return ValueInterval(lo, hi, empty=True)
    return ValueInterval(min(lo, hi), max(lo, hi))


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
    return max(p[0] for p in passes), min(p[2] for p in passes)


def chebyshev_table(space: KernelSpace, pair: SubsetPair, n_max: int,
                    cap: Optional[int] = None) -> ChebyshevTable:
    """Table of orders 1..n_max, skipping orders whose scan would blow the cap."""
    check_n_max(n_max)
    limit = _enum_limit(cap)
    ns, lows, highs, lw, uw, skipped = [], [], [], [], [], []
    for n in range(1, n_max + 1):
        if multiset_count(len(pair.H), n) > limit:
            skipped.append(n)
            continue
        lo, wl, hi, wu = _order_pass(space, pair, n, limit)
        ns.append(n)
        lows.append(lo)
        highs.append(hi)
        lw.append(wl)
        uw.append(wu)
    return ChebyshevTable(
        n_values=tuple(ns),
        lower=tuple(lows),
        upper=tuple(highs),
        lower_witnesses=tuple(lw),
        upper_witnesses=tuple(uw),
        skipped=tuple(skipped),
    )
