"""Chebyshev-type constants of order n by exact multiset enumeration.

The order-n constant maximizes, over size-n multisets from H, the smallest
averaged kernel sum seen from L; the dual constant minimizes the largest
one.  One pass over all multisets (combinations with replacement) yields
both, with a hard cap on the enumeration size.  The pass keeps the sums of
order n - 2 in a table ordered by largest index (colex), and forms every
sum with second-largest index b by one broadcast add over the table's first
columns and the indices c >= b; no multiset tuples or index arrays are
built.  The table and every block of sums stay within ``_CHUNK_CELLS``
float64 cells.  The pass computes the two constants only.  A witness, the
lexicographically smallest optimizer, is searched for when
``chebyshev_n`` or ``dual_chebyshev_n`` asks for one (``_search``).

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


def _scan(space: KernelSpace, pair: SubsetPair, n: int) -> tuple[float, float]:
    """Both order-n constants; on a transitive space (see the module
    docstring) only the multisets that contain point 0 are formed."""
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
    lo, hi = -math.inf, math.inf
    for sums, invalid in _blocks(cols, order, counts, offset):
        # Divide before comparing: sums that differ can tie once divided by n.
        low = sums.min(axis=0)
        low /= n
        high = sums.max(axis=0)
        high /= n
        if invalid is not None:
            low[invalid] = -np.inf
            high[invalid] = np.inf
        lo = max(lo, float(low.max()))
        hi = min(hi, float(high.min()))
    return lo, hi


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


def _blocks(cols: np.ndarray, n: int, counts: list, offset: Optional[np.ndarray] = None):
    """Kernel sums of all order-n multisets, in blocks of bounded size.

    Yields ``(sums, invalid)``.  ``sums`` holds L on its first axis;
    ``invalid`` is ``None`` or masks the cells of ``sums[0]`` that are no
    multiset.  Every sum accumulates left to right from 0.0,
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
            yield (0.0 if offset is None else offset) + cols[:, c0:c0 + width], None
        return
    k = n - 2
    t = 0
    while t < k and n_l * int(counts[t + 1][-1]) <= _CHUNK_CELLS:
        t += 1
    table = _colex_table(cols, t, counts, offset)
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
            yield heads[:, :, :, None] + cols[:, None, None, b:], invalid
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
                    if r1 - r0 >= c1 - c0:
                        yield heads[:, None, :] + cols[:, c0:c1, None], None
                    else:
                        yield heads[:, :, None] + cols[:, None, c0:c1], None
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
    lo, hi = _order_pass(space, pair, n, cap)
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
