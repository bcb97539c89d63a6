"""Chebyshev-type constants of order n by exact multiset enumeration.

The order-n constant maximizes, over size-n multisets from H, the smallest
averaged kernel sum seen from L; the dual constant minimizes the largest
one.  One pass over all multisets (combinations with replacement) in
lexicographic order yields both, vectorized in chunks of at most
``_CHUNK_CELLS`` float64 cells, with a hard cap on the enumeration size.
Multiset witnesses are the lexicographically smallest optimizers.
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
    SubsetPair,
    TIE_TOL,
    ValueInterval,
)

DEFAULT_ENUM_CAP = 2_000_000
_CHUNK_CELLS = 4_000_000


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


def _order_pass(space: KernelSpace, pair: SubsetPair, n: int, cap: Optional[int]
                ) -> tuple[float, ChebyshevWitness, float, ChebyshevWitness]:
    """Both order-n constants with their witnesses, from one pass over the multisets.

    The pass runs once per space, pair and order; the cap is checked on
    every call.
    """
    if n < 1:
        raise DimensionMismatchError(f"multiset order must be at least 1, got {n}")
    pair.check_range(space.m)
    limit = DEFAULT_ENUM_CAP if cap is None else int(cap)
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
    H, L = pair.H, pair.L
    # Row i holds the kernel from H[i] to every point of L.
    rows = np.ascontiguousarray(space.kernel[np.ix_(L, H)].T)
    # The two gathered operands of a chunk share the cell budget.
    chunk = max(1, _CHUNK_CELLS // (2 * len(L)))
    lo = hi = None
    for prefix, tails, sums in _sum_chunks(rows, n, chunk):
        # Divide before comparing: sums that differ can tie once divided by n.
        inner = sums.min(axis=1) / n
        j = int(np.argmax(inner))
        if lo is None or inner[j] > lo[0]:
            lo = (float(inner[j]), prefix + tuple(int(t[j]) for t in tails))
        inner = sums.max(axis=1) / n
        j = int(np.argmin(inner))
        if hi is None or inner[j] < hi[0]:
            hi = (float(inner[j]), prefix + tuple(int(t[j]) for t in tails))
    return (lo[0], _witness(rows, pair, lo[1], dual=False),
            hi[0], _witness(rows, pair, hi[1], dual=True))


def _sum_chunks(rows: np.ndarray, n: int, chunk: int):
    """Kernel sums of all order-n multisets, in lexicographic order.

    Yields ``(prefix, tails, sums)``: row j of ``sums`` belongs to the multiset
    ``prefix + (t[j] for t in tails)``.  Every sum accumulates left to right
    from 0.0, ``((0 + k_a1) + k_a2) + ... + k_an``, like numpy's own sum over
    fewer than eight terms.  For each prefix of order n - 2 the sums with the
    next index b are formed once; the pairs b <= c then add ``k_c``, at most
    ``chunk`` multisets at a time.
    """
    h = rows.shape[0]
    if n == 1:
        for s in range(0, h, chunk):
            c = np.arange(s, min(s + chunk, h))
            yield (), (c,), 0.0 + rows[c]
        return
    b_all, c_all = np.triu_indices(h)
    for prefix in itertools.combinations_with_replacement(range(h), n - 2):
        last = prefix[-1] if prefix else 0
        heads = _prefix_sum(rows, prefix) + rows[last:]
        # pairs with b < last precede the first pair (last, last)
        for s in range(last * h - last * (last - 1) // 2, b_all.size, chunk):
            b, c = b_all[s:s + chunk], c_all[s:s + chunk]
            sums = heads[b - last]
            sums += rows[c]
            yield prefix, (b, c), sums


def _prefix_sum(rows: np.ndarray, multiset: tuple[int, ...]) -> np.ndarray:
    total = np.zeros(rows.shape[1])
    for a in multiset:
        total = total + rows[a]
    return total


def _witness(rows: np.ndarray, pair: SubsetPair, multiset: tuple[int, ...],
             dual: bool) -> ChebyshevWitness:
    avg = _prefix_sum(rows, multiset) / len(multiset)
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
    limit = DEFAULT_ENUM_CAP if cap is None else int(cap)
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
