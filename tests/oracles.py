"""Independent reference computations used to check the library's answers.

Everything here is deliberately written with different algorithms than the
package: brute-force grids over the probability simplex instead of LPs,
pure-Python tuple scans and the old itertools scan instead of the
incremental multiset pass, random sum-zero probes instead of
eigendecompositions, and closed forms / quadrature for the classical spaces.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from rdv.chebyshev import ChebyshevWitness, DEFAULT_ENUM_CAP, multiset_count
from rdv.core import DimensionMismatchError, EnumerationCapExceededError


@lru_cache(maxsize=None)
def compositions(parts: int, total: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``."""
    if parts == 1:
        return np.array([[total]], dtype=np.int16)
    blocks = []
    for first in range(total + 1):
        rest = compositions(parts - 1, total - first)
        block = np.empty((rest.shape[0], parts), dtype=np.int16)
        block[:, 0] = first
        block[:, 1:] = rest
        blocks.append(block)
    return np.concatenate(blocks)


def _measure_grid(parts: int, denom: int) -> np.ndarray:
    return compositions(parts, denom).astype(np.float64) / denom


def grid_minimax(kernel: np.ndarray, H, L, denom: int,
                 chunk: int = 500_000) -> tuple[float, float]:
    """Brute-force (q, q_lower) over measures with weights in (1/denom)Z."""
    H, L = list(H), list(L)
    KLH = kernel[np.ix_(L, H)]
    grid = _measure_grid(len(H), denom)
    best_up = math.inf
    best_lo = -math.inf
    for start in range(0, grid.shape[0], chunk):
        part = grid[start:start + chunk]
        pot = part @ KLH.T  # (rows, len(L))
        best_up = min(best_up, float(pot.max(axis=1).min()))
        best_lo = max(best_lo, float(pot.min(axis=1).max()))
    return best_up, best_lo


def grid_energy(kernel: np.ndarray, H, denom: int,
                chunk: int = 500_000) -> tuple[float, float]:
    """Brute-force (min, max) energy over the same measure grid."""
    H = list(H)
    KH = kernel[np.ix_(H, H)]
    grid = _measure_grid(len(H), denom)
    lo = math.inf
    hi = -math.inf
    for start in range(0, grid.shape[0], chunk):
        part = grid[start:start + chunk]
        vals = np.einsum("ij,jk,ik->i", part, KH, part)
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    return lo, hi


def invariance_gap_grid(kernel: np.ndarray, H, L, denom: int) -> float:
    """Brute-force minimal potential oscillation on L over the measure grid."""
    H, L = list(H), list(L)
    KLH = kernel[np.ix_(L, H)]
    grid = _measure_grid(len(H), denom)
    pot = grid @ KLH.T
    return float((pot.max(axis=1) - pot.min(axis=1)).min())


def chebyshev_brute(kernel: np.ndarray, H, L, n: int) -> float:
    """M_n as a pure-Python loop over multisets: max over H^n of min over L."""
    H, L = list(H), list(L)
    best = -math.inf
    for combo in itertools.combinations_with_replacement(H, n):
        worst = min(sum(kernel[x, y] for x in combo) / n for y in L)
        best = max(best, worst)
    return best


def dual_chebyshev_brute(kernel: np.ndarray, H, L, n: int) -> float:
    """The swapped constant: min over H^n of max over L."""
    H, L = list(H), list(L)
    best = math.inf
    for combo in itertools.combinations_with_replacement(H, n):
        worst = max(sum(kernel[x, y] for x in combo) / n for y in L)
        best = min(best, worst)
    return best


# The chunked itertools scan that computed the order-n constants before the
# one-pass incremental scan replaced it; kept as the differential reference.
SCAN_CHUNK_CELLS = 4_000_000


def chebyshev_scan(space, pair, n: int, cap=None, dual: bool = False):
    """(value, witness) of one order-n constant, or of its dual, by the old scan."""
    if n < 1:
        raise DimensionMismatchError(f"multiset order must be at least 1, got {n}")
    pair.check_range(space.m)
    H, L = pair.H, pair.L
    limit = DEFAULT_ENUM_CAP if cap is None else int(cap)
    required = multiset_count(len(H), n)
    if required > limit:
        raise EnumerationCapExceededError(
            f"order {n} over {len(H)} points needs {required} multisets; cap is {limit}",
            cap=limit,
            required=required,
        )
    KH = space.kernel[np.ix_(L, H)]
    chunk_rows = max(1, SCAN_CHUNK_CELLS // (len(L) * n))
    best_val = None
    best_multiset = None
    combos = itertools.combinations_with_replacement(range(len(H)), n)
    while True:
        chunk = list(itertools.islice(combos, chunk_rows))
        if not chunk:
            break
        idx = np.asarray(chunk, dtype=np.intp)
        sums = KH[:, idx].sum(axis=2) / float(n)  # |L| x chunk
        inner = sums.max(axis=0) if dual else sums.min(axis=0)
        j = int(np.argmin(inner)) if dual else int(np.argmax(inner))
        val = float(inner[j])
        better = (best_val is None) or (val < best_val if dual else val > best_val)
        if better:
            best_val = val
            best_multiset = chunk[j]
    sums = KH[:, np.asarray(best_multiset, dtype=np.intp)].sum(axis=1) / float(n)
    row = int(np.argmax(sums)) if dual else int(np.argmin(sums))
    witness = ChebyshevWitness(
        points=tuple(H[i] for i in best_multiset),
        extremal=L[row],
    )
    return best_val, witness


def circle_rendezvous_closed_form(m: int, radius: float = 1.0) -> float:
    """Average chord length from any vertex of the regular m-gon."""
    return radius * (2.0 / m) / math.tan(math.pi / (2 * m))


def circle_limit_by_quadrature() -> float:
    """Average chord length on the unit circle, via numeric quadrature."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: 2.0 * math.sin(t / 2.0), 0.0, 2.0 * math.pi)
    return val / (2.0 * math.pi)


def hypercube_rendezvous(dim: int) -> float:
    """Mean Hamming distance from a fixed vertex to a uniform one."""
    return dim / 2.0


def centered_by_projection(kernel: np.ndarray) -> np.ndarray:
    """P K P with the explicit projection matrix (independent of the
    rank-one update formula used by the package)."""
    m = kernel.shape[0]
    P = np.eye(m) - np.full((m, m), 1.0 / m)
    return P @ kernel @ P


def max_sum_zero_energy_probe(kernel: np.ndarray, trials: int = 400,
                              seed: int = 0) -> float:
    """Largest c^T K c / |c|^2 over random sum-zero probes (lower bound on
    the top centered eigenvalue)."""
    rng = np.random.default_rng(seed)
    m = kernel.shape[0]
    best = -math.inf
    for _ in range(trials):
        c = rng.normal(size=m)
        c -= c.mean()
        nrm = float(c @ c)
        if nrm < 1e-12:
            continue
        best = max(best, float(c @ kernel @ c) / nrm)
    return best
