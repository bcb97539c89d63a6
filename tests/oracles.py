"""Independent reference computations used to check the library's answers.

Everything here is deliberately written with different algorithms than the
package: brute-force grids over the probability simplex instead of LPs,
pure-Python tuple scans, the old itertools scan and the prefix-loop pass
instead of the colex-table multiset pass, one KKT solve per support instead
of stacked solves, a simplex that makes its choices with numpy calls instead
of on Python floats, random sum-zero probes instead of eigendecompositions,
and closed forms / quadrature for the classical spaces.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from rdv.chebyshev import ChebyshevWitness, DEFAULT_ENUM_CAP, multiset_count
from rdv.core import (
    DimensionMismatchError,
    DisconnectedAfterRetriesError,
    EnumerationCapExceededError,
    NumericalBreakdownError,
)
from rdv.optimize import _REFRESH, LE, _fw_gap, _polish_support
from rdv.spaces import _MAX_GRAPH_RETRIES, _floyd_warshall
from rdv.tolerances import (
    DUAL_TOL,
    GAP_TOL,
    PIVOT_TOL,
    PRIMAL_TOL,
    RATIO_TIE_TOL,
    RATIO_TOL,
    STOP_TOL,
)


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


# The prefix-loop scan that computed both order-n constants in one pass
# before the colex table and its broadcast blocks replaced it; kept verbatim
# (names aside) as the bit-for-bit differential reference.
PREFIX_LOOP_CHUNK_CELLS = 4_000_000


def chebyshev_prefix_loop(space, pair, n: int):
    """(M_n, witness, dual M_n, witness) by one pass with a Python loop over
    every order-(n - 2) prefix; no cap check."""
    H, L = pair.H, pair.L
    # Row i holds the kernel from H[i] to every point of L.
    rows = np.ascontiguousarray(space.kernel[np.ix_(L, H)].T)
    # The two gathered operands of a chunk share the cell budget.
    chunk = max(1, PREFIX_LOOP_CHUNK_CELLS // (2 * len(L)))
    lo = hi = None
    for prefix, tails, sums in _prefix_loop_chunks(rows, n, chunk):
        # Divide before comparing: sums that differ can tie once divided by n.
        inner = sums.min(axis=1) / n
        j = int(np.argmax(inner))
        if lo is None or inner[j] > lo[0]:
            lo = (float(inner[j]), prefix + tuple(int(t[j]) for t in tails))
        inner = sums.max(axis=1) / n
        j = int(np.argmin(inner))
        if hi is None or inner[j] < hi[0]:
            hi = (float(inner[j]), prefix + tuple(int(t[j]) for t in tails))
    return (lo[0], _prefix_loop_witness(rows, pair, lo[1], dual=False),
            hi[0], _prefix_loop_witness(rows, pair, hi[1], dual=True))


def _prefix_loop_chunks(rows: np.ndarray, n: int, chunk: int):
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
        heads = _prefix_loop_sum(rows, prefix) + rows[last:]
        # pairs with b < last precede the first pair (last, last)
        for s in range(last * h - last * (last - 1) // 2, b_all.size, chunk):
            b, c = b_all[s:s + chunk], c_all[s:s + chunk]
            sums = heads[b - last]
            sums += rows[c]
            yield prefix, (b, c), sums


def _prefix_loop_sum(rows: np.ndarray, multiset: tuple[int, ...]) -> np.ndarray:
    total = np.zeros(rows.shape[1])
    for a in multiset:
        total = total + rows[a]
    return total


def _prefix_loop_witness(rows: np.ndarray, pair, multiset: tuple[int, ...],
                         dual: bool) -> ChebyshevWitness:
    avg = _prefix_loop_sum(rows, multiset) / len(multiset)
    row = int(np.argmax(avg)) if dual else int(np.argmin(avg))
    return ChebyshevWitness(points=tuple(pair.H[i] for i in multiset), extremal=pair.L[row])


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


def enumerate_supports_loop(Q: np.ndarray, sign: float):
    """Exact extremum via stationary points of every support, plus vertices.

    The one-support-at-a-time loop that ``optimize._enumerate_supports`` ran
    before it solved each support size as stacked systems; kept verbatim as
    the differential reference for measure, value and notes.
    """
    h = Q.shape[0]
    M = sign * Q
    best_w = None
    best_val = math.inf
    notes = []
    skipped = 0
    for size in range(1, h + 1):
        for subset in itertools.combinations(range(h), size):
            support = np.array(subset, dtype=int)
            w = _polish_support(M, support, h)
            if w is None:
                skipped += 1
                continue
            val = float(w @ M @ w)
            if val < best_val - 1e-15:
                best_w, best_val = w, val
            elif abs(val - best_val) <= 1e-12 and best_w is not None and tuple(w) < tuple(best_w):
                best_w = w
    if skipped:
        notes.append(f"skipped {skipped} singular or infeasible support systems")
    return best_w, sign * best_val, tuple(notes)


def away_fw_loop(M: np.ndarray, gap_tol: float, max_iter: int, polish,
                 start: np.ndarray | None = None):
    """Away-step Frank-Wolfe with exact line search for min v' M v on the simplex.

    Returns (v, gap, iterations).  Every 32 iterations, and once more at
    the end, ``polish(support)`` solves the stationarity system on the
    current support exactly; if the polished point is feasible and closes
    the gap it is returned directly.  At ``max_iter`` the final polish is
    of the best iterate seen.

    The single-start loop that ``optimize`` ran on the certified route
    before ``optimize._away_fw_block`` became its only loop; kept verbatim
    as the differential reference for the block loop's columns.
    """
    h = M.shape[0]
    v = np.full(h, 1.0 / h) if start is None else start.copy()
    best = v
    best_val = float(v @ M @ v)
    for it in range(max_iter):
        g = 2.0 * (M @ v)
        gv = float(g @ v)
        s = int(np.argmin(g))
        gap = gv - g[s]
        if gap <= gap_tol:
            return v, gap, it
        if it % 32 == 0:
            support = np.flatnonzero(v > 1e-12)
            w = polish(support)
            if w is not None and _fw_gap(M, w) <= gap_tol:
                return w, _fw_gap(M, w), it
        support = np.flatnonzero(v > 0.0)
        a_local = support[int(np.argmax(g[support]))]
        decrease_fw = gap
        decrease_aw = float(g[a_local] - gv)
        use_away = decrease_aw > decrease_fw and v[a_local] < 1.0
        if use_away:
            d = v.copy()
            d[a_local] -= 1.0
            alpha = v[a_local]
            gamma_max = alpha / (1.0 - alpha)
        else:
            d = -v.copy()
            d[s] += 1.0
            gamma_max = 1.0
        slope = float(g @ d)
        curv = float(d @ M @ d)
        if curv > 0.0:
            gamma = min(max(-slope / (2.0 * curv), 0.0), gamma_max)
        else:
            gamma = gamma_max
        if gamma <= 0.0:
            gamma = gamma_max if slope < 0 else 0.0
            if gamma == 0.0:
                return v, gap, it
        v = v + gamma * d
        if use_away and gamma >= gamma_max:
            v[a_local] = 0.0
        if not use_away and gamma >= 1.0:
            v = np.zeros(h)
            v[s] = 1.0
        np.clip(v, 0.0, None, out=v)
        if it % 256 == 255:
            v /= v.sum()
        val = float(v @ M @ v)
        if val < best_val:
            best, best_val = v, val
    support = np.flatnonzero(best > 1e-12)
    w = polish(support)
    if w is not None and float(w @ M @ w) <= best_val + 1e-15:
        best = w
    return best, _fw_gap(M, best), max_iter


# The revised simplex that ``optimize`` ran before its choices moved onto
# Python floats, kept verbatim (class name aside) with its standard form,
# its optimum recovery and its certificate, as the differential reference
# for ``optimize.solve_lp``: every choice here is made with numpy calls.


class _ReferenceSimplex:
    """Revised primal simplex on standard-form data (A x = b, x >= 0) from a feasible basis."""

    def __init__(self, A: np.ndarray, b: np.ndarray, basis: tuple[int, ...],
                 refresh: int = _REFRESH, bland_from_start: bool = False):
        self.A = A
        self.b = b
        self.rows = A.shape[0]
        self.cols = A.shape[1]
        self.basis = np.array(basis, dtype=int)
        self.pivots = 0
        # long degenerate paths on large bases need tighter drift control
        self.refresh = min(refresh, 16) if self.rows > 128 else refresh
        self.bland_from_start = bland_from_start
        self.refactor()
        low = float(np.min(self.x_basic(), initial=0.0))
        if low < -PRIMAL_TOL:
            raise NumericalBreakdownError(
                f"starting basis is infeasible: a basic value is {low:.3e}")

    def refactor(self) -> None:
        try:
            self.B_inv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError("simplex basis matrix is singular") from exc

    def x_basic(self) -> np.ndarray:
        return self.B_inv @ self.b

    def _leave_row(self, d: np.ndarray, xb: np.ndarray, blands: bool) -> int:
        """Ratio test.  Drift-negative basic values are clamped to zero so the
        walk cannot leave the feasible region."""
        pos = np.flatnonzero(d > RATIO_TOL)
        if pos.size == 0:
            raise NumericalBreakdownError("empty ratio test: no row bounds the entering column")
        ratios = np.maximum(xb[pos], 0.0) / d[pos]
        best = float(np.min(ratios))
        tied = pos[ratios <= best + RATIO_TIE_TOL * (1.0 + abs(best))]
        if blands:
            return int(tied[np.argmin(self.basis[tied])])
        # favor the largest pivot element for numerical stability
        return int(tied[np.argmax(d[tied])])

    def run(self, c: np.ndarray) -> None:
        """Pivot until no column prices out below ``-STOP_TOL``."""
        dantzig_limit = 10 * (self.rows + self.cols)
        hard_cap = 200 * (self.rows + self.cols) + 10_000
        fresh = True  # __init__ has just factorized the basis
        while True:
            if self.pivots > hard_cap:
                raise NumericalBreakdownError(
                    f"simplex exceeded {hard_cap} pivots without converging"
                )
            y = c[self.basis] @ self.B_inv
            reduced = c - y @ self.A
            candidates = np.flatnonzero(reduced < -STOP_TOL)
            if candidates.size == 0:
                if fresh:
                    if float(self.x_basic().min()) < -10 * PIVOT_TOL:
                        raise NumericalBreakdownError(
                            "simplex lost primal feasibility on a degenerate path")
                    return
                # confirm optimality against a freshly factorized basis
                self.refactor()
                fresh = True
                continue
            blands = self.bland_from_start or self.pivots > dantzig_limit
            if blands:
                order = candidates  # Bland's rule: lowest eligible index first
            else:
                order = candidates[np.argsort(reduced[candidates], kind="stable")]
            xb = self.x_basic()
            # scan a few entering candidates for one with a sound pivot element
            enter = leave_row = None
            best_piv = 0.0
            for cand in order[:16]:
                d_cand = self.B_inv @ self.A[:, cand]
                row = self._leave_row(d_cand, xb, blands)
                piv = abs(d_cand[row])
                if piv > best_piv:
                    enter, leave_row, d, best_piv = int(cand), row, d_cand, piv
                if piv >= PIVOT_TOL:
                    break
            if best_piv < PIVOT_TOL and not fresh:
                # suspiciously small pivots everywhere: refresh and retry
                self.refactor()
                fresh = True
                continue
            # elementary row update of the basis inverse
            fresh = False
            pivot_row = self.B_inv[leave_row] / d[leave_row]
            self.B_inv -= np.outer(d, pivot_row)
            self.B_inv[leave_row] = pivot_row
            self.basis[leave_row] = enter
            self.pivots += 1
            if self.pivots % self.refresh == 0:
                self.refactor()
                fresh = True


class _CountedReference(_ReferenceSimplex):
    """The reference loop, counting its basis inversions."""

    refactorizations = 0

    def refactor(self) -> None:
        self.refactorizations += 1
        super().refactor()


def simplex_reference(lp) -> dict:
    """Solve ``lp`` (an ``optimize.LinearProgram``) as ``solve_lp`` did with the loop above.

    Returns x, y, objective, pivots, refactorizations, retried and the final
    basis of the solve that returned them; a failed first solve is retried
    once in safe mode (refresh 8, Bland's rule throughout).
    """
    slack_rows = np.flatnonzero([s == LE for s in lp.senses])
    slack = np.zeros((lp.shape[0], slack_rows.size))
    slack[slack_rows, np.arange(slack_rows.size)] = 1.0
    A_std = np.hstack([lp.A, slack])
    c_std = np.concatenate([lp.c, np.zeros(slack_rows.size)])

    def optimum(sx, retried):
        sx.run(c_std)
        B = sx.A[:, sx.basis]
        x_std = np.zeros(sx.cols)
        x_std[sx.basis] = np.linalg.solve(B, lp.b)
        x = x_std[:lp.shape[1]] + 0.0
        y = np.linalg.solve(B.T, c_std[sx.basis])
        objective = float(lp.c @ x)
        _reference_certify(lp, x, y, objective)
        return dict(x=x, y=y, objective=objective, pivots=sx.pivots,
                    refactorizations=sx.refactorizations, retried=retried,
                    basis=tuple(sx.basis.tolist()))

    first = _CountedReference(A_std, lp.b, lp.basis)
    try:
        return optimum(first, retried=False)
    except NumericalBreakdownError:
        safe = _CountedReference(A_std, lp.b, lp.basis, refresh=8, bland_from_start=True)
        return optimum(safe, retried=True)


def _reference_certify(lp: LinearProgram, x: np.ndarray, y: np.ndarray, objective: float) -> None:
    """KKT certificate recomputed from the original data, absolute tolerances."""
    le = np.array([s == LE for s in lp.senses], dtype=bool)
    r = lp.A @ x - lp.b
    bad = np.flatnonzero(np.where(le, r > PRIMAL_TOL, np.abs(r) > PRIMAL_TOL))
    if bad.size:
        i = bad[0]
        raise NumericalBreakdownError(f"primal residual {r[i]:.3e} on row {i} ({lp.senses[i]})")
    bad = np.flatnonzero(le & (y > DUAL_TOL))
    if bad.size:
        i = bad[0]
        raise NumericalBreakdownError(f"dual sign violation {y[i]:.3e} on row {i} (<=)")
    if np.any(x < -PRIMAL_TOL):
        raise NumericalBreakdownError("bound violation in primal solution")

    # reduced costs: nonnegative where x sits at its zero bound, zero elsewhere
    z = lp.c - lp.A.T @ y
    at_zero = x <= 10 * PRIMAL_TOL
    bad = np.flatnonzero(np.where(at_zero, z < -DUAL_TOL, np.abs(z) > DUAL_TOL))
    if bad.size:
        j = bad[0]
        where = "at zero" if at_zero[j] else "on interior"
        raise NumericalBreakdownError(f"reduced cost {z[j]:.3e} {where} variable {j}")
    dual_obj = float(lp.b @ y)
    if abs(objective - dual_obj) > GAP_TOL:
        raise NumericalBreakdownError(
            f"duality gap {objective - dual_obj:.3e} exceeds {GAP_TOL:.0e}"
        )


def random_graph_kernel_loop(m: int, edge_prob: float, seed: int) -> np.ndarray:
    """The random-graph distance matrix as drawn before the buffered draws:
    one ``rng.random()`` call per pair and one ``rng.uniform`` per edge;
    kept as the bit-for-bit differential reference."""
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_GRAPH_RETRIES):
        adj = np.full((m, m), np.inf)
        np.fill_diagonal(adj, 0.0)
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < edge_prob:
                    w = 1.0 - rng.uniform(0.0, 0.9)  # uniform on (0.1, 1.0]
                    adj[i, j] = adj[j, i] = w
        dist = _floyd_warshall(adj)
        if np.all(np.isfinite(dist)):
            return dist
    raise DisconnectedAfterRetriesError(
        f"no connected graph on {m} points with edge probability {edge_prob} "
        f"after {_MAX_GRAPH_RETRIES} draws (seed {seed})"
    )
