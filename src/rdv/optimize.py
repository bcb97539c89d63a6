"""Self-contained solvers: dense LP and quadratic optimization on the simplex.

The LP solver takes one form, min c @ x over x >= 0 with ``<=`` and ``=``
rows, which is the form of every level program, together with a feasible
starting basis that the caller supplies.  It is one phase of revised primal
simplex from that basis, with Dantzig pricing that falls back to Bland's
rule for guaranteed termination; there are no artificial columns.  Every
optimal solution is re-certified against the original problem data: primal
feasibility, dual feasibility, and strong duality, at fixed absolute
tolerances.  A solve either returns a certified optimum or raises a typed
error.  Vertex solutions keep exact zeros, which the equilibrium-measure
checks rely on.  Every number a decision or a result reads (the basis
inverse and its row updates, the duals, reduced costs and entering columns,
the final basis solves, the certificate's residuals) is a numpy product;
only the selection made from those numbers (candidates, their order, the
ratio test and its ties, the certificate's checks) runs on Python floats
read with ``tolist``, which on programs of a few rows costs far less than
a numpy call per step.  A solution counts the pivots and the basis
inversions (refactorizations) of the solve that returned it.

Quadratic objectives over the probability simplex are handled by three
routes, picked by the curvature of the kernel on the sum-zero subspace:
a certified conditional-gradient method (away steps, exact line search,
periodic exact solves on the current support), exhaustive stationary-point
enumeration over supports for up to 14 points, and a multistart heuristic
that only claims a bound.  A minimum on a block with a zero diagonal entry,
as on every metric, takes none of them: the kernel is nonnegative, so it
is 0, at that point's Dirac mass.  Nor does the maximum on every point of
a kernel proved of negative type that has an invariant measure
(``potential.invariant_record``, memoized on the space): the energy
is concave on the simplex there, and a measure whose potential is
constant on every point is stationary on the simplex's affine hull, so it
is the global maximum, E = r.  Its Frank-Wolfe gap is computed from the
potential kept with it, and only a gap within the tolerance skips the
route.  Both Frank-Wolfe routes run one loop,
which advances a block of starts with one matrix product per step: the
certified route runs it from the uniform measure alone, and the 32 starts
of a multistart run as one block that shares its exact support solves, so
each distinct support's KKT system is solved once per multistart, not
once per start.  The certified route's exact solve drops the atoms of
negative weight and solves again on the rest (the active-set step of
nonnegative least squares), so it mostly closes the gap at iteration 0.
The enumeration walks the supports level by level and solves each one's
KKT system from its prefix's by bordering, with no factorization; a
support whose verdict the bordered solution's error bound leaves open is
solved by stacked LU.  It then replays the near-best supports one at a
time, so its result is exactly that of solving every support on its own;
one pass per space and subset serves the maximum and the minimum.  Every
space solves its own extrema: a dual kernel C - k built by
``core.dual_kernel`` is a space like any other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    CapExceededError,
    DimensionMismatchError,
    KernelSpace,
    Measure,
    NonFiniteEntryError,
    NumericalBreakdownError,
    SubsetPair,
    check_subset,
)
from .potential import invariant_record
from .spectral import sum_zero_definiteness
from .tolerances import (
    BORDER_TRUST_TOL,
    DUAL_TOL,
    EQUAL_VALUE_TOL,
    GAP_TOL,
    MEASURE_NEG_TOL,
    PIVOT_TOL,
    PRIMAL_TOL,
    QP_GAP_TOL,
    RATIO_TIE_TOL,
    RATIO_TOL,
    REPLAY_BAND_TOL,
    RESID_TOL,
    STOP_TOL,
    SUPPORT_EPS,
    VALUE_TIE_TOL,
    WEIGHT_TOL,
    gamma,
)

LP_SIZE_CAP = 10_000
_REFRESH = 64

QP_MAX_ITER = 100_000
QP_ENUM_LIMIT = 14
_ENUM_CHUNK = 512

LE, EQ = "<=", "="


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimize c @ x over x >= 0 subject to rows A @ x <= b or A @ x = b.

    ``senses[i]`` is ``"<="`` or ``"="``.  ``basis`` is a feasible starting
    basis of the standard form, one column per row: column j < n is x_j and
    column n + k is the slack of the k-th ``<=`` row, in row order.
    """

    c: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray
    basis: tuple[int, ...]

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatchError("constraint matrix must be 2-D")
        rows, cols = A.shape
        if c.shape != (cols,) or b.shape != (rows,) or len(self.senses) != rows:
            raise DimensionMismatchError(
                f"LP shape mismatch: A is {rows}x{cols}, c has {c.size}, "
                f"b has {b.size}, {len(self.senses)} senses"
            )
        for s in self.senses:
            if s not in (LE, EQ):
                raise DimensionMismatchError(f"unknown row sense {s!r}")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise NonFiniteEntryError("LP data must be finite")
        if max(rows, cols) > LP_SIZE_CAP:
            raise CapExceededError(
                f"LP has {rows} rows x {cols} columns; cap is {LP_SIZE_CAP} per dimension"
            )
        basis = tuple(map(int, self.basis))
        std_cols = cols + self.senses.count(LE)
        one_per_row = len(set(basis)) == len(basis) == rows
        if not one_per_row or not all(0 <= j < std_cols for j in basis):
            raise DimensionMismatchError(
                f"basis must list {rows} distinct standard-form columns in [0, {std_cols})"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "basis", basis)

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    @property
    def lower(self) -> np.ndarray:
        """Variable lower bounds: all zero."""
        return np.zeros(self.A.shape[1])

    @property
    def upper(self) -> np.ndarray:
        """Variable upper bounds: all +inf."""
        return np.full(self.A.shape[1], np.inf)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimal LP solution: primal vector, row duals and objective, certified.

    ``pivots`` counts the simplex pivots of the solve that returned it,
    ``refactorizations`` the basis inversions of that solve (the starting
    basis's included), and ``retried`` says whether that solve was the
    safe-mode retry.
    """

    x: np.ndarray
    y: np.ndarray
    objective: float
    pivots: int
    refactorizations: int
    retried: bool


class _Simplex:
    """Revised primal simplex on standard-form data (A x = b, x >= 0) from a feasible basis.

    The basis inverse and every product read from it are numpy arrays; the
    choices made from those products (entering candidates, ratio test, ties)
    run on their ``tolist`` copies, on the same floats.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, basis: tuple[int, ...],
                 refresh: int = _REFRESH, bland_from_start: bool = False):
        self.A = A
        self.b = b
        self.rows = A.shape[0]
        self.cols = A.shape[1]
        self.basis = np.array(basis, dtype=int)
        self.pivots = 0
        self.refactorizations = 0
        # long degenerate paths on large bases need tighter drift control
        self.refresh = min(refresh, 16) if self.rows > 128 else refresh
        self.bland_from_start = bland_from_start
        self.refactor()
        low = min(self.x_basic().tolist(), default=0.0)
        if low < -PRIMAL_TOL:
            raise NumericalBreakdownError(
                f"starting basis is infeasible: a basic value is {low:.3e}")

    def refactor(self) -> None:
        self.refactorizations += 1
        try:
            self.B_inv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError("simplex basis matrix is singular") from exc

    def x_basic(self) -> np.ndarray:
        return self.B_inv @ self.b

    def _leave_row(self, d: list[float], xb: list[float], blands: bool) -> int:
        """Ratio test on the entering column ``d`` and the basic values ``xb``.
        Drift-negative basic values are clamped to zero so the walk cannot
        leave the feasible region."""
        ratios = {i: max(xb[i], 0.0) / di for i, di in enumerate(d) if di > RATIO_TOL}
        if not ratios:
            raise NumericalBreakdownError("empty ratio test: no row bounds the entering column")
        best = min(ratios.values())
        cut = best + RATIO_TIE_TOL * (1.0 + abs(best))
        tied = [i for i, ratio in ratios.items() if ratio <= cut]
        if blands:
            return min(tied, key=self.basis.tolist().__getitem__)
        # favor the largest pivot element for numerical stability
        return max(tied, key=d.__getitem__)

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
            reduced = (c - y @ self.A).tolist()
            candidates = [j for j, r in enumerate(reduced) if r < -STOP_TOL]
            if not candidates:
                if fresh:
                    if min(self.x_basic().tolist()) < -10 * PIVOT_TOL:
                        raise NumericalBreakdownError(
                            "simplex lost primal feasibility on a degenerate path")
                    return
                # confirm optimality against a freshly factorized basis
                self.refactor()
                fresh = True
                continue
            blands = self.bland_from_start or self.pivots > dantzig_limit
            if not blands:
                # Dantzig's rule, most negative first; Bland's keeps the lowest index first
                candidates.sort(key=reduced.__getitem__)
            xb = self.x_basic().tolist()
            # scan a few entering candidates for one with a sound pivot element
            enter = leave_row = None
            best_piv = 0.0
            for cand in candidates[:16]:
                d_cand = self.B_inv @ self.A[:, cand]
                d_list = d_cand.tolist()
                row = self._leave_row(d_list, xb, blands)
                piv = abs(d_list[row])
                if piv > best_piv:
                    enter, leave_row, d, best_piv = cand, row, d_cand, piv
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


def _to_standard_form(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """Equality rows: a +1 slack column per ``<=`` row, after the x columns.

    Returns (A_std, c_std), whose columns are numbered as ``lp.basis`` numbers
    them.
    """
    rows, n = lp.shape
    slack_rows = [i for i, s in enumerate(lp.senses) if s == LE]
    A_std = np.zeros((rows, n + len(slack_rows)))
    A_std[:, :n] = lp.A
    for k, i in enumerate(slack_rows, start=n):
        A_std[i, k] = 1.0
    c_std = np.zeros(n + len(slack_rows))
    c_std[:n] = lp.c
    return A_std, c_std


def _optimum(lp: LinearProgram, sx: _Simplex, c_std: np.ndarray, retried: bool) -> LpSolution:
    """Run ``sx`` to optimality and certify the basis it ends at."""
    sx.run(c_std)
    # recover the primal point and the duals from exact basis solves on the original data
    B = sx.A[:, sx.basis]
    x_std = np.zeros(sx.cols)
    x_std[sx.basis] = np.linalg.solve(B, lp.b)
    x = x_std[:lp.shape[1]] + 0.0  # + 0.0 keeps -0.0 out of x and the reports
    y = np.linalg.solve(B.T, c_std[sx.basis])
    objective = float(lp.c @ x)
    _certify(lp, x, y, objective)
    return LpSolution(x=x, y=y, objective=objective, pivots=sx.pivots,
                      refactorizations=sx.refactorizations, retried=retried)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP from its starting basis; the solution carries certified duals.

    The basis is refactorized first, and a basis that is singular, or whose
    basic values fall below ``-PRIMAL_TOL``, raises
    ``NumericalBreakdownError``.  One simplex phase then runs from it.  The
    certificate recomputes primal residuals, dual-sign conditions, and the
    duality gap from the original data and raises
    ``NumericalBreakdownError`` if any check fails; so does an empty ratio
    test, which only an unbounded LP or numerical drift produces.  A solve
    that breaks down is retried once from the same basis in a slow
    deterministic safe mode (tight refactorization, Bland's rule
    throughout), and the solution says so in ``retried``.
    """
    A_std, c_std = _to_standard_form(lp)
    first = _Simplex(A_std, lp.b, lp.basis)
    try:
        return _optimum(lp, first, c_std, retried=False)
    except NumericalBreakdownError:
        safe = _Simplex(A_std, lp.b, lp.basis, refresh=8, bland_from_start=True)
        return _optimum(lp, safe, c_std, retried=True)


def _certify(lp: LinearProgram, x: np.ndarray, y: np.ndarray, objective: float) -> None:
    """KKT certificate recomputed from the original data, absolute tolerances."""
    xs, ys = x.tolist(), y.tolist()
    # every check below is a comparison, which NaN passes
    if not all(map(math.isfinite, xs + ys + [objective])):
        raise NumericalBreakdownError("non-finite primal, dual or objective value")
    for i, (r, sense) in enumerate(zip((lp.A @ x - lp.b).tolist(), lp.senses)):
        if (r if sense == LE else abs(r)) > PRIMAL_TOL:
            raise NumericalBreakdownError(f"primal residual {r:.3e} on row {i} ({sense})")
    for i, (yi, sense) in enumerate(zip(ys, lp.senses)):
        if sense == LE and yi > DUAL_TOL:
            raise NumericalBreakdownError(f"dual sign violation {yi:.3e} on row {i} (<=)")
    if any(v < -PRIMAL_TOL for v in xs):
        raise NumericalBreakdownError("bound violation in primal solution")

    # reduced costs: nonnegative where x sits at its zero bound, zero elsewhere
    for j, (z, v) in enumerate(zip((lp.c - lp.A.T @ y).tolist(), xs)):
        at_zero = v <= 10 * PRIMAL_TOL
        if (z < -DUAL_TOL) if at_zero else (abs(z) > DUAL_TOL):
            where = "at zero" if at_zero else "on interior"
            raise NumericalBreakdownError(f"reduced cost {z:.3e} {where} variable {j}")
    dual_obj = float(lp.b @ y)
    if abs(objective - dual_obj) > GAP_TOL:
        raise NumericalBreakdownError(
            f"duality gap {objective - dual_obj:.3e} exceeds {GAP_TOL:.0e}"
        )


# --------------------------------------------------------------------------
# quadratic optimization over the probability simplex


@dataclass(frozen=True)
class EnergyResult:
    """Extremal energy over measures on a subset, with the measure attaining it.

    ``certificate`` is one of ``global_convex``, ``global_concave_max``,
    ``enumerated_exact``, ``heuristic_bound``.  ``gap`` is the final
    conditional-gradient duality gap for the certified-gradient routes and
    0 for exact enumeration and for a minimum that a zero diagonal entry
    proves.

    ``kkt_solves`` counts the one-support KKT solves of the Frank-Wolfe
    routes, each re-solve of a polish included, and ``fw_iterations`` their
    iterations, both summed over the starts of a multistart.  Both are 0 on an
    enumerated extremum, which solves its supports by bordering, with stacked
    LU for the few it cannot decide, and does not count its one-support
    replays; on a minimum that a zero diagonal entry proves; and on a
    maximum that an invariant measure settles, whose ``gap`` is the
    computed Frank-Wolfe gap of that measure.
    """

    value: float
    measure: Measure
    certificate: str
    gap: float
    notes: tuple[str, ...]
    kkt_solves: int = 0
    fw_iterations: int = 0


def _fw_gap(M: np.ndarray, v: np.ndarray) -> float:
    g = 2.0 * (M @ v)
    return float(g @ v - g.min())


def _polish_support(M: np.ndarray, support: np.ndarray, h: int):
    """Solve the stationarity system on a support: M_S w = lam, sum w = 1."""
    return _on_simplex(_kkt_weights(M, support), support, h)


def _kkt_weights(M: np.ndarray, support: np.ndarray):
    """The weights w of M_S w = lam, sum w = 1, or None when the system is
    singular or its residual exceeds ``RESID_TOL * (1 + max|M|)``."""
    s = support.size
    M_S = M[support[:, None], support]
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = M_S
    kkt[:s, s] = -1.0
    kkt[s, :s] = 1.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    w_s = sol[:s]
    if not np.all(np.isfinite(w_s)):
        return None
    resid = float(np.max(np.abs(M_S @ w_s - sol[s])))
    # every scale admits a residual up to RESID_TOL: max|M| is read only above it
    if resid > RESID_TOL and resid > RESID_TOL * (1.0 + np.max(np.abs(M))):
        return None
    return w_s


def _on_simplex(w_s, support: np.ndarray, h: int):
    """KKT weights on a support as a point of the simplex in R^h, or None
    when they are None or one is below ``-WEIGHT_TOL``."""
    if w_s is None or np.min(w_s) < -WEIGHT_TOL:
        return None
    w = np.zeros(h)
    w[support] = np.clip(w_s, 0.0, None)
    w /= w.sum()
    return w


def _shared_polish(polish):
    """``polish`` with each support solved once: later calls on a support
    return the first call's result.

    The polish of a support is a function of the matrix and the support
    alone, so within one multistart, where the matrix is fixed, a start that
    reaches a support another start has polished gets the same weights bit
    for bit.  The weights are stored read-only, so no start can change
    another's copy in place.
    """
    done = {}

    def shared(support: np.ndarray):
        key = support.tobytes()
        if key not in done:
            w = polish(support)
            if w is not None:
                w.setflags(write=False)
            done[key] = w
        return done[key]

    return shared


def _away_fw_block(M: np.ndarray, gap_tol: float, max_iter: int, polish,
                   starts: Sequence[np.ndarray]) -> list:
    """Away-step Frank-Wolfe with exact line search for min v' M v on the
    simplex, from every start at once, one column per start.

    Returns one (v, gap, iterations) per start, in start order.  Each step
    makes one product ``M @ V`` for the block V of live iterates; M d is
    read off ``M @ V`` and one column of M.  Every 32 iterations
    ``polish(support)`` solves the stationarity system on a column's
    support exactly.  A column leaves the block when its gap closes, its
    step is zero or its polished point closes the gap; a column still live
    at ``max_iter`` ends with the final polish of its last iterate, where
    that polish is no higher.  The gap returned for a column is ``_fw_gap``
    of its point, which may be a read-only array that ``polish`` shares.
    """
    V = np.column_stack(starts)
    results = [None] * V.shape[1]
    live = np.arange(V.shape[1])

    def leave(j, v, it):
        results[live[j]] = (v, _fw_gap(M, v), it)

    for it in range(max_iter + 1):
        cols = np.arange(live.size)
        MV = M @ V
        G = 2.0 * MV
        gv = np.einsum("ij,ij->j", G, V)
        if it == max_iter:
            break
        s = np.argmin(G, axis=0)
        gap = gv - G[s, cols]
        done = gap <= gap_tol
        for j in np.flatnonzero(done):
            leave(j, V[:, j].copy(), it)
        if it % 32 == 0:
            for j in np.flatnonzero(~done):
                w = polish(np.flatnonzero(V[:, j] > SUPPORT_EPS))
                w_gap = math.inf if w is None else _fw_gap(M, w)
                if w_gap <= gap_tol:
                    results[live[j]] = (w, w_gap, it)
                    done[j] = True
        if done.all():
            return results
        # the away vertex a has the largest gradient on the support
        a = np.argmax(np.where(V > 0.0, G, -np.inf), axis=0)
        alpha = V[a, cols]
        away = (G[a, cols] - gv > gap) & (alpha < 1.0)
        # d = v - e_a on an away step, e_s - v on a Frank-Wolfe step
        sign = np.where(away, 1.0, -1.0)
        vertex = np.where(away, a, s)
        D = V * sign
        D[vertex, cols] -= sign
        gamma_max = np.divide(alpha, 1.0 - alpha, out=np.ones(live.size), where=away)
        slope = np.einsum("ij,ij->j", G, D)
        # M d = sign * (M v - M e_vertex)
        curv = sign * np.einsum("ij,ij->j", D, MV - M[:, vertex])
        # the exact line search where d' M d > 0, else the longest step
        step = np.divide(-slope, 2.0 * curv, out=gamma_max.copy(), where=curv > 0.0)
        gamma = np.minimum(np.maximum(step, 0.0), gamma_max)
        gamma = np.where(gamma > 0.0, gamma, np.where(slope < 0, gamma_max, 0.0))
        for j in np.flatnonzero(~done & (gamma == 0.0)):
            leave(j, V[:, j].copy(), it)
            done[j] = True
        V += gamma * D
        drop = away & (gamma >= gamma_max)
        V[a[drop], cols[drop]] = 0.0
        jump = ~away & (gamma >= 1.0)
        V[:, jump] = 0.0
        V[s[jump], cols[jump]] = 1.0
        np.clip(V, 0.0, None, out=V)
        if it % 256 == 255:
            V /= V.sum(axis=0)
        if done.any():
            keep = ~done
            V, live = V[:, keep], live[keep]
            if not live.size:
                return results
    for j in range(live.size):
        v = V[:, j].copy()
        w = polish(np.flatnonzero(v > SUPPORT_EPS))
        # 0.5 * gv is v' M v of the last iterate
        if w is not None and float(w @ M @ w) <= 0.5 * gv[j] + VALUE_TIE_TOL:
            v = w
        leave(j, v, max_iter)
    return results


def _solve_stack(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack of systems; singular ones give NaN rows.

    A system is singular when its LU meets an exact zero pivot, which is when
    a single ``solve`` raises; ``slogdet`` runs that same LU and reports it
    as sign 0.
    """
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.full(kkt.shape[:2], np.nan)
        regular = np.linalg.slogdet(kkt)[0] != 0
        sol[regular] = np.linalg.solve(kkt[regular], rhs)
        return sol


class _SupportPass(NamedTuple):
    """Every support of a kernel, solved and filtered once for both signs.

    ``accepted`` holds one (supports, values) pair per solved block, in
    visiting order: the kept supports as rows of point indices, and their
    values lam = w' Q w.  ``skipped`` counts the rejected supports,
    ``bordered`` and ``fallback`` those decided by bordering and by stacked
    LU, and ``replays`` the one-support replays among the latter.
    """

    accepted: tuple
    skipped: int
    bordered: int
    fallback: int
    replays: int

    @property
    def visited(self) -> int:
        return self.bordered + self.fallback


def _stacked_verdicts(lu: np.ndarray, S: np.ndarray, Q: np.ndarray, resid_tol: float):
    """The supports S, rows of one size, solved as stacked KKT systems and
    filtered: (kept mask, values, one-support replays).

    A support clear of ``_polish_support``'s thresholds by a factor of two is
    decided here, the others by replaying ``_polish_support``.  Indexing
    ``lu`` = [[Q, -1], [1, 0]] with a support plus index h gives its KKT
    matrix.
    """
    h = Q.shape[0]
    size = S.shape[1]
    idx = np.hstack([S, np.full((len(S), 1), h)])
    kkt = lu[idx[:, :, None], idx[:, None, :]]
    Q_S = kkt[:, :size, :size]
    rhs = np.zeros(size + 1)
    rhs[size] = 1.0
    sol = _solve_stack(kkt, rhs)
    w_s = sol[:, :size]
    with np.errstate(invalid="ignore"):
        resid = np.abs(np.einsum("nij,nj->ni", Q_S, w_s) - sol[:, size:]).max(axis=1)
        low = w_s.min(axis=1)
        finite = np.isfinite(w_s).all(axis=1)
        keep = finite & (resid <= 0.5 * resid_tol) & (low >= -0.5 * WEIGHT_TOL)
        unsure = (finite & ~keep & ~(resid > 2.0 * resid_tol)
                  & ~(low < -2.0 * WEIGHT_TOL))
    replays = np.flatnonzero(unsure)
    for i in replays:
        keep[i] = _polish_support(Q, S[i], h) is not None
    w = np.clip(w_s[keep], 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    return keep, np.einsum("ni,nij,nj->n", w, Q_S[keep], w), replays.size


def _support_pass(Q: np.ndarray) -> _SupportPass:
    """Every support of Q solved and filtered, by size, then lexicographically.

    A support T has the KKT matrix A_T = [[0, 1'], [1, Q_T]], border first,
    and A_T^-1 e_0 = x_T = [-lam, w].  T = S + {j}, j = max T, is solved
    from S by bordering: with a = [1; Q[S, j]], y = A_S^-1 a and the Schur
    complement s = Q[j, j] - a'y, x_T = [x_S + y y_0/s; -y_0/s].  No inverse
    is formed: the y of a child T + {j'} is [y' - g y; g], with y' that of
    T's sibling S + {j'} and g = (Q[j, j'] - a'y)/s, and its s is s' - g^2 s.

    With the residual r = A_T x_T - e_0 and a bound p on the row sums of the
    weight block of A_T^-1 (S's block plus a rank-one term, so p sums
    (1 + |y|_1)^2/|s| along the prefixes, y without its border entry),

        delta = |w|_1 (|r_0| + c (|w|_1 + 2 max|Q| p)) + p max|r_Q|,

    c = gamma_{8(k+1)}, bounds the distance from w to the weights of
    ``_polish_support``'s LU solve.  A support whose lowest weight is more
    than delta <= ``BORDER_TRUST_TOL`` from -``WEIGHT_TOL`` is decided here
    (a kept one sums to 1, so the LU's residual is far below ``RESID_TOL``),
    with lam as its value; ``_stacked_verdicts`` decides the rest.

    The KKT matrix of -Q is -D kkt(Q) D with D = diag(1, ..., 1, -1), so LU
    with partial pivoting meets the same pivots, up to sign, and
    ``_polish_support`` reaches the same verdicts on -Q: the pass serves both
    signs, the values of -Q negated.
    """
    h = Q.shape[0]
    q_max = float(np.max(np.abs(Q)))
    resid_tol = RESID_TOL * (1.0 + q_max)
    lu = np.zeros((h + 1, h + 1))
    lu[:h, :h] = Q
    lu[:h, h] = -1.0
    lu[h, :h] = 1.0
    q = Q.diagonal()
    # a single point: w = 1 and lam = Q[i, i], always kept
    accepted = [(np.arange(h, dtype=np.int8)[:, None], q.copy())]
    counts = {"skipped": 0, "bordered": h, "fallback": 0, "replays": 0}

    def decide(sets: np.ndarray, x: np.ndarray, p: np.ndarray) -> None:
        # one support a column, border first
        m = sets.shape[1]
        at = np.multiply(sets, m, dtype=np.intp)
        at += np.arange(m)
        X = np.zeros((h + 1, m))
        X.put(at, x)
        # A_T x_T - e_0 with r_0 negated, as lu's border column is -1
        r = (lu.T @ X).take(at)
        w1 = np.abs(x[1:]).sum(axis=0)
        delta = (w1 * (np.abs(r[0] + 1.0) + gamma(8 * len(sets)) * (w1 + 2.0 * q_max * p))
                 + p * np.abs(r[1:]).max(axis=0))
        margin = x[1:].min(axis=0) + WEIGHT_TOL
        decided = (np.abs(margin) > delta) & (delta <= BORDER_TRUST_TOL)
        keep = decided & (margin >= 0.0)
        values = -x[0]
        rest = np.flatnonzero(~decided)
        if rest.size:
            kept, stacked, replays = _stacked_verdicts(lu, sets[1:, rest].T, Q, resid_tol)
            keep[rest] = kept
            values[rest[kept]] = stacked
            counts["replays"] += replays
        counts["fallback"] += rest.size
        counts["bordered"] += m - rest.size
        counts["skipped"] += m - int(np.count_nonzero(keep))
        accepted.append((sets[1:, keep].T, values[keep]))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # pairs {i, j}: y = A_{i}^-1 [1; Q_ij] = [Q_ij - Q_ii, 1]
        i, j = np.triu_indices(h, 1)
        sets = np.array([np.full(i.size, h), i, j], dtype=np.int8)  # indices <= 14
        y = np.array([Q[i, j] - q[i], np.ones(i.size)])
        s = q[i] + q[j] - 2.0 * Q[i, j]
        z = y[0] / s
        x = np.array([y[0] * z - q[i], z + 1.0, -z])
        p = 4.0 / np.abs(s)
        if i.size:
            decide(sets, x, p)
        for k in range(2, h):
            # the children T + {j'}, j' = max T + 1, ..., h - 1, of each T in
            # order; the sibling S + {j'} of T = S + {j} is j' - j rows on
            spread = np.subtract(h - 1, sets[-1], dtype=np.intp)
            parent = np.arange(spread.size).repeat(spread)
            offset = np.arange(1, parent.size + 1) - (spread.cumsum() - spread).take(parent)
            sibling, new = parent + offset, offset + sets[-1].take(parent)
            n = parent.size
            level = (np.empty((k + 2, n), dtype=np.int8), np.empty((k + 1, n)),
                     np.empty((k + 2, n)), np.empty(n), np.empty(n))
            sets_k, y_k, x_k, s_k, p_k = level
            for lo in range(0, n, _ENUM_CHUNK):
                block = slice(lo, lo + _ENUM_CHUNK)
                par, jn = parent[block], new[block]
                sets_k[:-1, block] = sets[:, par]
                sets_k[-1, block] = jn
                # [1; Q[S, j']; Q[j, j']] on the rows of T = S + {j}
                at = np.multiply(sets_k[:-1, block], h + 1, dtype=np.intp)
                at += jn
                a = lu.take(at)
                y_t, s_t = y[:, par], s.take(par)
                g = (a[k] - (y_t * a[:k]).sum(axis=0)) / s_t
                y_k[:k, block] = y[:, sibling[block]] - y_t * g
                y_k[k, block] = g
                s_k[block] = s.take(sibling[block]) - g * g * s_t
                z = y_k[0, block] / s_k[block]
                x_k[:-1, block] = x[:, par] + y_k[:, block] * z
                x_k[-1, block] = -z
                grow = np.abs(y_k[1:, block]).sum(axis=0) + 1.0
                p_k[block] = grow * grow / np.abs(s_k[block]) + p.take(par)
                decide(sets_k[:, block], x_k[:, block], p_k[block])
            sets, y, x, s, p = level
    return _SupportPass(tuple(accepted), **counts)


def _enumerate_supports(Q: np.ndarray, sign: float, swept: _SupportPass | None = None):
    """Exact extremum via stationary points of every support, plus vertices.

    ``swept`` is ``_support_pass(Q)``, computed here when not given; one
    pass serves both signs.  The supports whose value of ``sign * Q`` in the
    pass is within ``REPLAY_BAND_TOL * (1 + max|Q|)`` of the smallest are
    replayed through ``_polish_support``, and the tie rule runs on their
    replayed points in visiting order, so measure, value and notes are
    those of solving every support on its own.
    """
    if swept is None:
        swept = _support_pass(Q)
    accepted, skipped = swept.accepted, swept.skipped
    h = Q.shape[0]
    M = sign * Q
    # The tie rule looks VALUE_TIE_TOL and EQUAL_VALUE_TOL apart.  A support
    # more than REPLAY_BAND_TOL above the best can neither win nor tie, and
    # with under 2**14 values in that band some empty VALUE_TIE_TOL window
    # walls it off from the ones that decide, so leaving it out changes
    # nothing.
    cutoff = (min((sign * vals).min() for _, vals in accepted if vals.size)
              + REPLAY_BAND_TOL * (1.0 + np.max(np.abs(Q))))
    best_w = None
    best_val = math.inf
    for supports, vals in accepted:
        for support in supports[sign * vals <= cutoff]:
            w = _polish_support(M, support, h)
            if w is None:
                skipped += 1
                continue
            val = float(w @ M @ w)
            if val < best_val - VALUE_TIE_TOL:
                best_w, best_val = w, val
            elif (abs(val - best_val) <= EQUAL_VALUE_TOL and best_w is not None
                  and tuple(w) < tuple(best_w)):
                best_w = w
    notes = []
    if skipped:
        notes.append(f"skipped {skipped} singular or infeasible support systems")
    return best_w, sign * best_val, tuple(notes)


def subset_definiteness(space: KernelSpace, idx: tuple[int, ...]) -> dict:
    """``sum_zero_definiteness`` of K[idx, idx], once per space and subset.

    ``idx`` is a checked subset, as ``check_subset`` returns it.
    """
    return space.memo(("sum_zero_definiteness", idx),
                      lambda: sum_zero_definiteness(space.block(idx)))


def _quadratic_extremum(space: KernelSpace, H: Sequence[int], maximize: bool,
                        gap_tol: float, max_iter: int) -> EnergyResult:
    """The extremum over measures on H, solved once per space and arguments."""
    idx = check_subset(H, space.m)
    return space.memo(("quadratic_extremum", idx, maximize, gap_tol, max_iter),
                      lambda: _solve_extremum(space, idx, maximize, gap_tol, max_iter))


def _solve_extremum(space: KernelSpace, idx: tuple[int, ...], maximize: bool,
                    gap_tol: float, max_iter: int) -> EnergyResult:
    """The extremum over measures on ``idx``, by the route the curvature picks.

    A minimum on a block with a zero diagonal entry needs no route: it is 0,
    at a Dirac mass (``_zero_diagonal_minimum``).  Nor does a maximum on
    every point of a kernel proved of negative type whose invariant
    candidate closes the gap (``_invariant_maximum``): it is that measure,
    tagged ``global_concave_max``, with no KKT solve.  Otherwise a kernel
    definite in the right sense on the sum-zero subspace gets one certified
    Frank-Wolfe run from the uniform measure; failing that, up to
    ``QP_ENUM_LIMIT`` points are enumerated exactly, and above that a
    32-start Frank-Wolfe multistart gives a bound.  Both Frank-Wolfe routes
    run ``_away_fw_block``.  The certified run's polish drops the atoms
    whose KKT weight is negative and solves again on the rest, until the
    weights are nonnegative; if that point does not close the gap, it drops
    the weights at most ``MEASURE_NEG_TOL`` of the largest and solves once
    more.  Every point it returns still has to close the gap.  The starts of
    the multistart share a plain polish, so each distinct support's KKT
    system is solved once per multistart; nothing is kept after the solve
    returns.  On every point the routes read the kernel itself, not a copy
    of its block.
    """
    defin = subset_definiteness(space, idx)
    certified = defin["nsd"] if maximize else defin["psd"]
    if not maximize:
        dirac = _zero_diagonal_minimum(space, idx, certified)
        if dirac is not None:
            return dirac
    if maximize and certified and len(idx) == space.m:
        settled = _invariant_maximum(space, gap_tol)
        if settled is not None:
            v, gap = settled
            note = "an invariant measure: its potential is constant on every point"
            return _extremum_result(space, idx, v, gap, "global_concave_max", (note,))
    Q = space.block(idx)
    h = len(idx)
    sign = -1.0 if maximize else 1.0
    M = sign * Q
    kkt_solves = fw_iterations = 0

    def solve(support: np.ndarray):
        nonlocal kkt_solves
        kkt_solves += 1
        return _kkt_weights(M, support)

    def polish(support: np.ndarray):
        return _on_simplex(solve(support), support, h)

    def repolish(support: np.ndarray):
        # drop the atoms of negative weight and solve again on the rest; the
        # weights sum to 1, so some atom stays
        w_s = solve(support)
        while w_s is not None and np.min(w_s) < -WEIGHT_TOL:
            support = support[w_s >= 0.0]
            w_s = solve(support)
        w = _on_simplex(w_s, support, h)
        if w is not None and _fw_gap(M, w) > gap_tol:
            # weights of rounding size (±1e-11 on a grid of 2,500 points) can
            # hold the gap open: snap those at most MEASURE_NEG_TOL of the
            # largest to 0, as the invariant-measure fast path does, and
            # solve once more on the rest
            keep = w_s > MEASURE_NEG_TOL * np.max(np.abs(w_s))
            if not keep.all():
                snapped = _on_simplex(solve(support[keep]), support[keep], h)
                if snapped is not None:
                    w = snapped
        return w

    notes: tuple[str, ...] = ()
    if certified:
        [(v, gap, fw_iterations)] = _away_fw_block(M, gap_tol, max_iter, repolish,
                                                   [np.full(h, 1.0 / h)])
        cert = "global_concave_max" if maximize else "global_convex"
        if gap > gap_tol:
            notes = (f"conditional gradient stopped at gap {gap:.3e}",)
    elif h <= QP_ENUM_LIMIT:
        swept = space.memo(("support_pass", idx), lambda: _support_pass(Q))
        v, _, notes = _enumerate_supports(Q, sign, swept)
        gap = 0.0
        cert = "enumerated_exact"
    else:
        starts = [np.full(h, 1.0 / h)]
        # distinct Dirac starts in increasing order; np.unique would import numpy.ma
        for i in dict.fromkeys(np.linspace(0, h - 1, 15).round().astype(int).tolist()):
            e = np.zeros(h)
            e[i] = 1.0
            starts.append(e)
        rng = np.random.default_rng(0)
        while len(starts) < 32:
            starts.append(rng.dirichlet(np.ones(h)))
        v = None
        best_val = math.inf
        gap = math.nan
        runs = _away_fw_block(M, gap_tol, min(max_iter, 20_000), _shared_polish(polish), starts)
        for cand, cand_gap, iterations in runs:
            fw_iterations += iterations
            val = float(cand @ M @ cand)
            if val < best_val - VALUE_TIE_TOL:
                v, best_val, gap = cand, val, cand_gap
        cert = "heuristic_bound"
        notes = ("multistart bound only; no global certificate",)

    return _extremum_result(space, idx, v, gap, cert, notes, kkt_solves, fw_iterations)


def _invariant_maximum(space: KernelSpace, gap_tol: float):
    """The invariant candidate of the full pair as (weights, Frank-Wolfe
    gap), or None when there is none or its gap exceeds ``gap_tol``.

    Read only on a kernel proved of negative type, where the energy is
    concave on the simplex: a measure whose potential is constant on every
    point is stationary on the simplex's affine hull, so it is the global
    maximum.  The gap is computed, 2 (max K mu - mu' K mu), never assumed.
    """
    record = invariant_record(space, SubsetPair.full(space.m))
    if record is None:
        return None
    v, pot = record.measure.weights, record.potential
    gap = 2.0 * (float(pot.max()) - float(pot @ v))
    return (v, gap) if gap <= gap_tol else None


def _extremum_result(space: KernelSpace, idx: tuple[int, ...], v: np.ndarray, gap: float,
                     cert: str, notes: tuple[str, ...], kkt_solves: int = 0,
                     fw_iterations: int = 0) -> EnergyResult:
    """The ``EnergyResult`` of the point ``v`` of the simplex on ``idx``."""
    # drop dust atoms below the support threshold before reporting
    v = np.where(v < SUPPORT_EPS, 0.0, v)
    v = v / v.sum()
    measure = Measure.from_subvector(space.m, idx, v)
    # report the value of the cleaned-up measure so value and measure agree exactly
    value = float(measure.weights @ space.kernel @ measure.weights)
    return EnergyResult(value=value, measure=measure, certificate=cert, gap=float(gap), notes=notes,
                        kkt_solves=kkt_solves, fw_iterations=fw_iterations)


def _zero_diagonal_minimum(space: KernelSpace, idx: tuple[int, ...],
                           certified: bool) -> EnergyResult | None:
    """The minimum over measures on ``idx`` where K[i, i] = 0 for some i in
    ``idx``, else None.

    K >= 0 (``KernelSpace`` rejects a negative entry), so no measure has
    negative energy, and the Dirac mass at i has none: the minimum is 0, a
    proof that solves nothing.  i is the largest such index, the Dirac mass
    the enumeration's tie rule picks.  The certificate is the one the
    router's branch gives (``certified`` is its convexity verdict).
    """
    zeros = np.flatnonzero(space.kernel.diagonal().take(idx) == 0.0)
    if not zeros.size:
        return None
    i = idx[zeros[-1]]
    cert = ("global_convex" if certified
            else "enumerated_exact" if len(idx) <= QP_ENUM_LIMIT else "heuristic_bound")
    return EnergyResult(value=0.0, measure=Measure.dirac(space.m, i), certificate=cert, gap=0.0,
                        notes=(f"zero diagonal at point {i}: its Dirac mass reaches the minimum 0",))


def minimize_quadratic_on_simplex(space: KernelSpace, H: Sequence[int],
                                  gap_tol: float = QP_GAP_TOL,
                                  max_iter: int = QP_MAX_ITER) -> EnergyResult:
    """Minimize the energy form over probability measures supported on H."""
    return _quadratic_extremum(space, H, maximize=False, gap_tol=gap_tol, max_iter=max_iter)


def maximize_quadratic_on_simplex(space: KernelSpace, H: Sequence[int],
                                  gap_tol: float = QP_GAP_TOL,
                                  max_iter: int = QP_MAX_ITER) -> EnergyResult:
    """Maximize the energy form over probability measures supported on H."""
    return _quadratic_extremum(space, H, maximize=True, gap_tol=gap_tol, max_iter=max_iter)
