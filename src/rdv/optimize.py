"""Self-contained solvers: dense LP and quadratic optimization on the simplex.

The LP solver takes one form, min c @ x over x >= 0 with ``<=`` and ``=``
rows, which is the form of every level program.  It is a revised primal
simplex with Dantzig pricing that falls back to Bland's rule for
guaranteed termination.  Every optimal solution is re-certified against
the original problem data: primal feasibility, dual feasibility, and
strong duality, at fixed absolute tolerances.  Vertex solutions keep exact
zeros, which the equilibrium-measure checks rely on.

Quadratic objectives over the probability simplex are handled by three
routes, picked by the curvature of the kernel on the sum-zero subspace:
a certified conditional-gradient method (away steps, exact line search,
periodic exact solves on the current support), exhaustive stationary-point
enumeration over supports for up to 14 points, and a multistart heuristic
that only claims a bound.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    SUPPORT_EPS,
    CapExceededError,
    DimensionMismatchError,
    KernelSpace,
    Measure,
    NonFiniteEntryError,
    NumericalBreakdownError,
    check_subset,
)
from .spectral import sum_zero_definiteness

LP_SIZE_CAP = 10_000
PRIMAL_TOL = 1e-9
DUAL_TOL = 1e-9
GAP_TOL = 1e-8
_STOP_TOL = 1e-10
_RATIO_TOL = 1e-10
_PIVOT_TOL = 1e-7
_REFRESH = 64

QP_GAP_TOL = 1e-10
QP_MAX_ITER = 100_000
QP_ENUM_LIMIT = 14

LE, EQ = "<=", "="


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimize c @ x over x >= 0 subject to rows A @ x <= b or A @ x = b.

    ``senses[i]`` is ``"<="`` or ``"="``.
    """

    c: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray

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
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise NonFiniteEntryError("LP data must be finite")
        if max(rows, cols) > LP_SIZE_CAP:
            raise CapExceededError(
                f"LP has {rows} rows x {cols} columns; cap is {LP_SIZE_CAP} per dimension"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", tuple(self.senses))

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
    """Outcome of an LP solve.

    For ``status == "optimal"`` the primal vector, row duals, and objective
    are set and have passed the independent certificate; otherwise they are
    ``None``/NaN.
    """

    status: str
    x: Optional[np.ndarray]
    y: Optional[np.ndarray]
    objective: float


class _Unbounded(Exception):
    pass


class _Simplex:
    """Revised primal simplex on standard-form data (A x = b, x >= 0, b >= 0)."""

    def __init__(self, A: np.ndarray, b: np.ndarray, n_struct: int,
                 refresh: int = _REFRESH, bland_from_start: bool = False):
        self.A = A
        self.b = b
        self.rows = A.shape[0]
        self.cols = A.shape[1]
        self.n_struct = n_struct  # structural + slack columns; the rest are artificial
        self.basis = np.zeros(self.rows, dtype=int)
        self.B_inv = np.eye(self.rows)
        self.pivots = 0
        # long degenerate paths on large bases need tighter drift control
        self.refresh = min(refresh, 16) if self.rows > 128 else refresh
        self.bland_from_start = bland_from_start

    def refactor(self) -> None:
        try:
            self.B_inv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError(
                "basis matrix became singular during simplex pivoting") from exc

    def x_basic(self) -> np.ndarray:
        return self.B_inv @ self.b

    def _leave_row(self, d: np.ndarray, xb: np.ndarray, guard_artificials: bool,
                   blands: bool) -> Optional[int]:
        """Ratio test.  None means the direction is unbounded.

        Drift-negative basic values are clamped to zero so the walk cannot
        leave the feasible region; in phase 2, a basic artificial that the
        step would increase is swapped out at a zero-length step instead.
        """
        pos = np.flatnonzero(d > _RATIO_TOL)
        if guard_artificials:
            swap = np.flatnonzero((self.basis >= self.n_struct) & (d < -_RATIO_TOL))
            if swap.size:
                return int(swap[np.argmax(np.abs(d[swap]))])
        if pos.size == 0:
            return None
        ratios = np.maximum(xb[pos], 0.0) / d[pos]
        best = float(np.min(ratios))
        tied = pos[ratios <= best + 1e-12 * (1.0 + abs(best))]
        if blands:
            return int(tied[np.argmin(self.basis[tied])])
        # favor the largest pivot element for numerical stability
        return int(tied[np.argmax(d[tied])])

    def run_phase(self, c: np.ndarray, allowed: np.ndarray,
                  guard_artificials: bool = False) -> None:
        """Pivot until no allowed column prices out negative (tolerance 1e-10)."""
        dantzig_limit = self.pivots + 10 * (self.rows + self.cols)
        hard_cap = self.pivots + 200 * (self.rows + self.cols) + 10_000
        verified = False
        fresh = False
        while True:
            if self.pivots > hard_cap:
                raise NumericalBreakdownError(
                    f"simplex exceeded {hard_cap} pivots without converging"
                )
            y = c[self.basis] @ self.B_inv
            reduced = c - y @ self.A
            candidates = np.flatnonzero(allowed & (reduced < -_STOP_TOL))
            if candidates.size == 0:
                if verified:
                    if float(self.x_basic().min()) < -10 * _PIVOT_TOL:
                        raise NumericalBreakdownError(
                            "simplex lost primal feasibility on a degenerate path")
                    return
                # confirm optimality against a freshly factorized basis
                self.refactor()
                verified = True
                fresh = True
                continue
            verified = False
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
                row = self._leave_row(d_cand, xb, guard_artificials, blands)
                if row is None:
                    raise _Unbounded()
                piv = abs(d_cand[row])
                if piv > best_piv:
                    enter, leave_row, d, best_piv = int(cand), row, d_cand, piv
                if piv >= _PIVOT_TOL:
                    break
            if best_piv < _PIVOT_TOL and not fresh:
                # suspiciously small pivots everywhere: refresh and retry
                self.refactor()
                fresh = True
                continue
            # elementary row update of the basis inverse
            fresh = False
            piv = d[leave_row]
            self.B_inv[leave_row] /= piv
            other = np.arange(self.rows) != leave_row
            self.B_inv[other] -= np.outer(d[other], self.B_inv[leave_row])
            self.basis[leave_row] = enter
            self.pivots += 1
            if self.pivots % self.refresh == 0:
                self.refactor()
                fresh = True


def _to_standard_form(lp: LinearProgram):
    """Rewrite as equality rows with b >= 0: a +1 slack per ``<=`` row, then row flips.

    Returns (A_std, b_std, c_std, slack_rows, row_sign).  The columns of
    A_std are x, then the slack of each row in ``slack_rows``, in order.
    """
    rows = lp.shape[0]
    slack_rows = np.flatnonzero([s == LE for s in lp.senses])
    slack = np.zeros((rows, slack_rows.size))
    slack[slack_rows, np.arange(slack_rows.size)] = 1.0
    A_std = np.hstack([lp.A, slack])
    c_std = np.concatenate([lp.c, np.zeros(slack_rows.size)])

    row_sign = np.ones(rows)
    neg = lp.b < 0.0
    row_sign[neg] = -1.0
    A_std[neg] *= -1.0
    b_std = lp.b.copy()
    b_std[neg] *= -1.0
    return A_std, b_std, c_std, slack_rows, row_sign


def _solve_lp_once(lp: LinearProgram, refresh: int, bland_from_start: bool) -> LpSolution:
    A_std, b_std, c_std, slack_rows, row_sign = _to_standard_form(lp)
    rows, n_struct = A_std.shape
    n_x = lp.shape[1]

    # initial basis: the slack of each unflipped <= row, otherwise an artificial column
    basis = np.full(rows, -1, dtype=int)
    unflipped = row_sign[slack_rows] > 0.0
    basis[slack_rows[unflipped]] = n_x + np.flatnonzero(unflipped)
    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    basis[art_rows] = n_struct + np.arange(n_art)
    A_full = np.hstack([A_std, np.eye(rows)[:, art_rows]])
    cols = A_full.shape[1]

    sx = _Simplex(A_full, b_std, n_struct, refresh=refresh,
                  bland_from_start=bland_from_start)
    sx.basis = basis
    sx.refactor()

    allowed = np.ones(cols, dtype=bool)
    allowed[n_struct:] = False  # artificials may leave but never re-enter
    try:
        if n_art:
            c_phase1 = np.zeros(cols)
            c_phase1[n_struct:] = 1.0
            sx.run_phase(c_phase1, allowed)
            if float(c_phase1[sx.basis] @ sx.x_basic()) > 1e-9:
                return LpSolution(status="infeasible", x=None, y=None, objective=math.nan)
        c_phase2 = np.concatenate([c_std, np.zeros(n_art)])
        sx.run_phase(c_phase2, allowed, guard_artificials=True)
    except _Unbounded:
        return LpSolution(status="unbounded", x=None, y=None, objective=math.nan)

    # recover the primal point from an exact basis solve on the original data
    x_basic = np.linalg.solve(A_full[:, sx.basis], b_std)
    x_std = np.zeros(cols)
    x_std[sx.basis] = x_basic
    x = x_std[:n_x] + 0.0  # + 0.0 keeps -0.0 out of x and the reports

    y_std = np.linalg.solve(A_full[:, sx.basis].T, c_phase2[sx.basis])
    y = row_sign * y_std
    objective = float(lp.c @ x)
    _certify(lp, x, y, objective)
    return LpSolution(status="optimal", x=x, y=y, objective=objective)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an LP; optimal solutions carry independently certified duals.

    The certificate recomputes primal residuals, dual-sign conditions, and
    the duality gap from the original data and raises
    ``NumericalBreakdownError`` if any check fails.  A solve that breaks
    down numerically is retried once in a slow deterministic safe mode
    (tight refactorization, Bland's rule throughout).
    """
    try:
        return _solve_lp_once(lp, refresh=_REFRESH, bland_from_start=False)
    except NumericalBreakdownError:
        return _solve_lp_once(lp, refresh=8, bland_from_start=True)


def _certify(lp: LinearProgram, x: np.ndarray, y: np.ndarray, objective: float) -> None:
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


# --------------------------------------------------------------------------
# quadratic optimization over the probability simplex


@dataclass(frozen=True)
class EnergyResult:
    """Extremal energy over measures on a subset, with the measure attaining it.

    ``certificate`` is one of ``global_convex``, ``global_concave_max``,
    ``enumerated_exact``, ``heuristic_bound``.  ``gap`` is the final
    conditional-gradient duality gap for the certified-gradient routes and
    0 for exact enumeration.
    """

    value: float
    measure: Measure
    certificate: str
    gap: float
    notes: tuple[str, ...]


def _fw_gap(M: np.ndarray, v: np.ndarray) -> float:
    g = 2.0 * (M @ v)
    return float(g @ v - g.min())


def _polish_support(M: np.ndarray, support: np.ndarray, h: int):
    """Solve the stationarity system on a support: M_S w = lam, sum w = 1."""
    s = support.size
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = M[np.ix_(support, support)]
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
    resid = M[np.ix_(support, support)] @ w_s - sol[s]
    if np.max(np.abs(resid)) > 1e-8 * (1.0 + np.max(np.abs(M))):
        return None
    if np.min(w_s) < -1e-10:
        return None
    w = np.zeros(h)
    w[support] = np.clip(w_s, 0.0, None)
    w /= w.sum()
    return w


def _away_fw_minimize(M: np.ndarray, gap_tol: float, max_iter: int, start: np.ndarray | None = None):
    """Away-step Frank-Wolfe with exact line search for min v' M v on the simplex.

    Returns (v, gap, iterations).  Every 32 iterations the stationarity
    system on the current support is solved exactly; if the polished point
    is feasible and closes the gap it is returned directly.
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
            w = _polish_support(M, support, h)
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
    w = _polish_support(M, support, h)
    if w is not None and float(w @ M @ w) <= best_val + 1e-15:
        best = w
    return best, _fw_gap(M, best), max_iter


def _enumerate_supports(Q: np.ndarray, sign: float):
    """Exact extremum via stationary points of every support, plus vertices."""
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


def subset_definiteness(space: KernelSpace, idx: tuple[int, ...]) -> dict:
    """``sum_zero_definiteness`` of K[idx, idx], once per space and subset.

    ``idx`` is a checked subset, as ``check_subset`` returns it.
    """
    return space.memo(("sum_zero_definiteness", idx),
                      lambda: sum_zero_definiteness(space.kernel[np.ix_(idx, idx)]))


def _quadratic_extremum(space: KernelSpace, H: Sequence[int], maximize: bool,
                        gap_tol: float, max_iter: int) -> EnergyResult:
    """The extremum over measures on H, solved once per space and arguments."""
    idx = check_subset(H, space.m)
    return space.memo(("quadratic_extremum", idx, maximize, gap_tol, max_iter),
                      lambda: _solve_extremum(space, idx, maximize, gap_tol, max_iter))


def _solve_extremum(space: KernelSpace, idx: tuple[int, ...], maximize: bool,
                    gap_tol: float, max_iter: int) -> EnergyResult:
    Q = space.kernel[np.ix_(idx, idx)]
    h = len(idx)
    sign = -1.0 if maximize else 1.0
    M = sign * Q

    defin = subset_definiteness(space, idx)
    certified = defin["nsd"] if maximize else defin["psd"]
    notes: tuple[str, ...] = ()
    if certified:
        v, gap, _ = _away_fw_minimize(M, gap_tol, max_iter)
        cert = "global_concave_max" if maximize else "global_convex"
        if gap > gap_tol:
            notes = (f"conditional gradient stopped at gap {gap:.3e}",)
    elif h <= QP_ENUM_LIMIT:
        v, _, notes = _enumerate_supports(Q, sign)
        gap = 0.0
        cert = "enumerated_exact"
    else:
        starts = [np.full(h, 1.0 / h)]
        for i in np.unique(np.linspace(0, h - 1, 15).round().astype(int)):
            e = np.zeros(h)
            e[i] = 1.0
            starts.append(e)
        rng = np.random.default_rng(0)
        while len(starts) < 32:
            starts.append(rng.dirichlet(np.ones(h)))
        v = None
        best_val = math.inf
        gap = math.nan
        for start in starts:
            cand, cand_gap, _ = _away_fw_minimize(M, gap_tol, min(max_iter, 20_000), start)
            val = float(cand @ M @ cand)
            if val < best_val - 1e-15:
                v, best_val, gap = cand, val, cand_gap
        cert = "heuristic_bound"
        notes = ("multistart bound only; no global certificate",)

    # drop dust atoms below the support threshold before reporting
    v = np.where(v < SUPPORT_EPS, 0.0, v)
    v = v / v.sum()
    measure = Measure.from_subvector(space.m, idx, v)
    # report the value of the cleaned-up measure so value and measure agree exactly
    value = float(measure.weights @ space.kernel @ measure.weights)
    return EnergyResult(value=value, measure=measure, certificate=cert, gap=float(gap), notes=notes)


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
