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
checks rely on.

Quadratic objectives over the probability simplex are handled by three
routes, picked by the curvature of the kernel on the sum-zero subspace:
a certified conditional-gradient method (away steps, exact line search,
periodic exact solves on the current support), exhaustive stationary-point
enumeration over supports for up to 14 points, and a multistart heuristic
that only claims a bound.  The enumeration solves the supports of one size
as stacked KKT systems and replays the near-best ones one at a time, so
its result is exactly that of solving every support on its own; one
stacked pass per space and subset serves the maximum and the minimum.
On a dual space C - k (see ``core.dual_kernel``) nothing is solved: each
extremum is read from the primal's opposite one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

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
_ENUM_CHUNK = 512
# _polish_support accepts a support when its KKT residual is at most
# _RESID_TOL * (1 + max|M|) and its lowest weight at least -_WEIGHT_TOL
_RESID_TOL = 1e-8
_WEIGHT_TOL = 1e-10

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
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise NonFiniteEntryError("LP data must be finite")
        if max(rows, cols) > LP_SIZE_CAP:
            raise CapExceededError(
                f"LP has {rows} rows x {cols} columns; cap is {LP_SIZE_CAP} per dimension"
            )
        basis = tuple(int(j) for j in self.basis)
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

    ``pivots`` counts the simplex pivots of the solve that returned it, and
    ``retried`` says whether that solve was the safe-mode retry.
    """

    x: np.ndarray
    y: np.ndarray
    objective: float
    pivots: int
    retried: bool


class _Simplex:
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
        pos = np.flatnonzero(d > _RATIO_TOL)
        if pos.size == 0:
            raise NumericalBreakdownError("empty ratio test: no row bounds the entering column")
        ratios = np.maximum(xb[pos], 0.0) / d[pos]
        best = float(np.min(ratios))
        tied = pos[ratios <= best + 1e-12 * (1.0 + abs(best))]
        if blands:
            return int(tied[np.argmin(self.basis[tied])])
        # favor the largest pivot element for numerical stability
        return int(tied[np.argmax(d[tied])])

    def run(self, c: np.ndarray) -> None:
        """Pivot until no column prices out negative (tolerance 1e-10)."""
        dantzig_limit = 10 * (self.rows + self.cols)
        hard_cap = 200 * (self.rows + self.cols) + 10_000
        verified = False
        fresh = False
        while True:
            if self.pivots > hard_cap:
                raise NumericalBreakdownError(
                    f"simplex exceeded {hard_cap} pivots without converging"
                )
            y = c[self.basis] @ self.B_inv
            reduced = c - y @ self.A
            candidates = np.flatnonzero(reduced < -_STOP_TOL)
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
                row = self._leave_row(d_cand, xb, blands)
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


def _to_standard_form(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """Equality rows: a +1 slack column per ``<=`` row, after the x columns.

    Returns (A_std, c_std), whose columns are numbered as ``lp.basis`` numbers
    them.
    """
    slack_rows = np.flatnonzero([s == LE for s in lp.senses])
    slack = np.zeros((lp.shape[0], slack_rows.size))
    slack[slack_rows, np.arange(slack_rows.size)] = 1.0
    return np.hstack([lp.A, slack]), np.concatenate([lp.c, np.zeros(slack_rows.size)])


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
    return LpSolution(x=x, y=y, objective=objective, pivots=sx.pivots, retried=retried)


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
    if np.max(np.abs(resid)) > _RESID_TOL * (1.0 + np.max(np.abs(M))):
        return None
    if np.min(w_s) < -_WEIGHT_TOL:
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


def _support_pass(Q: np.ndarray):
    """Every support of Q solved as stacked KKT systems and filtered.

    Supports are visited by size, then lexicographically, and each chunk of
    at most ``_ENUM_CHUNK`` supports of one size is one stacked KKT solve.
    A vectorized filter accepts or rejects a support when it is clear of
    ``_polish_support``'s thresholds by a factor of two; the supports in
    between are replayed through ``_polish_support``.  Returns the accepted
    supports with their values ``w' Q w``, one pair per chunk in visiting
    order, and the number of rejected supports.

    The pass serves both signs.  The KKT matrix of -Q is -D kkt(Q) D with
    D = diag(1, ..., 1, -1), so LU with partial pivoting meets the same
    pivots, up to sign, and returns the same weights and the negated
    multiplier: every residual, weight, verdict and value here is that of
    -Q, up to the sign of the value, bit for bit.
    """
    h = Q.shape[0]
    resid_tol = _RESID_TOL * (1.0 + np.max(np.abs(Q)))
    # [[Q, -1], [1, 0]]: indexing it with a support plus index h gives that
    # support's KKT matrix
    bordered = np.zeros((h + 1, h + 1))
    bordered[:h, :h] = Q
    bordered[:h, h] = -1.0
    bordered[h, :h] = 1.0
    accepted = []  # (supports, stacked values) per chunk, in visiting order
    skipped = 0
    for size in range(1, h + 1):
        combos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(h), size)),
                             dtype=np.intp).reshape(-1, size)
        rhs = np.zeros(size + 1)
        rhs[size] = 1.0
        for start in range(0, len(combos), _ENUM_CHUNK):
            S = combos[start:start + _ENUM_CHUNK]
            idx = np.hstack([S, np.full((len(S), 1), h)])
            kkt = bordered[idx[:, :, None], idx[:, None, :]]
            Q_S = kkt[:, :size, :size]
            sol = _solve_stack(kkt, rhs)
            w_s = sol[:, :size]
            with np.errstate(invalid="ignore"):
                resid = np.abs(np.einsum("nij,nj->ni", Q_S, w_s) - sol[:, size:]).max(axis=1)
                low = w_s.min(axis=1)
                finite = np.isfinite(w_s).all(axis=1)
                keep = finite & (resid <= 0.5 * resid_tol) & (low >= -0.5 * _WEIGHT_TOL)
                unsure = (finite & ~keep & ~(resid > 2.0 * resid_tol)
                          & ~(low < -2.0 * _WEIGHT_TOL))
            for i in np.flatnonzero(unsure):
                keep[i] = _polish_support(Q, S[i], h) is not None
            skipped += len(S) - int(keep.sum())
            w = np.clip(w_s[keep], 0.0, None)
            w /= w.sum(axis=1, keepdims=True)
            accepted.append((S[keep], np.einsum("ni,nij,nj->n", w, Q_S[keep], w)))
    return tuple(accepted), skipped


def _enumerate_supports(Q: np.ndarray, sign: float, stacked=None):
    """Exact extremum via stationary points of every support, plus vertices.

    ``stacked`` is ``_support_pass(Q)``, computed here when not given; one
    pass serves both signs.  The supports whose stacked value of
    ``sign * Q`` is within ``1e-9 * (1 + max|Q|)`` of the smallest are
    replayed through ``_polish_support``, and the tie rule runs on their
    replayed points in visiting order, so measure, value and notes are those
    of solving every support on its own.
    """
    accepted, skipped = _support_pass(Q) if stacked is None else stacked
    h = Q.shape[0]
    M = sign * Q
    # The tie rule looks 1e-15 and 1e-12 apart.  A support more than 1e-9
    # above the best can neither win nor tie, and with under 2**14 values in
    # that band some empty 1e-15 window walls it off from the ones that
    # decide, so leaving it out changes nothing.
    cutoff = (min((sign * vals).min() for _, vals in accepted if vals.size)
              + 1e-9 * (1.0 + np.max(np.abs(Q))))
    best_w = None
    best_val = math.inf
    for supports, vals in accepted:
        for support in supports[sign * vals <= cutoff]:
            w = _polish_support(M, support, h)
            if w is None:
                skipped += 1
                continue
            val = float(w @ M @ w)
            if val < best_val - 1e-15:
                best_w, best_val = w, val
            elif abs(val - best_val) <= 1e-12 and best_w is not None and tuple(w) < tuple(best_w):
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
                      lambda: sum_zero_definiteness(space.kernel[np.ix_(idx, idx)]))


def _quadratic_extremum(space: KernelSpace, H: Sequence[int], maximize: bool,
                        gap_tol: float, max_iter: int) -> EnergyResult:
    """The extremum over measures on H, solved once per space and arguments.

    On a dual space it is read from the primal's opposite extremum.
    """
    idx = check_subset(H, space.m)
    solve = _solve_extremum if space.reflection is None else _reflect_extremum
    return space.memo(("quadratic_extremum", idx, maximize, gap_tol, max_iter),
                      lambda: solve(space, idx, maximize, gap_tol, max_iter))


# the certificate of an extremum of C - k, from that of the opposite one of k
_REFLECTED_CERTIFICATE = {"global_convex": "global_concave_max",
                          "global_concave_max": "global_convex"}


def _reflect_extremum(space: KernelSpace, idx: tuple[int, ...], maximize: bool,
                      gap_tol: float, max_iter: int) -> EnergyResult:
    """The extremum on C - k, read from the opposite extremum on k.

    On the simplex mu' (C 11' - K) mu = C - mu' K mu exactly, so the two
    problems share their optimal measures and their Frank-Wolfe gaps.  The
    primal's measure is reused and its value evaluated on C - k, as
    ``_solve_extremum`` does; the concave and convex certificates swap.
    """
    primal, C = space.reflection
    opposite = _quadratic_extremum(primal, idx, not maximize, gap_tol, max_iter)
    w = opposite.measure.weights
    source = "minimum" if maximize else "maximum"
    return EnergyResult(
        value=float(w @ space.kernel @ w),
        measure=opposite.measure,
        certificate=_REFLECTED_CERTIFICATE.get(opposite.certificate, opposite.certificate),
        gap=opposite.gap,
        notes=opposite.notes + (f"read from the primal's {source} through C = {C!r}",),
    )


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
        stacked = space.memo(("support_pass", idx), lambda: _support_pass(Q))
        v, _, notes = _enumerate_supports(Q, sign, stacked)
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
