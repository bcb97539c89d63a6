"""Minimax potential values, the average interval, and the rendezvous number.

The upper value minimizes the worst potential a measure on H shows
anywhere on L; the lower value maximizes the best-guaranteed potential.
Both are linear programs over the probability simplex.  For H = L the two
values coincide (up to solver tolerance) and the common value is the
rendezvous number of the subspace; a persistent gap there is reported as
a hard failure, never averaged away.

For H = L an invariant measure, one whose potential is constant on L,
settles both values without an LP: ``invariant_candidate`` tries the
uniform measure and the normalized solution of K[H, H] z = 1, and accepts
one only when its oscillation, rounding error included, is proved below
``INVARIANCE_TOL``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    MEASURE_NEG_TOL,
    KernelSpace,
    Measure,
    SubsetPair,
    TIE_TOL,
    UniquenessViolatedError,
    ValueInterval,
)
from .chebyshev import check_n_max, chebyshev_table
from .optimize import EQ, LE, LinearProgram, LpSolution, solve_lp
from .potential import profile

GAP_UNIQUE_TOL = 1e-8
INVARIANCE_TOL = 1e-8
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def level_program(space: KernelSpace, pair: SubsetPair, roof: bool,
                  floor: bool) -> LinearProgram:
    """The potential on L of a measure on H, held between levels, as an LP.

    Variables: the weights on H, then the level t if ``roof``, then the
    level s if ``floor``.  Rows: K[L,H] mu - t <= 0 (roof), -K[L,H] mu + s
    <= 0 (floor) and sum mu = 1.  Objective: minimize t - s.  The roof alone
    gives the upper value, the floor alone the lower value, both together
    the least potential oscillation on L.

    The starting basis is a Dirac vertex: the mass delta_j on H with the
    least objective (the first on ties), with t and s at its largest and
    smallest potential.  Its basic columns are mu_j, t, s and the slack of
    every roof and floor row but the one tight at delta_j (the first
    argmax, or argmin); with the slacks eliminated the basis has
    determinant +-1.
    """
    pair.check_range(space.m)
    H, L = pair.H, pair.L
    h, l = len(H), len(L)
    KHL = space.kernel[np.ix_(L, H)]
    signs = [sign for sign, on in ((1.0, roof), (-1.0, floor)) if on]
    cols, rows = h + len(signs), len(signs) * l + 1
    c = np.zeros(cols)
    A = np.zeros((rows, cols))
    for k, sign in enumerate(signs):
        c[h + k] = sign
        A[k * l : (k + 1) * l, :h] = sign * KHL
        A[k * l : (k + 1) * l, h + k] = -sign
    A[-1, :h] = 1.0
    senses = (LE,) * (rows - 1) + (EQ,)
    b = np.zeros(rows)
    b[-1] = 1.0
    j = int(np.argmin(sum((sign * KHL).max(axis=0) for sign in signs)))
    tight = [int(np.argmax(sign * KHL[:, j])) for sign in signs]
    slacks = [cols + k * l + i for k in range(len(signs)) for i in range(l) if i != tight[k]]
    return LinearProgram(c=c, A=A, senses=senses, b=b, basis=(j, *range(h, cols), *slacks))


def solve_level_program(space: KernelSpace, pair: SubsetPair, roof: bool,
                        floor: bool) -> LpSolution:
    """Solve ``level_program`` from its Dirac vertex, once per space and arguments."""
    return space.memo(("level_program", pair, roof, floor),
                      lambda: solve_lp(level_program(space, pair, roof, floor)))


def q_value(space: KernelSpace, pair: SubsetPair) -> tuple[float, Measure]:
    """Smallest achievable worst-case potential on L for measures on H."""
    h = len(pair.H)
    sol = solve_level_program(space, pair, roof=True, floor=False)
    return float(sol.x[h]), Measure.from_subvector(space.m, pair.H, sol.x[:h])


def q_lower_value(space: KernelSpace, pair: SubsetPair) -> tuple[float, Measure]:
    """Largest achievable guaranteed potential on L for measures on H."""
    h = len(pair.H)
    sol = solve_level_program(space, pair, roof=False, floor=True)
    return float(sol.x[h]), Measure.from_subvector(space.m, pair.H, sol.x[:h])


def _certified_invariant(space: KernelSpace, pair: SubsetPair,
                         z: np.ndarray) -> Optional[Measure]:
    """z / sum(z) as a measure on H = L, if its potential is provably near constant.

    Weights within 1e-9 of zero, relative to the largest, are snapped to
    zero; any other negative weight rejects z.  K and mu are nonnegative, so
    each computed potential is off by at most gamma_h max(K mu), with
    gamma_h = h u / (1 - h u) the rounding bound of a dot product of h
    nonzero terms (Higham, 2002).  The computed oscillation plus twice that
    must be at most ``INVARIANCE_TOL``.
    """
    if not np.all(np.isfinite(z)):
        return None
    z = np.where(np.abs(z) <= MEASURE_NEG_TOL * np.abs(z).max(), 0.0, z)
    if np.any(z < 0.0):
        return None
    mu = Measure.from_subvector(space.m, pair.H, z / z.sum())
    levels = profile(space, mu, pair.L).interval
    hu = len(pair.H) * _UNIT_ROUNDOFF
    return mu if levels.width + 2.0 * hu / (1.0 - hu) * levels.hi <= INVARIANCE_TOL else None


def invariant_candidate(space: KernelSpace, pair: SubsetPair) -> Optional[Measure]:
    """A measure on H with provably constant potential on L = H, or None.

    Tries the uniform measure (exact on vertex-transitive spaces such as the
    circle and the hypercube), then the normalized solution of
    K[H, H] z = 1 (the two endpoints on an interval grid), once per space
    and pair.  For H != L, or when both miss, returns None and the LPs
    decide.
    """
    if pair.H != pair.L:
        return None
    pair.check_range(space.m)
    return space.memo(("invariant_candidate", pair), lambda: _candidate(space, pair))


def _candidate(space: KernelSpace, pair: SubsetPair) -> Optional[Measure]:
    ones = np.ones(len(pair.H))
    mu = _certified_invariant(space, pair, ones)
    if mu is not None:
        return mu
    try:
        z = np.linalg.solve(space.kernel[np.ix_(pair.H, pair.H)], ones)
    except np.linalg.LinAlgError:
        return None
    return _certified_invariant(space, pair, z)


@dataclass(frozen=True)
class AverageResult:
    """Upper and lower minimax values with their optimal measures.

    ``interval`` is the set of simultaneously achievable average levels;
    it collapses to ``unique_point`` when the two values agree within
    1e-8, and is flagged empty when the lower value strictly exceeds the
    upper one (possible for general subset pairs).  When an invariant
    measure settled the values, ``mu_opt`` and ``nu_opt`` are that one
    measure, the same object.
    """

    q_upper: float
    q_lower: float
    interval: ValueInterval
    mu_opt: Measure
    nu_opt: Measure
    unique_point: Optional[float]


def average_interval(space: KernelSpace, pair: SubsetPair) -> AverageResult:
    """Both minimax values over one subset pair.

    For H = L, an ``invariant_candidate`` mu settles both values without an
    LP.  K is symmetric, so every measure nu on H has
    max K nu >= <nu, K mu> >= min K mu and min K nu <= <mu, K nu> <= max K mu:
    both values lie in [min K mu, max K mu], which is returned, with mu as
    the measure of both sides.  Otherwise both LPs are solved.  For H = L
    the values must agree within 1e-8 (the interval is a single point
    there); any larger discrepancy raises ``UniquenessViolatedError`` rather
    than returning a fudged answer.
    """
    mu = invariant_candidate(space, pair)
    if mu is None:
        return _lp_average(space, pair)
    levels = profile(space, mu, pair.L).interval
    return _average(space, pair, levels.hi, levels.lo, mu, mu)


def _lp_average(space: KernelSpace, pair: SubsetPair) -> AverageResult:
    """``average_interval`` from the two LPs, never from an invariant measure."""
    qu, mu = q_value(space, pair)
    ql, nu = q_lower_value(space, pair)
    return _average(space, pair, qu, ql, mu, nu)


def _average(space: KernelSpace, pair: SubsetPair, qu: float, ql: float,
             mu: Measure, nu: Measure) -> AverageResult:
    gap = qu - ql
    unique = 0.5 * (qu + ql) if abs(gap) <= GAP_UNIQUE_TOL else None
    if pair.H == pair.L and unique is None:
        raise UniquenessViolatedError(
            f"upper and lower values differ by {gap:.3e} on H = L (space {space.name})"
        )
    if ql <= qu:
        interval = ValueInterval(ql, qu)
    elif ql - qu <= TIE_TOL:
        interval = ValueInterval(qu, ql)
    else:
        interval = ValueInterval(ql, qu, empty=True)
    return AverageResult(
        q_upper=qu, q_lower=ql, interval=interval, mu_opt=mu, nu_opt=nu, unique_point=unique
    )


def rendezvous_number(space: KernelSpace, subset: Optional[Sequence[int]] = None) -> float:
    """The unique average level of a subspace (H = L)."""
    idx = tuple(range(space.m)) if subset is None else tuple(subset)
    avg = average_interval(space, SubsetPair(idx, idx))
    return float(avg.unique_point)


@dataclass(frozen=True)
class EltonMeasures:
    """A separating pair: mu keeps all potentials at or below r, nu at or above.

    ``residual_upper`` and ``residual_lower`` measure how far either side
    overshoots; both are ~0 for a sound solve.
    """

    r: float
    mu: Measure
    nu: Measure
    max_potential_mu: float
    min_potential_nu: float
    residual_upper: float
    residual_lower: float


def elton_measures(space: KernelSpace, subset: Optional[Sequence[int]] = None) -> EltonMeasures:
    """Measures witnessing the rendezvous value from both sides on H = L."""
    idx = tuple(range(space.m)) if subset is None else tuple(subset)
    pair = SubsetPair(idx, idx)
    return _elton(space, pair, average_interval(space, pair))


def _elton(space: KernelSpace, pair: SubsetPair, avg: AverageResult) -> EltonMeasures:
    """The separating pair of ``avg``, an average interval on H = L."""
    r = float(avg.unique_point)
    rows = list(pair.L)
    pot_mu = space.kernel[rows, :] @ avg.mu_opt.weights
    pot_nu = space.kernel[rows, :] @ avg.nu_opt.weights
    max_mu = float(pot_mu.max())
    min_nu = float(pot_nu.min())
    return EltonMeasures(
        r=r,
        mu=avg.mu_opt,
        nu=avg.nu_opt,
        max_potential_mu=max_mu,
        min_potential_nu=min_nu,
        residual_upper=max(0.0, max_mu - r),
        residual_lower=max(0.0, r - min_nu),
    )


@dataclass(frozen=True)
class ChainReport:
    """Sandwich of LP values between finite-order multiset bounds.

    ``q_lower`` is the lower value on (H, L); ``q_swapped`` the upper value
    on (L, H); the two are dual LPs and must agree within 1e-8.  Multiset
    bounds participate one-sided only, since finite orders merely bracket
    their limits: ``cheb_lower`` is the best constant of the (H, L) table
    over ``orders_lower``, ``cheb_upper`` the best dual constant of the
    (L, H) table over ``orders_upper``; the cap can skip different orders
    on the two sides.  ``a_nonempty`` checks, for nested pairs, that the
    lower value does not exceed the upper value on (H, L) itself.
    """

    pair: SubsetPair
    orders_lower: tuple[int, ...]
    orders_upper: tuple[int, ...]
    q_lower: float
    q_swapped: float
    cheb_lower: float
    cheb_upper: float
    residual_lower_side: float
    residual_upper_side: float
    equality_residual: float
    q_upper: Optional[float]
    a_nonempty: Optional[bool]
    ok: bool


def inequality_chain(space: KernelSpace, pair: SubsetPair, n_max: int = 3,
                     cap: Optional[int] = None) -> ChainReport:
    """Verify the two-sided sandwich of minimax values at tolerance 1e-8.

    Nested pairs read both values from ``average_interval``; for H = L the
    upper value is also the swapped one, and the table serves both sides.
    Other pairs need only the lower value's LP and the swapped upper one.
    """
    check_n_max(n_max)
    pair.check_range(space.m)
    if pair.nested:
        average = average_interval(space, pair)
        ql, q_upper = average.q_lower, average.q_upper
    else:
        ql, q_upper = q_lower_value(space, pair)[0], None
    qs = q_upper if pair.H == pair.L else q_value(space, pair.swapped())[0]
    table = chebyshev_table(space, pair, n_max, cap)
    swapped = table if pair.H == pair.L else chebyshev_table(space, pair.swapped(), n_max, cap)
    cheb_lower = max(table.lower, default=0.0)
    cheb_upper = min(swapped.upper, default=float("inf"))
    res_lo = ql - cheb_lower
    res_hi = cheb_upper - qs
    eq_res = abs(qs - ql)
    a_nonempty = None if q_upper is None else bool(q_upper >= ql - GAP_UNIQUE_TOL)
    ok = (
        res_lo >= -GAP_UNIQUE_TOL
        and res_hi >= -GAP_UNIQUE_TOL
        and eq_res <= GAP_UNIQUE_TOL
        and a_nonempty is not False
    )
    return ChainReport(
        pair=pair,
        orders_lower=table.n_values,
        orders_upper=swapped.n_values,
        q_lower=ql,
        q_swapped=qs,
        cheb_lower=cheb_lower,
        cheb_upper=cheb_upper,
        residual_lower_side=res_lo,
        residual_upper_side=res_hi,
        equality_residual=eq_res,
        q_upper=q_upper,
        a_nonempty=a_nonempty,
        ok=ok,
    )
