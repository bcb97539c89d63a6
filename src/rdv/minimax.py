"""Minimax potential values, the average interval, and the rendezvous number.

The upper value minimizes the worst potential a measure on H shows
anywhere on L; the lower value maximizes the best-guaranteed potential.
Both are the values of the matrix game K[L, H], so one linear program
over the probability simplex gives two of them: the upper value on (L, H)
is its optimal level, and the lower value on (H, L) is read from its
certified row duals, with no LP of its own.  For H = L the two values
coincide (up to solver tolerance) and the common value is the rendezvous
number of the subspace; a persistent gap there is reported as a hard
failure, never averaged away.

Every LP the package solves is a level program (``level_program``), and
only this module reads a solved one: ``q_value``, ``q_floor_value`` and
``min_invariance_gap`` its primal, through one reader; ``q_lower_value``
its duals.

For H = L an invariant measure, one whose potential is constant on L,
settles both values without an LP: ``potential.invariant_record``
tries the uniform measure and the normalized solution of K[H, H] z = 1,
and accepts one only when its oscillation, rounding error included, is
proved below ``INVARIANCE_TOL``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    KernelSpace,
    Measure,
    SubsetPair,
    UniquenessViolatedError,
    ValueInterval,
)
from .chebyshev import check_n_max, chebyshev_table
from .optimize import EQ, LE, LinearProgram, LpSolution, solve_lp
# invariant_candidate is not called here; it stays importable from this module
from .potential import invariant_candidate, invariant_record, potentials
from .tolerances import GAP_UNIQUE_TOL


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
    KHL = space.kernel.take(L, axis=0).take(H, axis=1)
    signs = [sign for sign, on in ((1.0, roof), (-1.0, floor)) if on]
    blocks = [sign * KHL for sign in signs]
    cols, rows = h + len(signs), len(signs) * l + 1
    c = np.zeros(cols)
    A = np.zeros((rows, cols))
    for k, sign in enumerate(signs):
        c[h + k] = sign
        A[k * l : (k + 1) * l, :h] = blocks[k]
        A[k * l : (k + 1) * l, h + k] = -sign
    A[-1, :h] = 1.0
    senses = (LE,) * (rows - 1) + (EQ,)
    b = np.zeros(rows)
    b[-1] = 1.0
    highest = [block.max(axis=0) for block in blocks]
    j = int(sum(highest[1:], highest[0]).argmin())
    tight = [int(block[:, j].argmax()) for block in blocks]
    slacks = [cols + k * l + i for k in range(len(signs)) for i in range(l) if i != tight[k]]
    return LinearProgram(c=c, A=A, senses=senses, b=b, basis=(j, *range(h, cols), *slacks))


def solve_level_program(space: KernelSpace, pair: SubsetPair, roof: bool,
                        floor: bool) -> LpSolution:
    """Solve ``level_program`` from its Dirac vertex, once per space and arguments."""
    return space.memo(("level_program", pair, roof, floor),
                      lambda: solve_lp(level_program(space, pair, roof, floor)))


def _level_read(space: KernelSpace, pair: SubsetPair, roof: bool,
                floor: bool) -> tuple[float, Measure]:
    """The optimal level of a level program (t or s alone, else t - s clipped
    at zero) and its measure on H."""
    h = len(pair.H)
    sol = solve_level_program(space, pair, roof, floor)
    level = max(0.0, float(sol.objective)) if roof and floor else float(sol.x[h])
    return level, Measure.from_subvector(space.m, pair.H, sol.x[:h])


def q_value(space: KernelSpace, pair: SubsetPair) -> tuple[float, Measure]:
    """Smallest achievable worst-case potential on L for measures on H."""
    return _level_read(space, pair, roof=True, floor=False)


def q_floor_value(space: KernelSpace, pair: SubsetPair) -> tuple[float, Measure]:
    """The lower value from its own floor LP, the independent check
    (``rdv verify --suite duality``) of ``q_lower_value``'s dual read."""
    return _level_read(space, pair, roof=False, floor=True)


def min_invariance_gap(space: KernelSpace, pair: SubsetPair) -> tuple[float, Measure]:
    """Least possible potential oscillation over L for a measure on H.

    Solves: minimize t - s subject to s <= potential <= t on all of L.
    """
    return _level_read(space, pair, roof=True, floor=True)


def q_lower_value(space: KernelSpace, pair: SubsetPair) -> tuple[float, Measure]:
    """Largest achievable guaranteed potential on L for measures on H.

    No LP of its own: this is the dual of the upper value on (L, H), so the
    optimal measure is minus the certified duals of that LP's |H| roof rows.
    The value is the least potential of that measure on L, which the
    measure itself proves.
    """
    sol = solve_level_program(space, pair.swapped(), roof=True, floor=False)
    # + 0.0 keeps -0.0 out of the measure and the reports
    nu = Measure.from_subvector(space.m, pair.H, -sol.y[:len(pair.H)] + 0.0)
    return float(potentials(space, pair.L, nu.weights).min()), nu


@dataclass(frozen=True)
class AverageResult:
    """Upper and lower minimax values with their optimal measures.

    ``interval`` is the set of simultaneously achievable average levels;
    it collapses to ``unique_point`` when the two values agree within
    ``GAP_UNIQUE_TOL``, and is flagged empty when the lower value exceeds
    the upper one by more than ``TIE_TOL`` (possible for general subset
    pairs).  When an invariant measure settled the values, ``mu_opt`` and
    ``nu_opt`` are that one measure, the same object.
    """

    q_upper: float
    q_lower: float
    interval: ValueInterval
    mu_opt: Measure
    nu_opt: Measure
    unique_point: Optional[float]


def average_interval(space: KernelSpace, pair: SubsetPair) -> AverageResult:
    """Both minimax values over one subset pair, once per space and pair.

    For H = L, an invariant measure mu (``invariant_record``) settles both
    values without an LP.  K is symmetric, so every measure nu on H has
    max K nu >= <nu, K mu> >= min K mu and min K nu <= <mu, K nu> <= max K mu:
    both values lie in [min K mu, max K mu] (the potential kept with mu),
    which is returned, with mu as the measure of both sides.  Otherwise the
    upper value is solved on (H, L) and the lower value read from the upper
    value's LP on (L, H): one LP for H = L, two for other pairs.  For H = L
    the values must agree within ``GAP_UNIQUE_TOL``; any larger discrepancy
    raises ``UniquenessViolatedError`` rather than returning a fudged answer.
    """
    return space.memo(("average_interval", pair), lambda: _average_interval(space, pair))


def _average_interval(space: KernelSpace, pair: SubsetPair) -> AverageResult:
    record = invariant_record(space, pair)
    if record is not None:
        pot, mu = record.potential, record.measure
        return _average(space, pair, float(pot.max()), float(pot.min()), mu, mu)
    qu, mu = q_value(space, pair)
    ql, nu = q_lower_value(space, pair)
    return _average(space, pair, qu, ql, mu, nu)


def _average(space: KernelSpace, pair: SubsetPair, qu: float, ql: float,
             mu: Measure, nu: Measure) -> AverageResult:
    gap = qu - ql
    if abs(gap) <= GAP_UNIQUE_TOL:
        unique = 0.5 * (qu + ql)
        interval = ValueInterval.point(unique)
    elif pair.H == pair.L:
        raise UniquenessViolatedError(
            f"upper and lower values differ by {gap:.3e} on H = L (space {space.name})"
        )
    else:
        unique, interval = None, ValueInterval.between(ql, qu)
    return AverageResult(q_upper=qu, q_lower=ql, interval=interval,
                         mu_opt=mu, nu_opt=nu, unique_point=unique)


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
    pot_mu = potentials(space, pair.L, avg.mu_opt.weights)
    pot_nu = potentials(space, pair.L, avg.nu_opt.weights)
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

    ``q_lower`` is the lower value on (H, L), read from the duals of the
    upper value's LP on (L, H); ``equality_residual`` is their distance,
    which must be at most ``GAP_UNIQUE_TOL``.  Multiset bounds participate
    one-sided only, since finite orders merely bracket their limits:
    ``residual_lower_side`` is ``q_lower`` less the best constant of the
    (H, L) table over ``orders_lower``, ``residual_upper_side`` the best
    dual constant of the (L, H) table over ``orders_upper`` less the upper
    value on (L, H); the cap can skip different orders on the two sides.
    ``a_nonempty`` checks, for nested pairs, that the lower value does not
    exceed the upper value on (H, L) itself.
    """

    pair: SubsetPair
    orders_lower: tuple[int, ...]
    orders_upper: tuple[int, ...]
    q_lower: float
    residual_lower_side: float
    residual_upper_side: float
    equality_residual: float
    q_upper: Optional[float]
    a_nonempty: Optional[bool]
    ok: bool


def inequality_chain(space: KernelSpace, pair: SubsetPair, n_max: int = 3,
                     cap: Optional[int] = None) -> ChainReport:
    """Verify the two-sided sandwich of minimax values within ``GAP_UNIQUE_TOL``.

    The lower value on (H, L) and the upper value on (L, H) come from one
    LP.  Nested pairs read both values from ``average_interval``, which for
    H = L is that same LP, and the table then serves both sides.
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
    res_lo = ql - max(table.lower, default=0.0)
    res_hi = min(swapped.upper, default=float("inf")) - qs
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
        residual_lower_side=res_lo,
        residual_upper_side=res_hi,
        equality_residual=eq_res,
        q_upper=q_upper,
        a_nonempty=a_nonempty,
        ok=ok,
    )
