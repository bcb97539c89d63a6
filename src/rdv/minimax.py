"""Minimax potential values, the average interval, and the rendezvous number.

The upper value minimizes the worst potential a measure on H shows
anywhere on L; the lower value maximizes the best-guaranteed potential.
Both are linear programs over the probability simplex.  For H = L the two
values coincide (up to solver tolerance) and the common value is the
rendezvous number of the subspace; a persistent gap there is reported as
a hard failure, never averaged away.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    KernelSpace,
    Measure,
    SubsetPair,
    TIE_TOL,
    UniquenessViolatedError,
    ValueInterval,
)
from .chebyshev import ChebyshevTable, chebyshev_table
from .optimize import EQ, LE, LinearProgram, solve_lp

GAP_UNIQUE_TOL = 1e-8


def _value_lp(space: KernelSpace, pair: SubsetPair, upper: bool) -> tuple[float, Measure]:
    pair.check_range(space.m)
    H, L = pair.H, pair.L
    h = len(H)
    KHL = space.kernel[np.ix_(L, H)]
    sign = 1.0 if upper else -1.0
    # variables: weights on H, then the level t
    c = np.zeros(h + 1)
    c[h] = sign
    A = np.zeros((len(L) + 1, h + 1))
    A[: len(L), :h] = sign * KHL
    A[: len(L), h] = -sign
    A[len(L), :h] = 1.0
    senses = tuple([LE] * len(L)) + (EQ,)
    b = np.zeros(len(L) + 1)
    b[len(L)] = 1.0
    sol = solve_lp(LinearProgram(c=c, A=A, senses=senses, b=b))
    value = float(sol.x[h])
    measure = Measure.from_subvector(space.m, H, sol.x[:h])
    return value, measure


def q_value(space: KernelSpace, pair: SubsetPair) -> tuple[float, Measure]:
    """Smallest achievable worst-case potential on L for measures on H."""
    return _value_lp(space, pair, upper=True)


def q_lower_value(space: KernelSpace, pair: SubsetPair) -> tuple[float, Measure]:
    """Largest achievable guaranteed potential on L for measures on H."""
    return _value_lp(space, pair, upper=False)


@dataclass(frozen=True)
class AverageResult:
    """Upper and lower minimax values with their optimal measures.

    ``interval`` is the set of simultaneously achievable average levels;
    it collapses to ``unique_point`` when the two values agree within
    1e-8, and is flagged empty when the lower value strictly exceeds the
    upper one (possible for general subset pairs).
    """

    q_upper: float
    q_lower: float
    interval: ValueInterval
    mu_opt: Measure
    nu_opt: Measure
    unique_point: Optional[float]


def average_interval(space: KernelSpace, pair: SubsetPair) -> AverageResult:
    """Both minimax values over one subset pair.

    For H = L the values must agree within 1e-8 (the interval is a single
    point there); any larger discrepancy raises ``UniquenessViolatedError``
    rather than returning a fudged answer.
    """
    qu, mu = q_value(space, pair)
    ql, nu = q_lower_value(space, pair)
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
    avg = average_interval(space, pair)
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
                     cap: Optional[int] = None,
                     table: Optional[ChebyshevTable] = None) -> ChainReport:
    """Verify the two-sided sandwich of minimax values at tolerance 1e-8.

    ``table`` is the caller's ``chebyshev_table(space, pair, n, cap)`` for
    some ``n >= n_max``; its orders up to ``n_max`` are used instead of a new
    scan.  When H = L it also serves the swapped side.
    """
    pair.check_range(space.m)
    ql, _ = q_lower_value(space, pair)
    qs, _ = q_value(space, pair.swapped())
    if table is None:
        table = chebyshev_table(space, pair, n_max, cap)
    swapped = table if pair.H == pair.L else chebyshev_table(space, pair.swapped(), n_max, cap)
    lows = [(n, v) for n, v in zip(table.n_values, table.lower) if n <= n_max]
    highs = [(n, v) for n, v in zip(swapped.n_values, swapped.upper) if n <= n_max]
    cheb_lower = max((v for _, v in lows), default=0.0)
    cheb_upper = min((v for _, v in highs), default=float("inf"))
    res_lo = ql - cheb_lower
    res_hi = cheb_upper - qs
    eq_res = abs(qs - ql)
    q_upper = None
    a_nonempty = None
    if pair.nested:
        q_upper = q_value(space, pair)[0]
        a_nonempty = bool(q_upper >= ql - GAP_UNIQUE_TOL)
    ok = (
        res_lo >= -GAP_UNIQUE_TOL
        and res_hi >= -GAP_UNIQUE_TOL
        and eq_res <= GAP_UNIQUE_TOL
        and a_nonempty is not False
    )
    return ChainReport(
        pair=pair,
        orders_lower=tuple(n for n, _ in lows),
        orders_upper=tuple(n for n, _ in highs),
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
