"""Invariant measures, quasi-invariance, negative type, and converse checks.

A measure on H is invariant for the pair (H, L) when its potential is
constant across L.  The least achievable potential oscillation is itself a
linear program; invariance means that minimum is (numerically) zero.  For
H = L the program is skipped when ``minimax.invariant_candidate`` proves a
uniform or linear-solve measure invariant.
Negative type is decided spectrally: the centered kernel must be negative
semidefinite, which is exactly the statement that no sum-zero charge has
positive energy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import KernelSpace, Measure, SubsetPair
from .minimax import (
    INVARIANCE_TOL,
    AverageResult,
    average_interval,
    invariant_candidate,
    solve_level_program,
)
from .optimize import (
    maximize_quadratic_on_simplex,
    minimize_quadratic_on_simplex,
    solve_lp,  # not called here; perfbench's binding test pins it until its repin
    subset_definiteness,
)
from .spectral import DEFINITENESS_TOL, centered, recenter_unit
# not called here; perfbench's binding test pins it until its repin
from .spectral import sum_zero_definiteness

AGREEMENT_TOL = 1e-7
_EPS_SLACK = 1e-9


def min_invariance_gap(space: KernelSpace, pair: SubsetPair) -> tuple[float, Measure]:
    """Least possible potential oscillation over L for a measure on H.

    Solves: minimize t - s subject to s <= potential <= t on all of L.
    """
    sol = solve_level_program(space, pair, roof=True, floor=True)
    gap = max(0.0, float(sol.objective))
    measure = Measure.from_subvector(space.m, pair.H, sol.x[: len(pair.H)])
    return gap, measure


@dataclass(frozen=True)
class InvarianceResult:
    """Outcome of the invariance LP.

    When found, ``constant`` is the common potential level on L and
    ``average_matches`` records whether both minimax values sit at that
    level (they must, within 1e-7).
    """

    found: bool
    gap: float
    measure: Measure
    constant: Optional[float]
    residual: float
    average_matches: Optional[bool]


def invariant_measure(space: KernelSpace, pair: SubsetPair) -> InvarianceResult:
    """Search for a measure on H whose potential is constant on L.

    For H = L an ``invariant_candidate`` is taken when there is one, with its
    computed oscillation as ``gap``; otherwise the invariance LP decides.
    """
    measure = invariant_candidate(space, pair)
    gap = None
    if measure is None:
        gap, measure = min_invariance_gap(space, pair)
    pot = space.kernel[list(pair.L), :] @ measure.weights
    hi, lo = float(pot.max()), float(pot.min())
    gap = hi - lo if gap is None else gap
    mid = 0.5 * (hi + lo)
    residual = 0.5 * (hi - lo)
    found = gap <= INVARIANCE_TOL
    constant = mid if found else None
    matches = None
    if found:
        avg = average_interval(space, pair)
        matches = bool(
            abs(avg.q_upper - mid) <= AGREEMENT_TOL and abs(avg.q_lower - mid) <= AGREEMENT_TOL
        )
    return InvarianceResult(
        found=found,
        gap=gap,
        measure=measure,
        constant=constant,
        residual=residual,
        average_matches=matches,
    )


@dataclass(frozen=True)
class QuasiEntry:
    eps: float
    feasible: bool
    rho: Optional[float]
    deviation: Optional[float]
    within_bound: Optional[bool]


@dataclass(frozen=True)
class QuasiReport:
    """Potential levels of near-invariant measures against the average interval.

    Each feasible tolerance eps admits a measure whose potential oscillates
    by at most eps on L; its level at the first point of L must then land
    within eps (plus solver slack) of every point of the average interval.
    """

    applicable: bool
    minimal_gap: float
    measure: Optional[Measure]
    average: Optional[AverageResult]
    entries: tuple[QuasiEntry, ...]


def quasi_invariant_convergence(space: KernelSpace, pair: SubsetPair,
                                eps_sequence: Sequence[float]) -> QuasiReport:
    """Check that near-invariant potential levels squeeze the average interval."""
    avg = average_interval(space, pair)
    gap, measure = min_invariance_gap(space, pair)
    if avg.interval.empty:
        return QuasiReport(applicable=False, minimal_gap=gap, measure=measure,
                           average=avg, entries=())
    rho = float(space.kernel[pair.L[0]] @ measure.weights)
    entries = []
    for eps in eps_sequence:
        eps = float(eps)
        if gap > eps + _EPS_SLACK:
            entries.append(QuasiEntry(eps=eps, feasible=False, rho=None,
                                      deviation=None, within_bound=None))
            continue
        deviation = max(abs(avg.q_upper - rho), abs(avg.q_lower - rho))
        entries.append(QuasiEntry(
            eps=eps,
            feasible=True,
            rho=rho,
            deviation=deviation,
            within_bound=bool(deviation <= eps + INVARIANCE_TOL),
        ))
    return QuasiReport(applicable=True, minimal_gap=gap, measure=measure,
                       average=avg, entries=tuple(entries))


@dataclass(frozen=True)
class NegativeTypeCertificate:
    """Spectral negative-type verdict.

    ``extreme_eigenvalue`` is the largest eigenvalue of the centered
    kernel; the test passes when it is at most 1e-10.  On failure the
    certificate carries a sum-zero vector whose energy equals that
    eigenvalue (for the unit vector), a directly checkable witness.
    """

    holds: bool
    extreme_eigenvalue: float
    violating_vector: Optional[np.ndarray]
    witness_energy: Optional[float]


def negative_type_test(space: KernelSpace) -> NegativeTypeCertificate:
    """Decide whether sum-zero charges always have nonpositive energy."""
    vals, vecs = np.linalg.eigh(centered(space.kernel))
    lam_max = float(vals[-1])
    if lam_max <= DEFINITENESS_TOL:
        return NegativeTypeCertificate(True, lam_max, None, None)
    c = recenter_unit(vecs[:, -1])
    return NegativeTypeCertificate(False, lam_max, c, float(c @ space.kernel @ c))


@dataclass(frozen=True)
class ConverseForm:
    """One applicability branch of the converse check."""

    applicable: bool
    failed_hypotheses: tuple[str, ...]
    ok: Optional[bool]
    target: Optional[float]
    achieved: Optional[float]
    residual: Optional[float]


@dataclass(frozen=True)
class ConverseReport:
    kernel_form: ConverseForm
    wolf_form: Optional[ConverseForm]


def converse_check(space: KernelSpace, pair: SubsetPair) -> ConverseReport:
    """When an invariant measure exists and the kernel has the right sign
    structure, the unique average level must equal the extremal energy.

    Two branches: the positive-semidefinite kernel form compares the level
    against the minimal energy over H; the metric (negative-type) form,
    evaluated for H = L, compares it against the maximal energy.  A branch
    whose hypotheses fail is reported not-applicable, with reasons, and
    asserts nothing.
    """
    pair.check_range(space.m)
    defin = subset_definiteness(space, pair.H)
    avg = average_interval(space, pair)
    inv = invariant_measure(space, pair)

    failed = []
    if not defin["psd"]:
        failed.append("kernel energy form is not positive on sum-zero charges")
    if not inv.found:
        failed.append("no invariant measure on the pair")
    if avg.unique_point is None:
        failed.append("average interval is not a single point")
    if failed:
        kernel_form = ConverseForm(False, tuple(failed), None, None, None, None)
    else:
        w = minimize_quadratic_on_simplex(space, pair.H).value
        a = float(avg.unique_point)
        pot = space.kernel[list(pair.L), :] @ inv.measure.weights
        pot_res = float(np.max(np.abs(pot - w)))
        residual = max(abs(a - w), pot_res)
        kernel_form = ConverseForm(
            applicable=True,
            failed_hypotheses=(),
            ok=bool(residual <= AGREEMENT_TOL),
            target=w,
            achieved=a,
            residual=residual,
        )

    wolf_form = None
    if pair.H == pair.L:
        failed_w = []
        if not space.is_metric:
            failed_w.append("kernel is not a metric")
        if not defin["nsd"]:
            failed_w.append("restricted kernel is not of negative type")
        if not inv.found:
            failed_w.append("no invariant measure on the pair")
        if avg.unique_point is None:
            failed_w.append("average interval is not a single point")
        if failed_w:
            wolf_form = ConverseForm(False, tuple(failed_w), None, None, None, None)
        else:
            e = maximize_quadratic_on_simplex(space, pair.H).value
            r = float(avg.unique_point)
            inv_energy = float(inv.measure.weights @ space.kernel @ inv.measure.weights)
            residual = max(abs(r - e), abs(inv_energy - e))
            wolf_form = ConverseForm(
                applicable=True,
                failed_hypotheses=(),
                ok=bool(residual <= AGREEMENT_TOL),
                target=e,
                achieved=r,
                residual=residual,
            )
    return ConverseReport(kernel_form=kernel_form, wolf_form=wolf_form)
