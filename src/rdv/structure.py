"""Invariant measures, quasi-invariance, negative type, and converse checks.

A measure on H is invariant for the pair (H, L) when its potential is
constant across L.  The least achievable potential oscillation g is itself
a linear program, ``minimax.min_invariance_gap`` (``minimax`` alone reads
level programs); invariance means that minimum is (numerically) zero.  For
H = L the program is skipped when ``potential.invariant_record`` proves a
uniform or linear-solve measure invariant.  Quasi-invariance is the same
program read once more: the least-oscillation measure's level on L is
within g of both minimax values.
Negative type means that no sum-zero charge has positive energy, that is,
the centered kernel is negative semidefinite (every hypermetric is of
negative type, not conversely).  ``spectral.sum_zero_definiteness`` decides
it once per kernel: by a proof where one applies (the trace, the transform
of a circulant or XOR-invariant kernel, Schoenberg's shifted Cholesky test
for strict negative type), by ``eigvalsh`` of the centered kernel
otherwise.  Only a failed test reads eigenvectors, for its witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import KernelSpace, Measure, SubsetPair
from .minimax import AverageResult, average_interval, min_invariance_gap
from .optimize import (
    maximize_quadratic_on_simplex,
    minimize_quadratic_on_simplex,
    solve_lp,  # not called here; perfbench's binding test pins it until its repin
    subset_definiteness,
)
from .potential import invariant_record, potentials
from .spectral import centered, recenter_unit
# not called here; perfbench's binding test pins it until its repin
from .spectral import sum_zero_definiteness
from .tolerances import AGREEMENT_TOL, INVARIANCE_TOL


@dataclass(frozen=True)
class InvarianceResult:
    """Outcome of the invariance LP.

    When found, ``constant`` is the common potential level on L and
    ``average_matches`` records whether both minimax values sit at that
    level (they must, within ``AGREEMENT_TOL``).
    """

    found: bool
    gap: float
    measure: Measure
    constant: Optional[float]
    residual: float
    average_matches: Optional[bool]


def invariant_measure(space: KernelSpace, pair: SubsetPair) -> InvarianceResult:
    """Search for a measure on H whose potential is constant on L, once per pair.

    For H = L an ``invariant_record`` is taken when there is one, with its
    potential's oscillation as ``gap``; otherwise the invariance LP decides.
    """
    return space.memo(("invariant_measure", pair), lambda: _invariant_measure(space, pair))


def _invariant_measure(space: KernelSpace, pair: SubsetPair) -> InvarianceResult:
    record = invariant_record(space, pair)
    if record is None:
        lp_gap, measure = min_invariance_gap(space, pair)
        pot = potentials(space, pair.L, measure.weights)
    else:
        measure, pot = record.measure, record.potential
    hi, lo = float(pot.max()), float(pot.min())
    gap = lp_gap if record is None else hi - lo
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
class QuasiReport:
    """The level of the least-oscillation measure against the average interval.

    The invariance LP's measure mu has potential in [s, t] on L, with
    t - s = ``minimal_gap``.  When the average interval is not empty,
    s <= min K mu <= q_lower <= q <= max K mu <= t, so ``rho``, mu's
    potential at L[0], lies within the gap of both values: ``deviation`` =
    max(|q - rho|, |q_lower - rho|) is at most the gap, which
    ``within_bound`` checks at ``INVARIANCE_TOL``.  On an empty interval
    the statement does not apply, and the last three fields are None.
    """

    applicable: bool
    minimal_gap: float
    measure: Measure
    average: AverageResult
    rho: Optional[float]
    deviation: Optional[float]
    within_bound: Optional[bool]


def quasi_invariant_convergence(space: KernelSpace, pair: SubsetPair) -> QuasiReport:
    """Check that the least-oscillation measure's level is within its gap of
    both minimax values.

    The bound holds for every measure of least oscillation, so the verdict
    does not depend on which optimal vertex the LP returns; rho and the
    deviation do.
    """
    avg = average_interval(space, pair)
    gap, measure = min_invariance_gap(space, pair)
    if avg.interval.empty:
        return QuasiReport(False, gap, measure, avg, None, None, None)
    rho = float(space.kernel[pair.L[0]] @ measure.weights)
    deviation = max(abs(avg.q_upper - rho), abs(avg.q_lower - rho))
    return QuasiReport(True, gap, measure, avg, rho, deviation,
                       bool(deviation <= gap + INVARIANCE_TOL))


@dataclass(frozen=True)
class NegativeTypeCertificate:
    """Spectral negative-type verdict.

    ``extreme_eigenvalue`` is the largest eigenvalue of the centered
    kernel, exactly 0.0 where strict negative type is proved; the test
    passes when it is at most ``tolerances.DEFINITENESS_TOL``.  On failure
    the certificate carries a sum-zero unit vector whose energy equals that
    eigenvalue up to rounding, a directly checkable witness.
    """

    holds: bool
    extreme_eigenvalue: float
    violating_vector: Optional[np.ndarray]
    witness_energy: Optional[float]


def negative_type_test(space: KernelSpace) -> NegativeTypeCertificate:
    """Decide whether sum-zero charges always have nonpositive energy.

    Verdict and eigenvalue come from the space's cached definiteness
    result, which the QP router reads too; eigenvectors are computed only
    when the test fails and a witness vector is needed.
    """
    defin = subset_definiteness(space, tuple(range(space.m)))
    if defin["nsd"]:
        return NegativeTypeCertificate(True, defin["lam_max"], None, None)
    c = recenter_unit(np.linalg.eigh(centered(space.kernel))[1][:, -1])
    return NegativeTypeCertificate(False, defin["lam_max"], c, float(c @ space.kernel @ c))


@dataclass(frozen=True)
class ConverseForm:
    """One applicability branch of the converse check."""

    applicable: bool
    failed_hypotheses: tuple[str, ...]
    ok: Optional[bool]
    target: Optional[float]
    achieved: Optional[float]
    residual: Optional[float]

    @property
    def passed(self) -> bool:
        """A branch fails only when it applies and its identity misses."""
        return not self.applicable or bool(self.ok)


@dataclass(frozen=True)
class ConverseReport:
    kernel_form: ConverseForm
    wolf_form: Optional[ConverseForm]


def _converse_form(failed: list[str], space: KernelSpace, pair: SubsetPair, level,
                   solve, measure_values: np.ndarray) -> ConverseForm:
    """One converse branch: not applicable, with reasons, if ``failed`` names a
    hypothesis; else the average ``level`` and the invariant measure's
    ``measure_values`` against the extremal energy ``solve`` finds on H."""
    if failed:
        return ConverseForm(False, tuple(failed), None, None, None, None)
    target = solve(space, pair.H).value
    level = float(level)
    measure_residual = float(np.max(np.abs(measure_values - target)))
    residual = max(abs(level - target), measure_residual)
    return ConverseForm(applicable=True, failed_hypotheses=(), ok=bool(residual <= AGREEMENT_TOL),
                        target=target, achieved=level, residual=residual)


def converse_check(space: KernelSpace, pair: SubsetPair) -> ConverseReport:
    """When an invariant measure exists and the kernel has the right sign
    structure, the unique average level must equal the extremal energy.

    Two branches: the positive-semidefinite kernel form compares the level,
    and the invariant measure's potential on L, against the minimal energy
    over H; the metric (negative-type) form, evaluated for H = L, compares
    the level, and the invariant measure's energy, against the maximal
    energy.  A branch whose hypotheses fail is reported not-applicable, with
    reasons, and asserts nothing.  An ``invariant_record`` gives the
    measure's potential and energy.  Where the Wolf form applies, the maximal
    energy is the invariant measure's own (``optimize`` reads it), so its
    independent check is ``energy.dual_route_check``, which the converse
    suite runs.
    """
    pair.check_range(space.m)
    defin = subset_definiteness(space, pair.H)
    avg = average_interval(space, pair)
    inv = invariant_measure(space, pair)
    mu = inv.measure.weights
    # both branches list these after their own hypotheses
    shared = []
    if not inv.found:
        shared.append("no invariant measure on the pair")
    if avg.unique_point is None:
        shared.append("average interval is not a single point")

    failed = []
    if not defin["psd"]:
        failed.append("kernel energy form is not positive on sum-zero charges")
    record = invariant_record(space, pair)
    potential = potentials(space, pair.L, mu) if record is None else record.potential
    kernel_form = _converse_form(failed + shared, space, pair, avg.unique_point,
                                 minimize_quadratic_on_simplex, potential)

    wolf_form = None
    if pair.H == pair.L:
        failed = []
        if not space.is_metric:
            failed.append("kernel is not a metric")
        if not defin["nsd"]:
            failed.append("restricted kernel is not of negative type")
        # mu lives on H = L, so its energy is its mass against its potential on L
        energy = np.array([potential @ mu.take(pair.L)])
        wolf_form = _converse_form(failed + shared, space, pair, avg.unique_point,
                                   maximize_quadratic_on_simplex, energy)
    return ConverseReport(kernel_form=kernel_form, wolf_form=wolf_form)
