"""Extremal energies, equilibrium measures, and their ties to the rendezvous value.

The minimal energy over probability measures (Wiener energy) and the
maximal energy are both quadratic programs on the simplex.  The maximal
energy of a kernel equals the reflection of the minimal energy of its
dual kernel C - k, which gives an independent route to the same number;
for metric kernels of negative type the two routes are asserted to agree.

Equilibrium (energy-minimizing) measures satisfy a maximum principle:
their potential is at least the minimal energy everywhere and at most
that value on their own support.  ``frostman_check`` verifies the three
forms of this statement for a candidate measure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    DualMismatchError,
    KernelSpace,
    Measure,
    SubsetPair,
    check_subset,
    dual_kernel,
)
from .minimax import AverageResult, average_interval
from .optimize import (
    QP_ENUM_LIMIT,
    EnergyResult,
    maximize_quadratic_on_simplex,
    minimize_quadratic_on_simplex,
)
# not called here; perfbench's binding test pins it until its repin
from .spectral import sum_zero_definiteness
from .structure import invariant_measure

FROSTMAN_TOL = 1e-6
DUAL_MATCH_TOL = 1e-7
ORDER_TOL = 1e-8
EQUALITY_TOL = 1e-7


def wiener_energy(space: KernelSpace, H: Optional[Sequence[int]] = None) -> EnergyResult:
    """Minimal energy over probability measures supported on H (default: all)."""
    subset = tuple(range(space.m)) if H is None else tuple(H)
    return minimize_quadratic_on_simplex(space, subset)


def maximal_energy_raw(space: KernelSpace, H: Optional[Sequence[int]] = None) -> EnergyResult:
    """Maximal energy over probability measures on H, direct route only."""
    subset = tuple(range(space.m)) if H is None else tuple(H)
    return maximize_quadratic_on_simplex(space, subset)


@dataclass(frozen=True)
class FrostmanReport:
    """Maximum-principle verdicts for a candidate equilibrium measure.

    A: potential >= minimal energy everywhere on H (within tolerance).
    B: potential <= minimal energy on the support (within tolerance).
    C: the measure of the set where the potential misses the minimal
       energy by more than the tolerance is itself at most the tolerance.
    """

    w_value: float
    equilibrium: Measure
    tolerance: float
    min_potential: float
    max_potential_on_support: float
    violation_mass: float
    verdict_a: bool
    verdict_b: bool
    verdict_c: bool


def frostman_check(space: KernelSpace, H: Sequence[int], mu: Measure,
                   tol: float = FROSTMAN_TOL) -> FrostmanReport:
    """Test the three maximum-principle statements for ``mu`` on H."""
    subset = list(check_subset(H, space.m))
    if mu.weights.shape[0] != space.m:
        raise DimensionMismatchError(
            f"measure has {mu.weights.shape[0]} weights, space has {space.m} points")
    w = wiener_energy(space, subset).value
    pot = space.kernel[subset, :] @ mu.weights
    in_subset = set(subset)
    support = [i for i in mu.support() if i in in_subset]
    if support:
        pot_supp = space.kernel[support, :] @ mu.weights
        max_on_support = float(pot_supp.max())
    else:
        max_on_support = float("-inf")
    weights_on_subset = mu.weights[subset]
    bad = np.abs(pot - w) > tol
    violation_mass = float(weights_on_subset[bad].sum())
    return FrostmanReport(
        w_value=w,
        equilibrium=mu,
        tolerance=tol,
        min_potential=float(pot.min()),
        max_potential_on_support=max_on_support,
        violation_mass=violation_mass,
        verdict_a=bool(pot.min() >= w - tol),
        verdict_b=bool(max_on_support <= w + tol),
        verdict_c=bool(violation_mass <= tol),
    )


@dataclass(frozen=True)
class MaxEnergyResult:
    """Maximal energy with the dual-route cross check.

    ``dual_value`` is C - (minimal energy of the dual kernel); when the
    kernel is a metric of negative type the direct and dual values are
    asserted to agree within 1e-7.  ``dual_checked`` records whether the
    assertion was armed.
    """

    value: float
    measure: Measure
    certificate: str
    dual_constant: Optional[float]
    dual_value: Optional[float]
    dual_gap: Optional[float]
    dual_checked: bool


def maximal_energy(space: KernelSpace, constant: Optional[float] = None) -> MaxEnergyResult:
    """Maximal energy over all probability measures, with dual cross check.

    The dual route (reflecting the minimal energy of C - k) is computed
    whenever the agreement is certifiable or the space is small enough to
    enumerate exactly; the agreement assertion itself is armed only for
    metric kernels of negative type, where both routes carry global
    certificates.  The direct route's router certifies the concave route
    exactly when the kernel is of negative type, so its certificate decides.
    """
    direct = maximize_quadratic_on_simplex(space, tuple(range(space.m)))
    certified_metric = bool(space.is_metric and direct.certificate == "global_concave_max")
    dual_constant = dual_value = dual_gap = None
    if certified_metric or space.m <= QP_ENUM_LIMIT:
        dual_space, C = dual_kernel(space, constant)
        dual_min = wiener_energy(dual_space)
        dual_constant = C
        dual_value = C - dual_min.value
        dual_gap = abs(direct.value - dual_value)
        if certified_metric and dual_gap > DUAL_MATCH_TOL:
            raise DualMismatchError(
                "direct maximal energy {:.12g} and dual route {:.12g} disagree "
                "by {:.3g} on a certified kernel".format(
                    direct.value, dual_value, dual_gap))
    return MaxEnergyResult(
        value=direct.value,
        measure=direct.measure,
        certificate=direct.certificate,
        dual_constant=dual_constant,
        dual_value=dual_value,
        dual_gap=dual_gap,
        dual_checked=certified_metric,
    )


@dataclass(frozen=True)
class WolfReport:
    """Ordering relations between the rendezvous value and extremal energies.

    On every kernel: w <= r <= E (within solver slack), and likewise
    w_dual <= r_dual on the dual kernel.  When r and E coincide an
    invariant measure must exist; ``invariant_found`` records the search
    outcome whenever that equality holds.  When r equals w, the minimax
    measure is itself energy-minimizing; ``equality_energy_residual``
    carries |W(mu) - w| in that case.
    """

    r: float
    e: float
    w: float
    r_dual: float
    w_dual: float
    dual_constant: float
    upper_ok: bool
    lower_ok: bool
    dual_lower_ok: bool
    equality_applicable: bool
    invariant_found: Optional[bool]
    dual_equality_applicable: bool
    dual_invariant_found: Optional[bool]
    equality_energy_residual: Optional[float]
    dual_equality_energy_residual: Optional[float]


def _equality_side(space: KernelSpace, average: AverageResult, w: float) -> Optional[float]:
    """|energy(minimax measure) - w| when r == w, else None."""
    if abs(float(average.unique_point) - w) > EQUALITY_TOL:
        return None
    mu = average.mu_opt
    return abs(float(mu.weights @ space.kernel @ mu.weights) - w)


def wolf_relations(space: KernelSpace,
                   constant: Optional[float] = None) -> WolfReport:
    """Verify w <= r <= E and the equality/invariance implications."""
    full = SubsetPair.full(space.m)
    avg = average_interval(space, full)
    r = float(avg.unique_point)
    dual_space, C = dual_kernel(space, constant)
    e = maximal_energy(space, constant)
    w = wiener_energy(space).value
    avg_dual = average_interval(dual_space, full)
    r_dual = float(avg_dual.unique_point)
    w_dual = wiener_energy(dual_space).value

    equality_applicable = abs(r - e.value) <= EQUALITY_TOL
    invariant_found = None
    if equality_applicable:
        invariant_found = invariant_measure(space, full).found
    dual_equality_applicable = abs(r_dual - (C - w)) <= EQUALITY_TOL
    dual_invariant_found = None
    if dual_equality_applicable:
        dual_invariant_found = invariant_measure(dual_space, full).found

    return WolfReport(
        r=r,
        e=e.value,
        w=w,
        r_dual=r_dual,
        w_dual=w_dual,
        dual_constant=C,
        upper_ok=bool(r <= e.value + ORDER_TOL),
        lower_ok=bool(r >= w - ORDER_TOL),
        dual_lower_ok=bool(r_dual >= w_dual - ORDER_TOL),
        equality_applicable=equality_applicable,
        invariant_found=invariant_found,
        dual_equality_applicable=dual_equality_applicable,
        dual_invariant_found=dual_invariant_found,
        equality_energy_residual=_equality_side(space, avg, w),
        dual_equality_energy_residual=_equality_side(dual_space, avg_dual, w_dual),
    )
