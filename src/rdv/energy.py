"""Extremal energies, equilibrium measures, and their ties to the rendezvous value.

The minimal energy over probability measures (Wiener energy) and the
maximal energy are both quadratic programs on the simplex.  On the
simplex the dual kernel C - k has energy C minus that of k, so the
minimal energy of C - k and the maximal energy of k are one problem: the
dual space that ``dual_kernel`` builds reads its extrema from its
primal's, with no second solve.  ``dual_route_check`` keeps one
independent check of that identity, on a copy of C - k built without the
link, and asserts it for metric kernels of negative type.

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
from .minimax import average_interval
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
        min_potential=float(pot.min()),
        max_potential_on_support=max_on_support,
        violation_mass=violation_mass,
        verdict_a=bool(pot.min() >= w - tol),
        verdict_b=bool(max_on_support <= w + tol),
        verdict_c=bool(violation_mass <= tol),
    )


@dataclass(frozen=True)
class MaxEnergyResult:
    """Maximal energy with its dual route.

    ``dual_value`` is C - ``w_dual``, with ``w_dual`` the minimal energy of
    the dual kernel C - k.  That minimum is read from this maximum, so the
    two agree to rounding; ``dual_gap`` is their distance.
    ``dual_checked`` records whether ``dual_route_check`` asserts the
    agreement with an independent solve on this space.
    """

    value: float
    measure: Measure
    certificate: str
    dual_constant: Optional[float]
    dual_value: Optional[float]
    dual_gap: Optional[float]
    dual_checked: bool


def maximal_energy(space: KernelSpace, constant: Optional[float] = None) -> MaxEnergyResult:
    """Maximal energy over all probability measures, with its dual route.

    The dual route (reflecting the minimal energy of C - k) is reported
    whenever the kernel is a metric of negative type or the space is small
    enough to enumerate exactly.  The direct route's router certifies the
    concave route exactly when the kernel is of negative type, so its
    certificate decides.
    """
    direct = maximize_quadratic_on_simplex(space, tuple(range(space.m)))
    certified_metric = bool(space.is_metric and direct.certificate == "global_concave_max")
    dual_constant = dual_value = dual_gap = None
    if certified_metric or space.m <= QP_ENUM_LIMIT:
        dual_space, dual_constant = dual_kernel(space, constant)
        dual_value = dual_constant - wiener_energy(dual_space).value
        dual_gap = abs(direct.value - dual_value)
    return MaxEnergyResult(
        value=direct.value,
        measure=direct.measure,
        certificate=direct.certificate,
        dual_constant=dual_constant,
        dual_value=dual_value,
        dual_gap=dual_gap,
        dual_checked=certified_metric,
    )


def dual_route_check(space: KernelSpace, constant: Optional[float] = None) -> float:
    """|E - (C - w)|, with w the minimal energy of C - k solved on its own.

    The dual space of ``dual_kernel`` reads its minimal energy from the
    maximal energy, so ``maximal_energy``'s dual route agrees by
    construction.  Here C - k is a fresh ``KernelSpace`` with no link to
    this one, so its minimal energy is a QP of its own: an independent check
    of the reflection identity.  Where ``dual_checked`` holds (a metric of
    negative type, where both routes carry global certificates) a gap above
    ``DUAL_MATCH_TOL`` raises ``DualMismatchError``.
    """
    e = maximal_energy(space, constant)
    dual, C = dual_kernel(space, constant)
    unlinked = KernelSpace(dual.name, dual.points, dual.kernel, is_metric=False)
    dual_value = C - wiener_energy(unlinked).value
    gap = abs(e.value - dual_value)
    if e.dual_checked and gap > DUAL_MATCH_TOL:
        raise DualMismatchError(
            "direct maximal energy {:.12g} and dual route {:.12g} disagree "
            "by {:.3g} on a certified kernel".format(e.value, dual_value, gap))
    return gap


@dataclass(frozen=True)
class OrderSide:
    """One side ``low <= high`` of w <= r <= E on one kernel.

    ``ok`` is low <= high + ``ORDER_TOL``; ``equality_applicable`` is
    |high - low| <= ``EQUALITY_TOL``, and only then is an invariant measure
    on the full pair searched for: ``invariant_found`` is its outcome, None
    when the two differ.
    """

    ok: bool
    equality_applicable: bool
    invariant_found: Optional[bool]

    @property
    def invariant_when_equal(self) -> bool:
        """Equality implies an invariant measure: true when low < high or one was found."""
        return not self.equality_applicable or bool(self.invariant_found)


def order_side(space: KernelSpace, low: float, high: float) -> OrderSide:
    """The ``OrderSide`` relations of ``low`` and ``high`` on ``space``."""
    equality = bool(abs(high - low) <= EQUALITY_TOL)
    found = invariant_measure(space, SubsetPair.full(space.m)).found if equality else None
    return OrderSide(ok=bool(low <= high + ORDER_TOL), equality_applicable=equality,
                     invariant_found=found)


@dataclass(frozen=True)
class WolfReport:
    """Ordering relations between the rendezvous value and extremal energies.

    ``upper`` is r <= E, with r = E implying an invariant measure; ``lower``
    is w <= r, with r = w implying one.  On the dual kernel C - k the
    rendezvous value is C - r and the energies are C - E and C - w, and a
    measure is invariant on C - k when it is on k, so the same relations
    there restate these two sides with their roles swapped: nothing is
    solved on C - k.
    """

    r: float
    e: float
    w: float
    upper: OrderSide
    lower: OrderSide


def wolf_relations(space: KernelSpace) -> WolfReport:
    """Verify w <= r <= E and the equality/invariance implications."""
    r = float(average_interval(space, SubsetPair.full(space.m)).unique_point)
    e = maximal_energy(space).value
    w = wiener_energy(space).value
    return WolfReport(r=r, e=e, w=w, upper=order_side(space, r, e), lower=order_side(space, w, r))
