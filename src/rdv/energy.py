"""Extremal energies, equilibrium measures, and their ties to the rendezvous value.

The minimal energy over probability measures (Wiener energy) and the
maximal energy are both quadratic programs on the simplex.  On the
simplex the dual kernel C - k has energy C minus that of k, so the
minimal energy of C - k and the maximal energy of k are one problem:
``dual_equilibrium`` reads the value, the measure, the certificate and the
maximum principle of C - k from the maximal energy of k, with no second
kernel.  ``dual_route_check`` is the one independent check of that
identity: it solves C - k as a space of its own, and asserts the match for
metric kernels of negative type.

Equilibrium (energy-minimizing) measures satisfy a maximum principle:
their potential is at least the minimal energy everywhere and at most
that value on their own support.  ``frostman_check`` verifies the three
forms of this statement for a candidate measure; one private core states
them for it and for ``dual_equilibrium``.
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
    check_dual_constant,
    check_subset,
    dual_kernel,
)
from .minimax import average_interval
from .optimize import (
    EnergyResult,
    maximize_quadratic_on_simplex,
    minimize_quadratic_on_simplex,
)
# not called here; perfbench's binding test pins it until its repin
from .spectral import sum_zero_definiteness
from .structure import invariant_measure
from .tolerances import (
    DUAL_MATCH_TOL,
    EQUALITY_TOL,
    FROSTMAN_TOL,
    ORDER_TOL,
    SUPPORT_EPS,
)


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


def _principle(pot: np.ndarray, value: float, weights: np.ndarray,
               tol: float) -> FrostmanReport:
    """The ``FrostmanReport`` of a measure with weights ``weights`` and
    potential ``pot`` on the same points, against the minimal energy ``value``."""
    on_support = weights > SUPPORT_EPS
    low = float(pot.min())
    top = float(pot[on_support].max()) if on_support.any() else float("-inf")
    mass = float(weights[np.abs(pot - value) > tol].sum())
    return FrostmanReport(w_value=value, min_potential=low, max_potential_on_support=top,
                          violation_mass=mass, verdict_a=low >= value - tol,
                          verdict_b=top <= value + tol, verdict_c=mass <= tol)


def frostman_check(space: KernelSpace, H: Sequence[int], mu: Measure) -> FrostmanReport:
    """Test the three maximum-principle statements for ``mu`` on H, within
    ``FROSTMAN_TOL``."""
    subset = list(check_subset(H, space.m))
    if mu.weights.shape[0] != space.m:
        raise DimensionMismatchError(
            f"measure has {mu.weights.shape[0]} weights, space has {space.m} points")
    w = wiener_energy(space, subset).value
    return _principle(space.kernel[subset, :] @ mu.weights, w, mu.weights[subset], FROSTMAN_TOL)


def maximal_energy(space: KernelSpace) -> EnergyResult:
    """Maximal energy over all probability measures.

    The router certifies the concave route exactly when the kernel is of
    negative type, so ``global_concave_max`` marks a certified maximum.
    """
    return maximize_quadratic_on_simplex(space, tuple(range(space.m)))


# the certificate of the minimal energy of C - k, from that of the maximal energy of k
_DUAL_CERTIFICATE = {"global_convex": "global_concave_max",
                     "global_concave_max": "global_convex"}


@dataclass(frozen=True)
class DualEquilibrium:
    """The equilibrium measure of the dual kernel C - k, read from k.

    On the simplex mu' (C 11' - K) mu = C - mu' K mu, so the minimal energy
    of C - k is C - E at the maximal-energy measure mu of k.  ``value`` is
    C - E, ``measure`` is mu, and ``certificate`` is mu's tag with the
    concave and convex ones swapped.  The verdicts are ``frostman_check``'s
    for mu on C - k with C taken out, the maximal-energy KKT conditions on
    k within ``FROSTMAN_TOL``: A is K mu <= E + tol everywhere, B is
    K mu >= E - tol on the support of mu, and C is that the mass where
    |K mu - E| > tol is at most tol.
    """

    constant: float
    value: float
    measure: Measure
    certificate: str
    verdict_a: bool
    verdict_b: bool
    verdict_c: bool


def dual_equilibrium(space: KernelSpace, constant: Optional[float] = None) -> DualEquilibrium:
    """The ``DualEquilibrium`` of C - k, with C from ``check_dual_constant``.

    Nothing is built or solved on C - k.  Its potential under mu is C - K mu,
    so the principle is stated on -K mu against -E, where negation is exact.
    """
    c = check_dual_constant(space, constant)
    e = maximal_energy(space)
    mu = e.measure.weights
    rep = _principle(-(space.kernel @ mu), -e.value, mu, FROSTMAN_TOL)
    return DualEquilibrium(constant=c, value=c - e.value, measure=e.measure,
                           certificate=_DUAL_CERTIFICATE.get(e.certificate, e.certificate),
                           verdict_a=rep.verdict_a, verdict_b=rep.verdict_b,
                           verdict_c=rep.verdict_c)


def dual_route_check(space: KernelSpace, constant: Optional[float] = None) -> float:
    """|E - (C - w)|, with w the minimal energy of C - k solved on its own.

    ``dual_kernel`` builds C - k as a space of its own, so its minimal
    energy is a QP of its own: an independent check of the identity that
    ``dual_equilibrium`` reads from.  On a metric whose maximal energy is
    certified concave (a metric of negative type, where both routes carry
    global certificates) a gap above ``DUAL_MATCH_TOL`` raises
    ``DualMismatchError``.
    """
    e = maximal_energy(space)
    dual, C = dual_kernel(space, constant)
    dual_value = C - wiener_energy(dual).value
    gap = abs(e.value - dual_value)
    if space.is_metric and e.certificate == "global_concave_max" and gap > DUAL_MATCH_TOL:
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
    there restate these two sides with their roles swapped: no C - k is
    built.
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
