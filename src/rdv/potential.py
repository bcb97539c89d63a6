"""Potentials and energies of measures on a kernel space, and invariant measures.

The potential of a measure at a point is the kernel-weighted sum of the
measure's mass; the energy is the measure's own average potential.  These
two sums are the primitive quantities every minimax and equilibrium
computation is built from.  ``potentials`` forms them on a set of points,
reading the kernel in place when the set is every point.

An invariant measure on H = L, one whose potential is constant on L,
settles both minimax values without an LP (``minimax.average_interval``)
and, on a kernel of negative type with L every point, the maximal energy
without a Frank-Wolfe run (``optimize``).  ``invariant_record`` tries
the uniform measure and the normalized solution of K[H, H] z = 1, and
accepts one only when its oscillation, rounding error included, is proved
below ``INVARIANCE_TOL``, keeping it with the potential that proved it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    EmptySubsetError,
    IndexOutOfRangeError,
    KernelSpace,
    Measure,
    SubsetPair,
    ValueInterval,
    _check_index,
)
from .tolerances import INVARIANCE_TOL, MEASURE_NEG_TOL, TIE_TOL, gamma


def _check_measure(space: KernelSpace, mu: Measure) -> None:
    if mu.m != space.m:
        raise DimensionMismatchError(
            f"measure over {mu.m} points used on a space with {space.m} points"
        )


def potential_at(space: KernelSpace, mu: Measure, x: int) -> float:
    """Potential of ``mu`` at point index ``x``: sum_y k(x, y) mu(y)."""
    _check_measure(space, mu)
    xi = _check_index(x, "x")
    if xi >= space.m:
        raise IndexOutOfRangeError(f"point index {x} out of range for {space.m} points")
    return float(space.kernel[xi] @ mu.weights)


def potentials(space: KernelSpace, L: Sequence[int], w: np.ndarray) -> np.ndarray:
    """The potentials K[L, :] @ w of the weights ``w`` at the points of ``L``.

    When L is every point in order this is ``space.kernel @ w``, the same
    product bit for bit, with no copy of the kernel's rows.
    """
    rows = list(L)
    if rows == list(range(space.m)):
        return space.kernel @ w
    return space.kernel[rows, :] @ w


def energy(space: KernelSpace, mu: Measure) -> float:
    """Energy of ``mu``: the double sum of k against mu x mu."""
    _check_measure(space, mu)
    return float(mu.weights @ (space.kernel @ mu.weights))


@dataclass(frozen=True)
class PotentialProfile:
    """Potential values of one measure over an evaluation subset L.

    ``values[j]`` is the potential at ``L[j]``; ``argmin``/``argmax`` list
    the point indices of L attaining the extremes within ``TIE_TOL``.
    """

    L: tuple[int, ...]
    values: np.ndarray
    interval: ValueInterval
    argmin: tuple[int, ...]
    argmax: tuple[int, ...]


def profile(space: KernelSpace, mu: Measure, L: Sequence[int]) -> PotentialProfile:
    """Evaluate the potential of ``mu`` on every point of ``L``."""
    _check_measure(space, mu)
    idx = tuple(_check_index(i, "evaluation set") for i in L)
    if not idx:
        raise EmptySubsetError("profile over an empty evaluation set")
    if max(idx) >= space.m:
        raise IndexOutOfRangeError(f"evaluation set index out of range for {space.m} points")
    values = potentials(space, idx, mu.weights)
    lo = float(values.min())
    hi = float(values.max())
    argmin = tuple(idx[j] for j in np.flatnonzero(values <= lo + TIE_TOL))
    argmax = tuple(idx[j] for j in np.flatnonzero(values >= hi - TIE_TOL))
    return PotentialProfile(
        L=idx,
        values=values,
        interval=ValueInterval(lo, hi),
        argmin=argmin,
        argmax=argmax,
    )


@dataclass(frozen=True)
class InvariantRecord:
    """An invariant measure on H = L with its potential K[L, :] mu on L."""

    measure: Measure
    potential: np.ndarray


def _certified_invariant(space: KernelSpace, pair: SubsetPair,
                         z: np.ndarray) -> Optional[InvariantRecord]:
    """z / sum(z) as a measure on H = L, with its potential, if provably near constant.

    Weights within ``MEASURE_NEG_TOL`` of zero, relative to the largest,
    are snapped to zero; any other negative weight rejects z.  K and mu are
    nonnegative, so each computed potential is off by at most
    gamma_h max(K mu), with gamma_h (``tolerances.gamma``) the rounding
    bound of a dot product of h nonzero terms.  The computed oscillation
    plus twice that must be at most ``INVARIANCE_TOL``.  The test runs on
    the weights that ``Measure.from_subvector`` would form, with its own
    arithmetic: a rejected z builds no measure, and the potential is the measure's own.
    """
    if not np.all(np.isfinite(z)):
        return None
    z = np.where(np.abs(z) <= MEASURE_NEG_TOL * np.abs(z).max(), 0.0, z)
    if np.any(z < 0.0):
        return None
    values = z / z.sum()
    w = np.zeros(space.m)
    w[list(pair.H)] = values
    w /= np.sum(w)
    pot = potentials(space, pair.L, w)
    lo, hi = float(pot.min()), float(pot.max())
    if (hi - lo) + 2.0 * gamma(len(pair.H)) * hi > INVARIANCE_TOL:
        return None
    pot.flags.writeable = False  # shared by every reader of the record
    return InvariantRecord(Measure.from_subvector(space.m, pair.H, values), pot)


def invariant_record(space: KernelSpace, pair: SubsetPair) -> Optional[InvariantRecord]:
    """A measure on H with provably constant potential on L = H, with that potential, or None.

    Tries the uniform measure (exact on vertex-transitive spaces such as the
    circle and the hypercube), then the normalized solution of
    K[H, H] z = 1 (the two endpoints on an interval grid), once per space
    and pair.  For H != L, or when both miss, returns None and the LPs
    decide.  The minimax values, the invariance result and the converse
    check read it, and so does the maximal energy on every point of a
    kernel of negative type, where its energy is the maximum.
    """
    if pair.H != pair.L:
        return None
    pair.check_range(space.m)
    return space.memo(("invariant_record", pair), lambda: _candidate(space, pair))


def invariant_candidate(space: KernelSpace, pair: SubsetPair) -> Optional[Measure]:
    """The measure of ``invariant_record``, or None."""
    record = invariant_record(space, pair)
    return None if record is None else record.measure


def _candidate(space: KernelSpace, pair: SubsetPair) -> Optional[InvariantRecord]:
    ones = np.ones(len(pair.H))
    record = _certified_invariant(space, pair, ones)
    if record is not None:
        return record
    try:
        z = np.linalg.solve(space.block(pair.H), ones)
    except np.linalg.LinAlgError:
        return None
    return _certified_invariant(space, pair, z)
