"""Potentials and energies of measures on a kernel space.

The potential of a measure at a point is the kernel-weighted sum of the
measure's mass; the energy is the measure's own average potential.  These
two sums are the primitive quantities every minimax and equilibrium
computation is built from.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    EmptySubsetError,
    IndexOutOfRangeError,
    KernelSpace,
    Measure,
    ValueInterval,
    _check_index,
)
from .tolerances import TIE_TOL


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
    values = space.kernel[list(idx), :] @ mu.weights
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
