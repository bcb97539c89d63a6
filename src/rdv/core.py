"""Domain types and validation for finite kernel spaces.

A kernel space is a finite point set together with a symmetric nonnegative
matrix of pairwise kernel values.  Metric spaces are the leading special
case: zero diagonal, strictly positive off-diagonal entries, triangle
inequality.  Everything downstream (potentials, minimax values, energies)
consumes these types.  The dual kernel C - k of ``dual_kernel`` is a space
like any other; ``check_dual_constant`` is the one check of its C.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tolerances import (
    MEASURE_NEG_TOL,
    MEASURE_SUM_TOL,
    METRIC_TOL,
    SUPPORT_EPS,
    SYMMETRY_TOL,
    TIE_TOL,
)


class RdvError(Exception):
    """Base class for all library errors; ``code`` is the machine-readable name."""

    code = "Error"


class AsymmetricKernelError(RdvError):
    code = "AsymmetricKernel"


class NegativeEntryError(RdvError):
    code = "NegativeEntry"


class NonFiniteEntryError(RdvError):
    code = "NonFiniteEntry"


class MetricViolationError(RdvError):
    code = "MetricViolation"

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class ConstantTooSmallError(RdvError):
    code = "ConstantTooSmall"


class EmptyInputError(RdvError):
    code = "EmptyInput"


class ParseError(RdvError):
    code = "ParseError"


class SchemaError(RdvError):
    code = "SchemaError"


class TooLargeError(RdvError):
    code = "TooLarge"


class DisconnectedAfterRetriesError(RdvError):
    code = "DisconnectedAfterRetries"


class IndexOutOfRangeError(RdvError):
    code = "IndexOutOfRange"


class DimensionMismatchError(RdvError):
    code = "DimensionMismatch"


class EmptySubsetError(RdvError):
    code = "EmptySubset"


class InvalidMeasureError(RdvError):
    code = "InvalidMeasure"


class EnumerationCapExceededError(RdvError):
    code = "EnumerationCapExceeded"

    def __init__(self, message: str, cap: int, required: int):
        super().__init__(message)
        self.cap = cap
        self.required = required


class NumericalBreakdownError(RdvError):
    code = "NumericalBreakdown"


class CapExceededError(RdvError):
    code = "CapExceeded"


class UniquenessViolatedError(RdvError):
    code = "UniquenessViolated"


class DualMismatchError(RdvError):
    code = "DualMismatch"


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class KernelSpace:
    """A finite point set with a symmetric nonnegative kernel matrix.

    ``is_metric`` records whether the kernel satisfies the metric axioms; it
    is set by :func:`validate_kernel` and forced to false on dual kernels.
    A space is immutable, so every solve on it is a function of its
    arguments alone: :meth:`memo` keeps each result for the space's lifetime.
    """

    name: str
    points: tuple[str, ...]
    kernel: np.ndarray
    is_metric: bool

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DimensionMismatchError(f"kernel must be square, got shape {k.shape}")
        if len(self.points) != k.shape[0]:
            raise DimensionMismatchError(
                f"{len(self.points)} point labels for a {k.shape[0]}x{k.shape[1]} kernel"
            )
        _check_nonnegative(k)
        object.__setattr__(self, "kernel", _as_readonly(k))
        object.__setattr__(self, "points", tuple(str(p) for p in self.points))
        object.__setattr__(self, "_memo", {})

    @property
    def m(self) -> int:
        return self.kernel.shape[0]

    def max_entry(self) -> float:
        return float(np.max(self.kernel)) if self.m else 0.0

    def block(self, idx: tuple[int, ...]) -> np.ndarray:
        """K[idx, idx] for a checked subset ``idx``; on every point, the kernel itself."""
        return self.kernel if len(idx) == self.m else self.kernel[np.ix_(idx, idx)]

    def memo(self, key: tuple, compute):
        """``compute()``, run once per ``key`` (a solve and all its arguments).

        A compute that raises stores nothing.  The result is shared by every
        caller and must not be mutated.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def _check_nonnegative(k: np.ndarray) -> None:
    """A negative entry of ``k`` raises ``NegativeEntryError`` naming the least one."""
    if k.size and np.min(k) < 0.0:
        i, j = np.unravel_index(int(np.argmin(k)), k.shape)
        raise NegativeEntryError(f"negative kernel entry {float(k[i, j])!r} at ({i}, {j})")


def _check_index(i: int, what: str) -> int:
    """``i`` as an int; a non-integer or negative index raises."""
    j = int(i)
    if j != i:
        raise IndexOutOfRangeError(f"{what} contains non-integer index {i!r}")
    if j < 0:
        raise IndexOutOfRangeError(f"{what} contains negative index {j}")
    return j


def _check_indices(indices: Sequence[int], what: str) -> tuple[int, ...]:
    out = [_check_index(i, what) for i in indices]
    if not out:
        raise EmptySubsetError(f"{what} must be nonempty")
    return tuple(sorted(set(out)))


def check_subset(H: Sequence[int], m: int) -> tuple[int, ...]:
    """H as sorted, de-duplicated integer indices of a nonempty subset of m points."""
    idx = _check_indices(H, "H")
    if idx[-1] >= m:
        raise IndexOutOfRangeError(f"H index {idx[-1]} out of range for {m} points")
    return idx


@dataclass(frozen=True)
class SubsetPair:
    """An ordered pair of nonempty index subsets (H, L).

    Measures live on H; potentials are evaluated on L.  Indices are stored
    sorted and de-duplicated.
    """

    H: tuple[int, ...]
    L: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "H", _check_indices(self.H, "H"))
        object.__setattr__(self, "L", _check_indices(self.L, "L"))

    @classmethod
    def full(cls, m: int) -> "SubsetPair":
        if m <= 0:
            raise EmptyInputError("cannot build a subset pair over zero points")
        idx = tuple(range(m))
        return cls(idx, idx)

    def check_range(self, m: int) -> None:
        top = max(self.H[-1], self.L[-1])
        if top >= m:
            raise IndexOutOfRangeError(f"subset index {top} out of range for {m} points")

    @property
    def nested(self) -> bool:
        return set(self.H) <= set(self.L)

    def swapped(self) -> "SubsetPair":
        return SubsetPair(self.L, self.H)


@dataclass(frozen=True, eq=False)
class Measure:
    """A probability measure on the points.

    Construction clips negligible negative weights, rejects anything worse,
    and renormalizes so the weights sum to one.  The constructors on a
    subset check its indices and write exact zeros outside it.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 1:
            raise DimensionMismatchError("measure weights must be a vector")
        if w.size == 0:
            raise EmptySubsetError("measure weights must be nonempty")
        if not np.all(np.isfinite(w)):
            raise NonFiniteEntryError("measure weights must be finite")
        if np.any(w < -MEASURE_NEG_TOL):
            raise InvalidMeasureError(f"negative weight {w.min():.3e} in measure")
        w[w < 0.0] = 0.0
        total = float(np.sum(w))
        if abs(total - 1.0) > MEASURE_SUM_TOL:
            raise InvalidMeasureError(f"measure weights sum to {total!r}, not 1")
        w /= total
        w.flags.writeable = False  # w is this measure's own copy
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.size

    def support(self) -> tuple[int, ...]:
        """Indices actually carrying mass (weight above ``SUPPORT_EPS``)."""
        return tuple(int(i) for i in np.flatnonzero(self.weights > SUPPORT_EPS))

    @classmethod
    def dirac(cls, m: int, i: int) -> "Measure":
        return cls.from_subvector(m, (i,), np.ones(1))

    @classmethod
    def uniform(cls, m: int, support: Sequence[int] | None = None) -> "Measure":
        """Equal weights on the set of indices ``support`` (all points when None)."""
        idx = check_subset(range(m) if support is None else support, m)
        return cls.from_subvector(m, idx, np.full(len(idx), 1.0 / len(idx)))

    @classmethod
    def from_subvector(cls, m: int, subset: Sequence[int], values: np.ndarray) -> "Measure":
        """The weights ``values`` on ``subset``, which must index m points."""
        check_subset(subset, m)
        w = np.zeros(m)
        w[list(subset)] = np.asarray(values, dtype=float)
        return cls(w)


@dataclass(frozen=True)
class ValueInterval:
    """A closed interval of nonnegative extended reals, possibly empty.

    When ``empty`` is set the stored endpoints are the crossing witnesses
    (lower bound exceeded upper bound) and the ``lo <= hi`` invariant is
    waived.
    """

    lo: float
    hi: float
    empty: bool = False

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise NonFiniteEntryError("interval endpoints must not be NaN")
        if not self.empty:
            if lo > hi:
                raise DimensionMismatchError(f"interval lower bound {lo!r} above upper {hi!r}")
            if lo < -MEASURE_NEG_TOL:
                raise NegativeEntryError(f"interval endpoint {lo!r} below zero")
            lo = max(lo, 0.0)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, v: float) -> "ValueInterval":
        return cls(v, v)

    @classmethod
    def between(cls, lower: float, upper: float) -> "ValueInterval":
        """[min, max] of a lower and an upper value; empty, with endpoints
        (lower, upper), where lower exceeds upper by more than ``TIE_TOL``."""
        if lower - upper > TIE_TOL:
            return cls(lower, upper, empty=True)
        return cls(min(lower, upper), max(lower, upper))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v: float) -> bool:
        return (not self.empty) and (self.lo <= v <= self.hi)


def _first_triangle_violation(k: np.ndarray, tol: float) -> tuple | None:
    """Return the lexicographically first (i, j, via) with k[i,j] > k[i,via] + k[via,j] + tol."""
    m = k.shape[0]
    for via in range(m):
        slack = k - (k[:, via][:, None] + k[via, :][None, :])
        bad = np.argwhere(slack > tol)
        if bad.size:
            i, j = min((int(a), int(b)) for a, b in bad)
            return (i, j, via)
    return None


def validate_kernel(
    matrix,
    require_metric: bool = False,
    name: str = "space",
    points: Sequence[str] | None = None,
) -> KernelSpace:
    """Validate a square matrix as a kernel and classify it as metric or not.

    Checks, in order: finiteness, symmetry (tolerance ``SYMMETRY_TOL``),
    nonnegativity, then the metric axioms (zero diagonal, positive
    off-diagonal, triangle inequality, both within ``METRIC_TOL``).
    ``is_metric`` on the result records whether all axioms hold; with
    ``require_metric`` a failure raises ``MetricViolationError`` carrying a
    witnessing triple instead.
    """
    k = np.asarray(matrix, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionMismatchError(f"kernel must be square, got shape {k.shape}")
    m = k.shape[0]
    if m == 0:
        raise EmptyInputError("kernel must have at least one point")
    if not np.all(np.isfinite(k)):
        bad = np.argwhere(~np.isfinite(k))[0]
        raise NonFiniteEntryError(f"non-finite kernel entry at {tuple(int(v) for v in bad)}")
    asym = np.abs(k - k.T)
    if np.max(asym) > SYMMETRY_TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise AsymmetricKernelError(
            f"kernel[{i}][{j}]={float(k[i, j])!r} differs from kernel[{j}][{i}]={float(k[j, i])!r}"
        )
    _check_nonnegative(k)

    is_metric = True
    witness: tuple | None = None
    reason = ""
    diag = np.abs(np.diag(k))
    if np.max(diag, initial=0.0) > METRIC_TOL:
        i = int(np.argmax(diag))
        is_metric, reason, witness = False, f"nonzero diagonal entry {k[i, i]!r} at ({i}, {i})", (i, i)
    if is_metric and m > 1:
        off = k + np.where(np.eye(m, dtype=bool), np.inf, 0.0)
        if np.min(off) <= 0.0:
            i, j = np.unravel_index(int(np.argmin(off)), off.shape)
            is_metric, reason, witness = (
                False,
                f"off-diagonal entry {k[i, j]!r} at ({i}, {j}) is not positive",
                (i, j),
            )
    if is_metric:
        tri = _first_triangle_violation(k, METRIC_TOL)
        if tri is not None:
            i, j, via = tri
            is_metric, reason, witness = (
                False,
                f"triangle inequality fails: kernel[{i}][{j}]={k[i, j]!r} > "
                f"kernel[{i}][{via}] + kernel[{via}][{j}]",
                tri,
            )
    if require_metric and not is_metric:
        raise MetricViolationError(reason, witness)

    labels = tuple(points) if points is not None else tuple(str(i) for i in range(m))
    return KernelSpace(name=name, points=labels, kernel=k, is_metric=is_metric)


def check_dual_constant(space: KernelSpace, constant: float | None) -> float:
    """The constant C of the dual kernel C - k: ``constant``, or by default
    the largest kernel entry (the diameter for a metric).

    A non-finite C raises ``NonFiniteEntryError``, and a C below the largest
    entry, which would make C - k negative, ``ConstantTooSmallError``.
    """
    top = space.max_entry()
    c = top if constant is None else float(constant)
    if not math.isfinite(c):
        raise NonFiniteEntryError(f"dual constant must be finite, got {c!r}")
    if c < top:
        raise ConstantTooSmallError(f"dual constant {c!r} is below the largest kernel entry {top!r}")
    return c


def dual_kernel(space: KernelSpace, constant: float | None = None) -> tuple[KernelSpace, float]:
    """The dual kernel C - k as a space of its own, with C from
    :func:`check_dual_constant`.

    The transform is an involution when the subtraction is exact, and
    exchanges upper and lower potential problems.  The result is never
    flagged as a metric (its diagonal is C).  Every solve on it is its own:
    what an analysis reports about C - k is read from k instead (see
    ``energy.dual_equilibrium``), and this space serves the independent
    check ``energy.dual_route_check`` and the tests.
    """
    c = check_dual_constant(space, constant)
    dual = KernelSpace(name=f"dual({space.name})", points=space.points,
                       kernel=c - space.kernel, is_metric=False)
    return dual, c
