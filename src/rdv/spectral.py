"""Spectral analysis of kernels restricted to the sum-zero subspace.

Centering a symmetric matrix with the projection P = I - (1/m) ones gives a
matrix whose quadratic form agrees with the original on vectors whose
coordinates sum to zero.  Definiteness of the centered matrix therefore
decides convexity or concavity of the energy over the probability simplex,
and negative semidefiniteness is exactly the negative-type (hypermetric)
condition for metrics.
"""
from __future__ import annotations

import numpy as np

# The one zero threshold of every sum-zero definiteness decision
DEFINITENESS_TOL = 1e-10


def centered(matrix: np.ndarray) -> np.ndarray:
    """Double-center a symmetric matrix: P @ K @ P with P = I - ones/m."""
    k = np.asarray(matrix, dtype=float)
    row_mean = k.mean(axis=1)
    total = row_mean.mean()
    return k - row_mean[:, None] - row_mean[None, :] + total


def sum_zero_definiteness(matrix: np.ndarray, tol: float = DEFINITENESS_TOL) -> dict:
    """Classify the quadratic form on the sum-zero subspace.

    Returns a dict with the extreme eigenvalues of the centered matrix and
    flags ``psd`` / ``nsd`` using ``tol`` as the zero threshold.  Both flags
    hold together only when the form vanishes on the subspace.  Eigenvalues
    only: ``structure.negative_type_test`` decomposes with vectors itself.
    """
    vals = np.linalg.eigvalsh(centered(matrix))
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    return {"lam_min": lam_min, "lam_max": lam_max,
            "psd": lam_min >= -tol, "nsd": lam_max <= tol}


def recenter_unit(vector: np.ndarray) -> np.ndarray:
    """Shift a vector to exact zero sum and normalize it to unit length."""
    c = np.asarray(vector, dtype=float).copy()
    c -= c.mean()
    norm = float(np.linalg.norm(c))
    return c / norm if norm > 0 else c
