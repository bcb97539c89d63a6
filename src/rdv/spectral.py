"""Spectral analysis of kernels restricted to the sum-zero subspace.

Centering a symmetric matrix with the projection P = I - (1/m) ones gives a
matrix whose quadratic form agrees with the original on vectors whose
coordinates sum to zero.  Definiteness of the centered matrix therefore
decides convexity or concavity of the energy over the probability simplex.
For a metric, negative semidefiniteness is the negative-type condition
(Schoenberg: the square root of the metric embeds in Hilbert space).  Every
hypermetric is of negative type, but not conversely (Deza and Laurent,
*Geometry of Cuts and Metrics*, ch. 6), so nothing here decides whether a
metric is hypermetric.

``sum_zero_definiteness`` proves its flags and the largest eigenvalue
without an eigendecomposition where a cheap proof exists.  The routes run
cheapest first, and each one proves a result or hands over to the next:

- size gate: below ``PROOF_MIN_POINTS`` points an attempt can take longer
  than ``eigvalsh``, which decides alone;
- trace: the m - 1 sum-zero eigenvalues average (tr K - 1'K1/m)/(m - 1).  A
  mean above the threshold refutes ``nsd``; the largest eigenvalue is then
  read off the spectrum.  A mean below minus the threshold refutes ``psd``,
  as on every metric with a positive entry;
- transitive kernels: the sum-zero spectrum of a symmetric circulant is the
  cosine transform of row 0 (used within a stated error bound), and that of
  an XOR-invariant kernel of integers is the Walsh-Hadamard transform of
  row 0 (exact while every partial sum is);
- strict negative type (Schoenberg): a floating-point Cholesky of the Gram
  form G, shifted by Rump's bound, proves the form negative definite on the
  sum-zero subspace, so ``nsd`` holds and the largest eigenvalue of the
  centered matrix is exactly 0.0, on the constant vector;
- otherwise ``eigvalsh`` of the centered matrix, as below the gate.
"""
from __future__ import annotations

import numpy as np

from .tolerances import DEFINITENESS_TOL, ETA, U, gamma

# Below this many points every decision reads eigvalsh.  From here up, a
# proof attempt on each family that scripts/spectrum_rate.py times, proved
# or not, takes less time than eigvalsh; at 32 points hypercube(5)'s took
# 1.2 times as long, and at 12-16 points eigvalsh takes about 20-25 us
# against 25-45 us for an attempt.
PROOF_MIN_POINTS = 48


def centered(matrix: np.ndarray) -> np.ndarray:
    """Double-center a symmetric matrix: P @ K @ P with P = I - ones/m."""
    k = np.asarray(matrix, dtype=float)
    row_mean = k.mean(axis=1)
    total = row_mean.mean()
    return k - row_mean[:, None] - row_mean[None, :] + total


def sum_zero_definiteness(matrix: np.ndarray, tol: float = DEFINITENESS_TOL) -> dict:
    """Classify the quadratic form on the sum-zero subspace.

    Returns a dict with ``lam_max``, the largest eigenvalue of the centered
    matrix, and the flags ``psd`` / ``nsd`` using ``tol`` as the zero
    threshold.  Both flags hold together only when the form vanishes on the
    subspace.  A proof route (see the module docstring) decides where one
    applies; otherwise eigenvalues only: ``structure.negative_type_test``
    decomposes with vectors itself.
    """
    k = np.asarray(matrix, dtype=float)
    proved = _proof(k, tol) if k.shape[0] >= PROOF_MIN_POINTS else None
    if proved is not None:
        return proved
    vals = np.linalg.eigvalsh(centered(k))
    lam_max = float(vals[-1])
    return {"lam_max": lam_max, "psd": float(vals[0]) >= -tol, "nsd": lam_max <= tol}


def _proof(k: np.ndarray, tol: float) -> dict | None:
    """``sum_zero_definiteness`` of K (m >= 2 points) proved without an
    eigendecomposition, or None where no route proves every field."""
    m = k.shape[0]
    scale = max(float(k.max()), -float(k.min()))
    # The trace and the total are sums of at most m^2 terms of size at most
    # scale, then three more roundings: the mean errs by at most
    # gamma_(m^2 + 3) * 2m * scale / (m - 1) <= 4 gamma_(m^2 + 3) * scale.
    mean = (float(np.trace(k)) - float(k.sum()) / m) / (m - 1)
    slack = tol + 4.0 * gamma(m * m + 3) * scale
    if mean > slack:
        return None
    spectrum = _transitive_spectrum(k)
    if spectrum is not None:
        return _from_spectrum(*spectrum, tol)
    if mean < -slack and _strictly_negative_type(k, scale):
        return {"lam_max": 0.0, "psd": False, "nsd": True}
    return None


def _from_spectrum(values: np.ndarray, err: float, tol: float) -> dict | None:
    """The result from the sum-zero eigenvalues, each within ``err`` of
    ``values``, or None where that leaves ``lam_max`` or a flag open.

    ``lam_max`` is max(0, largest sum-zero eigenvalue), the 0 being the
    constant vector's.  It is taken from inexact values only when they prove
    every sum-zero eigenvalue negative, so that it is exactly 0.0.
    """
    hi, lo = float(values.max()), float(values.min())
    if err and hi + err >= 0.0:
        return None
    if lo - err < -tol <= lo + err:
        return None
    lam_max = max(0.0, hi)
    return {"lam_max": lam_max, "psd": lo - err >= -tol, "nsd": lam_max <= tol}


def _transitive_spectrum(k: np.ndarray) -> tuple[np.ndarray, float] | None:
    """The sum-zero eigenvalues of a transitive kernel read from row 0, and a
    bound on their error; None on any other kernel.

    - A symmetric circulant (``is_cyclic`` with row 0 a palindrome) has
      eigenvalue sum_j K[0, j] cos(2 pi f j / m) on frequency f, 0 for the
      constant (``_cosine_sums``).  Each table cosine is within 27u of the
      true one: its angle carries three roundings, at most 3u * 2 pi, and
      numpy's cos is taken to be within 4 ulps, 8u here.  Each sum adds
      gamma_m of its absolute terms, so the bound is gamma_(m+32) sum|row|.
    - An XOR-invariant kernel (``is_xor_invariant``) has K[i, j] = K[0, i ^ j]
      and eigenvalue sum_j K[0, j] (-1)^popcount(s & j) on the Walsh
      function s, 0 for the constant.  On integers whose absolute sum is at
      most 2^53 every partial sum of the Walsh-Hadamard transform is an
      exact integer, so the bound is 0.
    """
    row = k[0]
    m = row.size
    if is_cyclic(k) and np.array_equal(row[1:], row[:0:-1]):
        return _cosine_sums(row), gamma(m + 32) * float(np.abs(row).sum())
    if m <= exact_sum_terms(row) and is_xor_invariant(k):
        return _walsh_hadamard(row)[1:], 0.0
    return None


def _cosine_sums(row: np.ndarray) -> np.ndarray:
    """sum_j row[j] cos(2 pi f j / m) for f = 1, ..., m // 2.

    The angle of (f, j) is the table angle 2 pi (f j mod m) / m, and blocks
    of frequencies keep each index block near 2^16 entries.  This is
    O(m^2), 0.06 s at m = 4096, where an FFT would be O(m log m); but
    numpy.fft loads a module of its own at first use, which cost more peak
    memory and time per process than the transform saves at the sizes an
    analysis meets.
    """
    m = row.size
    table = np.cos(2.0 * np.pi / m * np.arange(m))
    freqs = np.arange(1, m // 2 + 1)
    cols = np.arange(m)
    out = np.empty(freqs.size)
    step = max(1, 2 ** 16 // m)
    for a in range(0, freqs.size, step):
        out[a:a + step] = table[np.outer(freqs[a:a + step], cols) % m] @ row
    return out


def _walsh_hadamard(row: np.ndarray) -> np.ndarray:
    """sum_j row[j] (-1)^popcount(s & j) for every s: the butterflies of the
    fast Walsh-Hadamard transform, in natural order (row has 2^d entries)."""
    m = row.size
    v = row
    h = 1
    while h < m:
        pairs = v.reshape(-1, 2, h)
        v = np.concatenate((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1)
        h *= 2
    return v.reshape(m)


def _strictly_negative_type(k: np.ndarray, scale: float) -> bool:
    """Whether the form of K is proved negative definite on the sum-zero
    subspace, by Schoenberg's criterion and a shifted Cholesky test.

    On the first n = m - 1 points let G = -(K_ij - K_ni - K_nj + K_nn)/2
    (the point n is the last).  A sum-zero x = (y, -sum y) has
    x'Kx = -2 y'Gy, so the form is negative definite on the subspace exactly
    when G is positive definite.

    If the floating-point Cholesky of A = fl(G~ - sI) runs to completion,
    where G~ is G as computed, then A + E = R'R with ||E||_2 <= c tr A and
    c = gamma_(n+1) / (1 - gamma_(n+1)) (Demmel's bound, as used by Rump,
    "Verification of positive definiteness", BIT 46, 2006), plus
    4(n + 1)(2(n + 1) + max diag) * 2^-1074 for underflow.  So
    lambda_min(G) >= s - c tr G~ - ||G~ - G||_2 - (the shift's rounding).
    s is twice the sum of c tr G~, the bound n * 2 gamma_3 * scale on
    ||G~ - G||_2 (each entry of G~ is three roundings of four terms of size
    at most scale) and u max diag; the factor 2 covers the shift's rounding
    and the rounding in computing s.  Hypercubes, of negative type but not
    strictly, fail here; their transform proves them instead.
    """
    n = k.shape[0] - 1
    last = k[n, :n]
    gram = k[:n, :n] - last[:, None]
    gram -= last
    gram += k[n, n]
    gram *= -0.5
    diag = np.abs(gram.diagonal())
    top = float(diag.max())
    c = gamma(n + 1) / (1.0 - gamma(n + 1))
    shift = (2.0 * (c * float(diag.sum()) + 2.0 * n * gamma(3) * scale + U * top)
             + 4.0 * (n + 1) * (2.0 * (n + 1) + top) * ETA)
    gram.flat[::n + 1] -= shift
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def is_cyclic(k: np.ndarray) -> bool:
    """K[i + 1, j + 1] == K[i, j] for all i, j, indices mod m.

    The pairs (i + t, j + t) form cycles, one relation per step, and each
    cycle has one step from column m - 1 to column 0.  Equality along all
    other steps implies it there too, so those steps are not compared.
    """
    return (np.array_equal(k[1:, 1:], k[:-1, :-1])
            and np.array_equal(k[0, 1:], k[-1, :-1]))


def is_xor_invariant(k: np.ndarray) -> bool:
    """K[i ^ p, j ^ p] == K[i, j] for all i, j and every p < m, that is,
    K[i, j] == K[0, i ^ j].

    Such a K is [[A, B], [B, A]] with A and B of the same kind, so each step
    checks that the lower half of the top r rows repeats their upper half
    with the halves of every r-column block swapped, then goes on to the
    upper half: m^2 - m comparisons in all.
    """
    m = k.shape[0]
    if m & (m - 1):
        return False
    r = m
    while r > 1:
        h = r // 2
        strip = k[:r].reshape(2, h, m // r, 2, h)
        if not np.array_equal(strip[1], strip[0, :, :, ::-1]):
            return False
        r = h
    return True


def exact_sum_terms(row: np.ndarray) -> float:
    """The most terms of ``row`` whose every signed sum is exact: 2^53 over
    the largest absolute entry (at least 1) for a row of integers, 0 for
    any other row."""
    if not np.array_equal(row, np.floor(row)):
        return 0
    return 2.0 ** 53 // max(1.0, float(np.abs(row).max()))


def recenter_unit(vector: np.ndarray) -> np.ndarray:
    """Shift a vector to exact zero sum and normalize it to unit length."""
    c = np.asarray(vector, dtype=float).copy()
    c -= c.mean()
    norm = float(np.linalg.norm(c))
    return c / norm if norm > 0 else c
