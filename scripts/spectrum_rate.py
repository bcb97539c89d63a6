"""Time the sum-zero definiteness test by size and kernel family.

``rdv.spectral.sum_zero_definiteness`` proves its result without an
eigendecomposition where a cheap proof exists (the trace, a transitive
kernel's transform, or Schoenberg's shifted Cholesky test), and reads
``eigvalsh`` of the centered matrix everywhere else, and below the gate
``PROOF_MIN_POINTS``.  For each family and size this prints the time of
``eigvalsh`` on the centered matrix (centering included), the time of the
proof attempt, the route that proved the result ("-" when none did, so the
attempt is overhead before ``eigvalsh``), and the ratio of the two.  The
families: chord circles (circulant, cosine transform), hypercubes (XOR-invariant,
Walsh-Hadamard), interval grids (Cholesky) and seeded random graphs, which
are not of negative type, so their attempts fail.  The ratio is the time
of the test over that of ``eigvalsh``: a failed attempt is paid on top of
``eigvalsh``.  The last line prints the gate and the crossover: the
smallest size from which, at every size measured, every family's attempt,
proved or not, takes less time than ``eigvalsh``.  There a success saves
more than a failure costs.

Usage: python scripts/spectrum_rate.py [largest size, default 512]
"""
import sys
import time

sys.path.insert(0, "src")

import numpy as np

from rdv import spectral
from rdv.spaces import circle, generate, hypercube, interval_grid, random_graph
from rdv.tolerances import DEFINITENESS_TOL

SIZES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024, 2048)
FAMILIES = {
    "circle": circle,
    "grid": interval_grid,
    "hypercube": lambda m: hypercube(m.bit_length() - 1),
    "random": lambda m: random_graph(m, 0.5, 0),
}
# the random graphs' Floyd-Warshall makes the larger ones slow to build
RANDOM_MAX = 128


def best_seconds(call, budget: float = 0.05) -> float:
    """The best time of ``call`` over repeats that fill about ``budget`` s."""
    best = float("inf")
    spent = 0.0
    while spent < budget or best == float("inf"):
        start = time.perf_counter()
        call()
        took = time.perf_counter() - start
        best = min(best, took)
        spent += took
    return best


def route(k: np.ndarray) -> str:
    """Which route proves the result on K, "-" for none."""
    if spectral._proof(k, DEFINITENESS_TOL) is None:
        return "-"
    if spectral._transitive_spectrum(k) is not None:
        return "cosine" if spectral.is_cyclic(k) else "walsh"
    return "cholesky"


def main(largest: int) -> None:
    print(f"{'family':>9} {'m':>5} {'eigvalsh_s':>11} {'proof_s':>10} {'route':>8} {'ratio':>7}")
    cheaper = {}
    for family, make in FAMILIES.items():
        for m in SIZES:
            if m > largest or (family == "random" and m > RANDOM_MAX) or (
                    family == "hypercube" and m & (m - 1)):
                continue
            k = generate(make(m)).kernel
            eig = best_seconds(lambda: np.linalg.eigvalsh(spectral.centered(k)))
            proof = best_seconds(lambda: spectral._proof(k, DEFINITENESS_TOL))
            how = route(k)
            cost = proof if how != "-" else proof + eig
            cheaper.setdefault(m, []).append(proof < eig)
            print(f"{family:>9} {m:>5} {eig:>11.2e} {proof:>10.2e} {how:>8} {cost / eig:>7.2f}")
    crossover = min((m for m in cheaper if all(all(cheaper[n]) for n in cheaper if n >= m)),
                    default=None)
    print(f"gate PROOF_MIN_POINTS = {spectral.PROOF_MIN_POINTS}; measured crossover {crossover}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 512)
