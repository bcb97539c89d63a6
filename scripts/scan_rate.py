"""Time the Chebyshev multiset scan per order on the benchmark's structured spaces.

One order pass computes both order-n constants from the kernel sums of all
size-n multisets of H, each seen from every point of L: multisets x |L|
cells.  On a transitive space (all four here: cyclic circles and the
XOR-invariant hypercube) the pass of order n >= 2 forms only the multisets
that contain point 0, C(h + n - 2, n - 1) of them; those rows are marked
"anchored".  For each space and order this prints the multisets and cells
the pass forms, the best of three pass times on a fresh space, and the time
per formed cell, so a change to the scan can be read as less work or as
faster work.

Usage: python scripts/scan_rate.py
"""
import sys
import time

sys.path.insert(0, "src")

from rdv.chebyshev import _transitive, multiset_count, rendezvous_n
from rdv.core import SubsetPair
from rdv.spaces import circle, generate, hypercube, interval_grid

# (space, largest order): the orders that `rdv analyze` scans on the
# analyze-structured and analyze-large benchmark items under the default cap.
CASES = ((circle(64), 4), (hypercube(6), 4), (interval_grid(101), 3), (circle(256), 2))
REPEATS = 3


def pass_seconds(desc, n: int) -> float:
    """Best time of one order-n pass; each run gets a fresh space, so no cached pass.

    ``rendezvous_n`` reads both constants and nothing else, so the time is
    the pass alone, without a witness search.
    """
    best = float("inf")
    for _ in range(REPEATS):
        space = generate(desc)
        pair = SubsetPair.full(space.m)
        start = time.perf_counter()
        rendezvous_n(space, pair, n)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    print(f"{'space':<22} {'n':>2} {'multisets':>10} {'cells':>12} {'seconds':>9} "
          f"{'ns/cell':>8}  pass")
    for desc, n_max in CASES:
        space = generate(desc)
        pair = SubsetPair.full(space.m)
        for n in range(1, n_max + 1):
            anchored = _transitive(space, pair, n)
            multisets = multiset_count(space.m, n - 1 if anchored else n)
            cells = multisets * space.m
            seconds = pass_seconds(desc, n)
            print(f"{space.name:<22} {n:>2} {multisets:>10,} {cells:>12,} {seconds:>9.4f} "
                  f"{seconds / cells * 1e9:>8.2f}  {'anchored' if anchored else 'full'}")


if __name__ == "__main__":
    main()
