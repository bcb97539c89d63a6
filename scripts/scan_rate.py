"""Time the Chebyshev multiset scan per order on the benchmark's analyzed spaces.

One order pass computes both order-n constants from the kernel sums of the
size-n multisets of H, each seen from every point of L: multisets x |L|
cells.  On a transitive space (the cyclic circles and the XOR-invariant
hypercube here) the pass of order n >= 2 forms only the multisets that
contain point 0, C(h + n - 2, n - 1) of them; those rows are marked
"anchored".  A pass too large for one block is bounded: it evaluates only
the cells that could still move either constant, after bounding each prefix
and each tile of 8 last indices; those rows are marked "bounded".  A bounded
pass of more than 2^18 cells over a row-smooth block (a grid or a circle,
but not a hypercube or a random graph) bounds and first evaluates its cells
on a screen of every 8th row of L and the last; the "screen" column gives
its rows out of |L|.  For
each space and order this prints the multisets and cells of the pass, the
cells it evaluated and its bound cells, the screen, the best of three pass
times on a fresh space, and the time per cell of the pass, so a change to
the scan can be read as less work or as faster work.  The last four rows
test the screen's gate from both sides, one order each: a circle and a grid
that take the screen, and a hypercube and a random graph that do not.

Usage: python scripts/scan_rate.py
"""
import sys
import time

sys.path.insert(0, "src")

from rdv.chebyshev import _ScanWork, _scan, _transitive, multiset_count
from rdv.core import SubsetPair
from rdv.spaces import circle, generate, hypercube, interval_grid, random_graph

# (space, largest order): the orders that `rdv analyze` scans on the
# benchmark's analyze items under the default cap (random(40) is the
# analyze-random item of workload seed 0).
CASES = ((circle(64), 4), (hypercube(6), 4), (interval_grid(101), 3), (circle(256), 2),
         (interval_grid(257), 2), (random_graph(40, 0.5, 4), 4))
# (space, order): single bounded passes on either side of the screen's gate.
GATE_CASES = ((circle(256), 3), (hypercube(8), 3), (random_graph(100, 0.5, 1), 3),
              (interval_grid(1001), 2))
REPEATS = 3


def pass_seconds(desc, n: int) -> tuple[float, _ScanWork]:
    """Best time of one order-n pass, and the cells it evaluated and bound;
    each run gets a fresh space, so no cached pass.

    ``_scan`` is the pass that ``rendezvous_n`` memoizes: both constants
    and nothing else, without a witness search.
    """
    best = float("inf")
    for _ in range(REPEATS):
        space = generate(desc)
        pair = SubsetPair.full(space.m)
        work = _ScanWork()
        start = time.perf_counter()
        _scan(space, pair, n, work)
        best = min(best, time.perf_counter() - start)
    return best, work


def main() -> None:
    print(f"{'space':<30} {'n':>2} {'multisets':>10} {'cells':>12} {'evaluated':>11} "
          f"{'bound':>11} {'screen':>9} {'seconds':>9} {'ns/cell':>8}  pass")
    orders = [(desc, n) for desc, n_max in CASES for n in range(1, n_max + 1)]
    for desc, n in orders + list(GATE_CASES):
        space = generate(desc)
        pair = SubsetPair.full(space.m)
        anchored = _transitive(space, pair, n)
        multisets = multiset_count(space.m, n - 1 if anchored else n)
        cells = multisets * space.m
        seconds, work = pass_seconds(desc, n)
        kind = ("anchored" if anchored else "full") + (", bounded" if work.bound else "")
        screen = f"{work.screen}/{space.m}" if work.screen else "-"
        print(f"{space.name:<30} {n:>2} {multisets:>10,} {cells:>12,} "
              f"{work.evaluated:>11,} {work.bound:>11,} {screen:>9} {seconds:>9.4f} "
              f"{seconds / cells * 1e9:>8.2f}  {kind}")


if __name__ == "__main__":
    main()
