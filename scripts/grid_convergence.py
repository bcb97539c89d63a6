"""Tabulate rendezvous numbers of discretized spaces against continuum limits.

Doubles the point count on a classical space and prints, per row, the
rendezvous number, the distance to the continuum limit, and the ratio of
successive errors (a ratio near 4 indicates quadratic convergence in the
mesh size).  Both families have an invariant measure (uniform on the circle,
the two endpoints on the interval), so ``rendezvous_number`` reads r from
its potential, proved constant to within 1e-8 rounding included, and
solves no LP.  The circle limit is 4/pi times the radius; interval grids sit
exactly at half the diameter for every resolution, so their error column is
a sanity check rather than a discretization study.

Usage: python scripts/grid_convergence.py [family] [max_m]
       family in {circle, interval}, default circle; default max_m 128.
"""
import math
import sys

sys.path.insert(0, "src")

from rdv.minimax import rendezvous_number
from rdv.spaces import circle, generate, interval_grid


def schedule(max_m: int) -> list[int]:
    sizes, m = [], 4
    while m <= max_m:
        sizes.append(m)
        m *= 2
    return sizes


def main() -> None:
    family = sys.argv[1] if len(sys.argv) > 1 else "circle"
    max_m = int(sys.argv[2]) if len(sys.argv) > 2 else 128
    if family == "circle":
        limit = 4.0 / math.pi
        make = lambda m: circle(m)
    elif family == "interval":
        limit = 0.5
        make = lambda m: interval_grid(m)
    else:
        raise SystemExit(f"unknown family {family!r}; use circle or interval")

    print(f"{family}: continuum limit {limit:.12f}")
    print(f"{'m':>6}  {'r':>16}  {'limit - r':>12}  {'ratio':>7}")
    prev_err = None
    for m in schedule(max_m):
        r = rendezvous_number(generate(make(m)))
        err = limit - r
        ratio = f"{prev_err / err:7.2f}" if prev_err and abs(err) > 1e-15 else "      -"
        print(f"{m:>6}  {r:>16.12f}  {err:>12.3e}  {ratio}")
        prev_err = err


if __name__ == "__main__":
    main()
