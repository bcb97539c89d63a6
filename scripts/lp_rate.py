"""Time the level-program LP solve per shape on the verification suites' instances.

Every rendezvous and minimax value the suites check is the optimum of a
small level program (``minimax.level_program``).  This runs all six
suites once, keeps every LP they hand to ``solve_lp`` (the suites share
each instance's solves, so each distinct LP once), and groups them by
shape (rows x columns of the constraint matrix).  For each shape it prints
the number of LPs, their simplex pivots and basis inversions
(refactorizations, each start basis included), the best of three timed
passes over the group per solve, and that time per pivot, so a change to
the solver can be read as less work or as faster work.  ``solve_lp``
keeps no cache, so every timed pass solves each LP from its start basis.

Usage: python scripts/lp_rate.py [seeds]   (default 100, as in rdv verify)
"""
import sys
import time
from collections import defaultdict

sys.path.insert(0, "src")

import rdv.minimax as minimax
from rdv.optimize import solve_lp
from rdv.suites import run_suites

REPEATS = 3


def suite_programs(seeds: int) -> list:
    """Every LP that ``run_suites("all", seeds)`` solves, in order."""
    programs = []

    def recording(lp):
        programs.append(lp)
        return solve_lp(lp)

    minimax.solve_lp = recording
    try:
        run_suites("all", seeds)
    finally:
        minimax.solve_lp = solve_lp
    return programs


def pass_seconds(programs: list) -> float:
    """Best time of one pass of ``solve_lp`` over ``programs``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for lp in programs:
            solve_lp(lp)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    by_shape = defaultdict(list)
    for lp in suite_programs(seeds):
        by_shape[lp.shape].append(lp)
    print(f"{'shape':>7} {'LPs':>5} {'pivots':>7} {'refactor':>8} {'us/solve':>9} {'us/pivot':>9}")
    totals = [0, 0, 0, 0.0]
    for (rows, cols), programs in sorted(by_shape.items()):
        solutions = [solve_lp(lp) for lp in programs]
        pivots = sum(s.pivots for s in solutions)
        refactorizations = sum(s.refactorizations for s in solutions)
        seconds = pass_seconds(programs)
        per_pivot = f"{seconds / pivots * 1e6:>9.1f}" if pivots else f"{'-':>9}"
        print(f"{f'{rows}x{cols}':>7} {len(programs):>5} {pivots:>7} {refactorizations:>8} "
              f"{seconds / len(programs) * 1e6:>9.1f} {per_pivot}")
        for k, v in enumerate((len(programs), pivots, refactorizations, seconds)):
            totals[k] += v
    count, pivots, refactorizations, seconds = totals
    print(f"{'all':>7} {count:>5} {pivots:>7} {refactorizations:>8} "
          f"{seconds / count * 1e6:>9.1f} {seconds / pivots * 1e6:>9.1f}")


if __name__ == "__main__":
    main()
