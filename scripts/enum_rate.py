"""Time the support enumeration's pass per support, by size.

A maximal energy on up to ``QP_ENUM_LIMIT`` points of a kernel that is not
of negative type is solved exactly by ``rdv.optimize._support_pass``: it
visits every one of the 2^h - 1 supports, solves each from its prefix by
bordering, and solves by stacked LU only the supports whose verdict the
bordered solution's error bound leaves open, replaying some of those
through a one-support solve.  For each size h it prints, on the seeded
random graph random(h, 0.5, 1) and on its twin (point 1 replaced by a
copy of point 0, so every support that holds both is singular), the
supports visited, how many were decided by bordering, by the LU fallback
and by one-support replays among the latter, and the best of three timed
passes per support, so a change to the pass can be read as less work or
as faster work.

Usage: python scripts/enum_rate.py [largest size, default 14]
"""
import sys
import time

sys.path.insert(0, "src")

from rdv.optimize import QP_ENUM_LIMIT, _support_pass
from rdv.spaces import generate, random_graph

REPEATS = 3


def twin(kernel):
    """The kernel with point 1 replaced by a copy of point 0."""
    k = kernel.copy()
    k[1] = k[0]
    k[:, 1] = k[:, 0]
    return k


def pass_seconds(kernel) -> float:
    """Best time of one ``_support_pass`` over ``kernel``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _support_pass(kernel)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    largest = int(sys.argv[1]) if len(sys.argv) > 1 else QP_ENUM_LIMIT
    print(f"{'kernel':>7} {'h':>3} {'supports':>8} {'bordered':>8} {'fallback':>8} "
          f"{'replays':>7} {'us/support':>10}")
    for name, build in (("random", lambda k: k), ("twin", twin)):
        for h in range(6, largest + 1):
            kernel = build(generate(random_graph(h, 0.5, 1)).kernel)
            swept = _support_pass(kernel)
            seconds = pass_seconds(kernel)
            print(f"{name:>7} {h:>3} {swept.visited:>8} {swept.bordered:>8} {swept.fallback:>8} "
                  f"{swept.replays:>7} {seconds / swept.visited * 1e6:>10.3f}")


if __name__ == "__main__":
    main()
