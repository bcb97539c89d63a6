"""Acceptance gate: closed-form spaces, oracle agreement, suite properties,
and determinism, with runtime budgets.

Each criterion prints exactly one pass/fail line (bypassing capture) and
then asserts, so the gate reads as a checklist in any pytest run.
"""
import time

import numpy as np
import pytest

from rdv import (
    Measure,
    SubsetPair,
    average_interval,
    dual_kernel,
    elton_measures,
    frostman_check,
    generate,
    inequality_chain,
    interval_grid,
    invariant_measure,
    circle,
    maximal_energy,
    min_invariance_gap,
    negative_type_test,
    quasi_invariant_convergence,
    rendezvous_number,
    validate_kernel,
    wiener_energy,
    wolf_relations,
)
from rdv.cli import main
from rdv.suites import (
    REGRESSION_SEED,
    instance_pairs,
    instance_space,
    vertex_transitive_family,
)

from oracles import circle_limit_by_quadrature, grid_minimax


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {number:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_two_point_space(capsys):
    # warm the solver paths so the timed bundle measures compute, not startup
    warm = validate_kernel([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    rendezvous_number(warm)
    maximal_energy(warm)

    t2 = validate_kernel([[0.0, 1.0], [1.0, 0.0]], name="t2")
    start = time.perf_counter()
    r = rendezvous_number(t2)
    e = maximal_energy(t2)
    dual, _ = dual_kernel(t2)
    w_dual = wiener_energy(dual).value
    inv = invariant_measure(t2, SubsetPair.full(2))
    elapsed = time.perf_counter() - start

    ok = (
        abs(r - 0.5) <= 1e-9
        and abs(e.value - 0.5) <= 1e-9
        and abs(w_dual - 0.5) <= 1e-9
        and inv.found
        and np.max(np.abs(inv.measure.weights - 0.5)) <= 1e-9
        and elapsed < 0.010
    )
    announce(
        capsys, 1, ok,
        f"two points: r={r:.12f} E={e.value:.12f} w_dual={w_dual:.12f} "
        f"invariant={inv.found} in {elapsed * 1e3:.2f} ms (< 10 ms)",
    )


def test_criterion_02_three_point_complete_graph(capsys):
    k3 = validate_kernel(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], name="k3"
    )
    r = rendezvous_number(k3)
    e = maximal_energy(k3)
    uniform_dist = float(np.max(np.abs(e.measure.weights - 1.0 / 3.0)))
    ok = abs(r - 2 / 3) <= 1e-9 and abs(e.value - 2 / 3) <= 1e-9 and uniform_dist <= 1e-9
    announce(
        capsys, 2, ok,
        f"complete triangle: r={r:.12f} E={e.value:.12f} "
        f"max|mu - 1/3|={uniform_dist:.2e}",
    )


def test_criterion_03_interval_grids(capsys):
    checks = []
    elapsed_big = None
    for m in (3, 101):
        space = generate(interval_grid(m))
        start = time.perf_counter()
        r = rendezvous_number(space)
        inv = invariant_measure(space, SubsetPair.full(m))
        nt = negative_type_test(space)
        e = maximal_energy(space)
        elapsed = time.perf_counter() - start
        if m == 101:
            elapsed_big = elapsed
        w = inv.measure.weights
        checks.append(
            abs(r - 0.5) <= 5e-3
            and inv.found
            and abs(w[0] - 0.5) <= 5e-3
            and abs(w[-1] - 0.5) <= 5e-3
            and nt.holds
            and abs(r - e.value) <= 1e-7
        )
    ok = all(checks) and elapsed_big < 5.0
    announce(
        capsys, 3, ok,
        f"interval grids m=3,101: r=1/2, endpoint invariant measure, "
        f"negative type, r=E; m=101 bundle in {elapsed_big:.3f} s (< 5 s)",
    )


def test_criterion_04_large_circle(capsys):
    target = circle_limit_by_quadrature()  # independent quadrature, = 4/pi
    space = generate(circle(512))
    start = time.perf_counter()
    r = rendezvous_number(space)
    elapsed = time.perf_counter() - start
    ok = abs(r - target) <= 1e-3 and elapsed < 30.0
    announce(
        capsys, 4, ok,
        f"512-point circle: r={r:.8f} vs quadrature {target:.8f} "
        f"(diff {abs(r - target):.2e}) in {elapsed:.2f} s (< 30 s)",
    )


def test_criterion_05_duality_and_grid_oracle(capsys, instances100):
    start = time.perf_counter()
    worst_gap = 0.0
    for space in instances100:
        avg = average_interval(space, SubsetPair.full(space.m))
        worst_gap = max(worst_gap, abs(avg.q_upper - avg.q_lower))
    worst_grid = 0.0
    for space in instances100[:10]:
        pair = SubsetPair.full(space.m)
        avg = average_interval(space, pair)
        grid_up, grid_lo = grid_minimax(space.kernel, pair.H, pair.L, denom=60)
        worst_grid = max(
            worst_grid, abs(grid_up - avg.q_upper), abs(grid_lo - avg.q_lower)
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-8 and worst_grid <= 2e-2 and elapsed < 60.0
    announce(
        capsys, 5, ok,
        f"100 six-point instances: max |q - q_lower| = {worst_gap:.2e} (<= 1e-8); "
        f"grid search step 1/60 off by at most {worst_grid:.2e} (<= 2e-2) "
        f"in {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_06_inequality_chain(capsys, instances100):
    worst_lo = worst_hi = 0.0
    worst_eq = 0.0
    nested_ok = True
    for seed, space in enumerate(instances100):
        nested, general = instance_pairs(space.m, seed)
        for pair in (nested, general):
            rep = inequality_chain(space, pair, n_max=3)
            worst_lo = min(worst_lo, rep.residual_lower_side)
            worst_hi = min(worst_hi, rep.residual_upper_side)
            worst_eq = max(worst_eq, rep.equality_residual)
        rep_nested = inequality_chain(space, nested, n_max=3)
        nested_ok = nested_ok and rep_nested.a_nonempty is True
    ok = worst_lo >= -1e-8 and worst_hi >= -1e-8 and worst_eq <= 1e-8 and nested_ok
    announce(
        capsys, 6, ok,
        f"chain on 200 pairs: residuals >= {min(worst_lo, worst_hi):.2e} (>= -1e-8), "
        f"duality residual <= {worst_eq:.2e}, nested intervals all nonempty",
    )


def test_criterion_07_equilibrium_maximum_principle(capsys, instances100):
    failures = 0
    worst_mass = 0.0
    for space in instances100:
        dual, _ = dual_kernel(space)
        eq = wiener_energy(dual).measure
        rep = frostman_check(dual, range(space.m), eq)
        worst_mass = max(worst_mass, rep.violation_mass)
        if not (rep.verdict_a and rep.verdict_b and rep.verdict_c):
            failures += 1
    ok = failures == 0
    announce(
        capsys, 7, ok,
        f"equilibrium potentials on 100 dual kernels: verdicts A/B/C all hold "
        f"(max violating mass {worst_mass:.2e} <= 1e-6)",
    )


def test_criterion_08_energy_ordering_and_strict_gap(capsys, instances100):
    order_ok = True
    equality_ok = True
    for space in instances100:
        rep = wolf_relations(space)
        order_ok = order_ok and rep.r <= rep.e + 1e-8
        if abs(rep.r - rep.e) <= 1e-7:
            equality_ok = equality_ok and rep.upper.invariant_found is True
    pinned = wolf_relations(instance_space(REGRESSION_SEED))
    strict = pinned.r < pinned.e - 1e-4
    ok = order_ok and equality_ok and strict
    announce(
        capsys, 8, ok,
        f"r <= E on all instances; equality implies an invariant measure; "
        f"pinned seed keeps a strict gap E - r = {pinned.e - pinned.r:.6f} (> 1e-4)",
    )


def test_criterion_09_two_sided_separation(capsys, instances100):
    worst_up = worst_lo = float("-inf")
    for space in instances100:
        em = elton_measures(space)
        worst_up = max(worst_up, em.max_potential_mu - (em.r + 1e-8))
        worst_lo = max(worst_lo, (em.r + 1e-8) - (em.min_potential_nu + 2e-8))
    ok = worst_up <= 0.0 and worst_lo <= 0.0
    announce(
        capsys, 9, ok,
        f"separating measures: max potential excess {worst_up:.2e}, "
        f"min potential shortfall {worst_lo:.2e} (both <= 0)",
    )


def test_criterion_10_quasi_invariance(capsys, instances100):
    # the least-oscillation measure's level is within its gap g of both
    # minimax values on every instance's nested pair
    squeeze_ok = True
    worst_excess = float("-inf")
    for seed, space in enumerate(instances100):
        nested, _ = instance_pairs(space.m, seed)
        rep = quasi_invariant_convergence(space, nested)
        squeeze_ok = squeeze_ok and rep.applicable and rep.within_bound is True
        if rep.applicable:
            worst_excess = max(worst_excess, rep.deviation - rep.minimal_gap)
    transitive_worst = 0.0
    for name, space in vertex_transitive_family():
        gap, _ = min_invariance_gap(space, SubsetPair.full(space.m))
        transitive_worst = max(transitive_worst, gap)
    ok = squeeze_ok and worst_excess <= 1e-8 and transitive_worst <= 1e-8
    announce(
        capsys, 10, ok,
        f"near-invariant levels are within the minimal gap of both minimax values "
        f"on all instances (worst excess {worst_excess:.2e} <= 1e-8); "
        f"vertex-transitive invariance gap <= {transitive_worst:.2e} (<= 1e-8)",
    )


def test_criterion_11_determinism(capsys, tmp_path):
    a, b = str(tmp_path / "run1.json"), str(tmp_path / "run2.json")
    code_a = main(["verify", "--suite", "all", "--seeds", "100", "--out", a])
    code_b = main(["verify", "--suite", "all", "--seeds", "100", "--out", b])
    bytes_a = open(a, "rb").read()
    bytes_b = open(b, "rb").read()
    ok = code_a == 0 and code_b == 0 and bytes_a == bytes_b
    announce(
        capsys, 11, ok,
        f"two full verify runs: exit codes ({code_a}, {code_b}), "
        f"report files byte-identical = {bytes_a == bytes_b}",
    )
