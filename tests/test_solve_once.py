"""Solves cached on their space: a warm space answers as a fresh one does.

Every LP, QP, order scan, invariant candidate, sum-zero spectrum and dual
space is solved once per ``KernelSpace`` and argument list.  Each public
reader, called on a space whose cache a full analysis has already filled,
must match the same call on a fresh space built from the same kernel bit
for bit, measures included, and must solve nothing: no LP, no Frank-Wolfe
run, no support enumeration, no order scan, no dense solve and no
eigenvalue decomposition.
"""
import dataclasses

import numpy as np
import pytest

import rdv.chebyshev as chebyshev_mod
import rdv.minimax as minimax_mod
import rdv.optimize as optimize_mod
from rdv import (
    EnumerationCapExceededError,
    KernelSpace,
    NumericalBreakdownError,
    SubsetPair,
    average_interval,
    chebyshev_n,
    chebyshev_table,
    circle,
    converse_check,
    dual_kernel,
    elton_measures,
    frostman_check,
    generate,
    hypercube,
    inequality_chain,
    invariant_measure,
    maximal_energy,
    min_invariance_gap,
    negative_type_test,
    q_lower_value,
    q_value,
    quasi_invariant_convergence,
    random_graph,
    rendezvous_number,
    wiener_energy,
    wolf_relations,
)
from rdv.cli import build_analysis
from rdv.optimize import maximize_quadratic_on_simplex
from rdv.suites import QUASI_EPS, instance_pairs


def plain(value):
    """Nested tuples of a result, with arrays as (dtype, shape, bytes)."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, plain(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(plain(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, plain(v)) for k, v in value.items()))
    return value


def fresh(space):
    """A new space on the same kernel, with nothing cached."""
    return KernelSpace(space.name, space.points, space.kernel, space.is_metric)


def _cases():
    cases = []
    for m in range(4, 10):
        for seed in (m, 10 + m):
            space = generate(random_graph(m=m, edge_prob=0.5, seed=seed))
            nested, general = instance_pairs(m, seed)
            for kind, pair in (("full", SubsetPair.full(m)), ("nested", nested),
                               ("general", general)):
                cases.append(pytest.param(space, pair, None, id=f"random{m}-{seed}-{kind}"))
    for desc in (circle(7), hypercube(3)):
        space = generate(desc)
        cases.append(pytest.param(space, SubsetPair.full(space.m), None, id=space.name))
    space = generate(random_graph(m=7, edge_prob=0.5, seed=5))
    cases.append(pytest.param(space, SubsetPair.full(7), space.max_entry() + 1.5,
                              id="random7-dual-constant"))
    return cases


CASES = _cases()
FULL_CASES = [c for c in CASES if not c.id.endswith(("nested", "general"))]


def _refuse(*args, **kwargs):
    raise AssertionError("a warm space solved again")


def assert_warm_matches_fresh(monkeypatch, space, pair, constant, readers):
    """Each reader on a warm space equals it on a fresh one, and solves nothing."""
    expected = [plain(read(fresh(space))) for read in readers]
    warm = fresh(space)
    build_analysis(warm, pair, n_max=3, dual_constant=constant)
    for read in readers:
        read(warm)
    for module, name in ((minimax_mod, "solve_lp"), (optimize_mod, "_away_fw_minimize"),
                         (optimize_mod, "_enumerate_supports"), (chebyshev_mod, "_sum_chunks"),
                         (np.linalg, "solve"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(module, name, _refuse)
    assert [plain(read(warm)) for read in readers] == expected


@pytest.mark.parametrize("space, pair, constant", CASES)
def test_pair_readers(monkeypatch, space, pair, constant):
    assert_warm_matches_fresh(monkeypatch, space, pair, constant, [
        lambda s: average_interval(s, pair),
        lambda s: q_value(s, pair),
        lambda s: q_lower_value(s, pair),
        lambda s: min_invariance_gap(s, pair),
        lambda s: invariant_measure(s, pair),
        lambda s: converse_check(s, pair),
        lambda s: inequality_chain(s, pair),
        lambda s: chebyshev_table(s, pair, 3),
        lambda s: quasi_invariant_convergence(s, pair, QUASI_EPS),
        lambda s: build_analysis(s, pair, n_max=3, dual_constant=constant)[0],
    ])


@pytest.mark.parametrize("space, pair, constant", FULL_CASES)
def test_full_pair_readers(monkeypatch, space, pair, constant):
    assert_warm_matches_fresh(monkeypatch, space, pair, constant, [
        elton_measures,
        rendezvous_number,
        negative_type_test,
        lambda s: converse_check(s, pair),
        lambda s: maximize_quadratic_on_simplex(s, pair.H),
    ])


@pytest.mark.parametrize("space, pair, constant", CASES)
def test_energy_readers(monkeypatch, space, pair, constant):
    def frostman(s, H):
        dual = dual_kernel(s, constant)[0]
        return frostman_check(dual, H, wiener_energy(dual).measure)

    assert_warm_matches_fresh(monkeypatch, space, pair, constant, [
        lambda s: maximal_energy(s, constant),
        lambda s: wiener_energy(s, pair.H),
        lambda s: dual_kernel(s, constant),
        lambda s: frostman(s, range(s.m)),
        lambda s: frostman(s, pair.H),
    ])


@pytest.mark.parametrize("space, pair, constant",
                         [c for c in CASES if c.id.endswith(("full", "dual-constant"))
                          or not c.id.startswith("random")])
def test_wolf_relations(monkeypatch, space, pair, constant):
    assert_warm_matches_fresh(monkeypatch, space, pair, constant,
                              [lambda s: wolf_relations(s, constant)])


def test_the_cache_is_not_part_of_the_space():
    space = generate(circle(6))
    rendezvous_number(space)
    assert [f.name for f in dataclasses.fields(space)] == ["name", "points", "kernel",
                                                          "is_metric"]
    assert "memo" not in repr(space)


def test_one_dual_space_per_constant():
    space = generate(random_graph(6, 0.5, 2))
    dual, C = dual_kernel(space)
    assert dual_kernel(space, C)[0] is dual
    assert dual_kernel(space, C + 1.0)[0] is not dual


def test_smaller_cap_still_raises_after_a_scan():
    space = generate(random_graph(6, 0.5, 4))
    pair = SubsetPair.full(6)
    chebyshev_n(space, pair, 3)
    with pytest.raises(EnumerationCapExceededError):
        chebyshev_n(space, pair, 3, cap=1)
    assert chebyshev_table(space, pair, 3, cap=10).skipped == (2, 3)


def test_a_failed_solve_is_not_cached(monkeypatch):
    space = generate(random_graph(6, 0.5, 3))
    pair = SubsetPair((0, 1, 2), (3, 4, 5))
    real, calls = minimax_mod.solve_lp, []

    def breaking(lp):
        calls.append(lp)
        raise NumericalBreakdownError("simplex exceeded its pivot budget")

    monkeypatch.setattr(minimax_mod, "solve_lp", breaking)
    for _ in range(2):
        with pytest.raises(NumericalBreakdownError):
            q_value(space, pair)
    assert len(calls) == 2
    monkeypatch.setattr(minimax_mod, "solve_lp", real)
    assert plain(q_value(space, pair)) == plain(q_value(fresh(space), pair))
