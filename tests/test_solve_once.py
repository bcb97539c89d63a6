"""Precomputed arguments: a result passed in equals the one solved inside.

``invariant_measure``, ``converse_check``, ``inequality_chain``,
``elton_measures``, ``maximal_energy`` and ``frostman_check`` accept a solve
the caller already has; ``wolf_relations`` shares its own solves.  Every
field of every result, measures included, must match the plain call bit for
bit.
"""
import dataclasses

import numpy as np
import pytest

from rdv import (
    SubsetPair,
    average_interval,
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
    random_graph,
    rendezvous_number,
    wiener_energy,
    wolf_relations,
)
from rdv.energy import EQUALITY_TOL, ORDER_TOL, WolfReport
from rdv.suites import instance_pairs


def plain(value):
    """Nested tuples of a result, with arrays as (dtype, shape, bytes)."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, plain(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(plain(v) for v in value)
    return value


def assert_same(a, b):
    assert plain(a) == plain(b)


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


@pytest.mark.parametrize("space, pair, constant", CASES)
def test_pair_readers(space, pair, constant):
    avg = average_interval(space, pair)
    inv = invariant_measure(space, pair)
    assert_same(invariant_measure(space, pair, average=avg), inv)
    assert_same(converse_check(space, pair, average=avg, invariance=inv),
                converse_check(space, pair))
    assert_same(inequality_chain(space, pair, average=avg), inequality_chain(space, pair))


@pytest.mark.parametrize("space, pair, constant",
                         [c for c in CASES if not c.id.endswith(("nested", "general"))])
def test_full_pair_readers(space, pair, constant):
    avg = average_interval(space, pair)
    assert_same(elton_measures(space, average=avg), elton_measures(space))
    assert_same(converse_check(space, pair, max_energy=maximal_energy(space, constant)),
                converse_check(space, pair))


@pytest.mark.parametrize("space, pair, constant", CASES)
def test_energy_readers(space, pair, constant):
    dual, _ = dual_kernel(space, constant)
    eq = wiener_energy(dual)
    assert_same(maximal_energy(space, constant, dual_minimum=eq),
                maximal_energy(space, constant))
    for H in (range(space.m), pair.H):
        mu = eq.measure
        given = frostman_check(dual, H, mu, w=wiener_energy(dual, H).value)
        assert_same(given, frostman_check(dual, H, mu))


def _wolf_separate_solves(space, constant):
    """``wolf_relations`` with every quantity solved on its own."""
    full = SubsetPair.full(space.m)
    r = rendezvous_number(space)
    e = maximal_energy(space, constant)
    w = wiener_energy(space).value
    dual_space, C = dual_kernel(space, constant)
    r_dual = rendezvous_number(dual_space)
    w_dual = wiener_energy(dual_space).value

    def equality_side(sp, level, floor):
        if abs(level - floor) > EQUALITY_TOL:
            return None
        mu = average_interval(sp, full).mu_opt
        return abs(float(mu.weights @ sp.kernel @ mu.weights) - floor)

    equality = abs(r - e.value) <= EQUALITY_TOL
    dual_equality = abs(r_dual - (C - w)) <= EQUALITY_TOL
    return WolfReport(
        r=r, e=e.value, w=w, r_dual=r_dual, w_dual=w_dual, dual_constant=C,
        upper_ok=bool(r <= e.value + ORDER_TOL),
        lower_ok=bool(r >= w - ORDER_TOL),
        dual_lower_ok=bool(r_dual >= w_dual - ORDER_TOL),
        equality_applicable=equality,
        invariant_found=invariant_measure(space, full).found if equality else None,
        dual_equality_applicable=dual_equality,
        dual_invariant_found=(invariant_measure(dual_space, full).found
                              if dual_equality else None),
        equality_energy_residual=equality_side(space, r, w),
        dual_equality_energy_residual=equality_side(dual_space, r_dual, w_dual),
    )


@pytest.mark.parametrize("space, pair, constant",
                         [c for c in CASES if c.id.endswith(("full", "dual-constant"))
                          or not c.id.startswith("random")])
def test_wolf_relations(space, pair, constant):
    assert_same(wolf_relations(space, constant), _wolf_separate_solves(space, constant))
