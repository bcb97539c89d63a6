"""The minimum on a zero diagonal: 0 at a Dirac mass, with nothing solved.

The kernel is nonnegative, so where K[i, i] = 0 for some i in H the least
energy over measures on H is 0, reached at the Dirac mass at i.  The solve
returns that result before its router runs.  Every suite instance and every
benchmark space is checked against the router, with the proof switched off,
and against the one-support-at-a-time enumeration.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdv.optimize as optimize_mod
from rdv import KernelSpace, NegativeEntryError, generate, validate_kernel
from rdv.optimize import QP_ENUM_LIMIT, QP_MAX_ITER, minimize_quadratic_on_simplex
from rdv.suites import instance_pairs, instance_space, vertex_transitive_family
from rdv.tolerances import QP_GAP_TOL

from oracles import enumerate_supports_loop
from test_reflection import PERFBENCH_SPECS


def _route(space: KernelSpace, idx: tuple[int, ...]):
    """The router's minimum on ``idx``, with the zero-diagonal proof switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_mod, "_zero_diagonal_minimum", lambda *args: None)
        return optimize_mod._solve_extremum(space, idx, False, QP_GAP_TOL, QP_MAX_ITER)


def _cases():
    """(name, space, H): the suite instances on the full set and on their
    nested pair's H, the transitive family and the benchmark's spaces."""
    for seed in range(100):
        space = instance_space(seed)
        nested, _ = instance_pairs(space.m, seed)
        yield f"seed {seed}", space, tuple(range(space.m))
        yield f"seed {seed} nested", space, nested.H
    for name, space in vertex_transitive_family():
        yield name, space, tuple(range(space.m))
    for desc in PERFBENCH_SPECS:
        space = generate(desc)
        yield space.name, space, tuple(range(space.m))


@pytest.fixture(scope="module")
def proved():
    """(name, space, H, result, router's result) of every case."""
    return [(name, space, H, minimize_quadratic_on_simplex(space, H), _route(space, H))
            for name, space, H in _cases()]


def _ties_at_zero(Q: np.ndarray) -> bool:
    """Whether a stationary point other than a zero-diagonal Dirac mass has
    a value within 1e-12 of 0, where the enumeration's tie rule decides."""
    accepted = optimize_mod._support_pass(Q).accepted
    return any(value <= 1e-12 and not (len(S) == 1 and Q[S[0], S[0]] == 0.0)
               for supports, values in accepted for S, value in zip(supports, values))


def test_zero_at_the_largest_zero_diagonal_index(proved):
    assert len(proved) == 219
    for name, space, H, res, _ in proved:
        h = max(i for i in H if space.kernel[i, i] == 0.0)
        assert res.value == 0.0, name
        assert res.measure.weights.tobytes() == np.eye(space.m)[h].tobytes(), name
        assert (res.gap, res.kkt_solves, res.fw_iterations) == (0.0, 0, 0), name
        assert res.notes == (f"zero diagonal at point {h}: its Dirac mass reaches the minimum 0",)


def test_certificate_is_the_routers(proved):
    for name, _, _, res, routed in proved:
        assert res.certificate == routed.certificate, name
        assert routed.value <= 1e-12, name


def test_measure_is_the_enumerations(proved):
    compared = 0
    for name, space, H, res, _ in proved:
        Q = space.kernel[np.ix_(H, H)]
        if len(H) > QP_ENUM_LIMIT or _ties_at_zero(Q):
            continue
        w, value, _ = enumerate_supports_loop(Q, 1.0)
        assert value == 0.0, name
        assert res.measure.weights[list(H)].tobytes() == w.tobytes(), name
        compared += 1
    assert compared == 212


def test_a_negative_entry_is_rejected_at_construction():
    # the proof needs K >= 0: a space with a negative entry cannot be built,
    # and says so as validate_kernel does
    kernel = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(NegativeEntryError) as direct:
        KernelSpace("negative", ("a", "b"), kernel, False)
    with pytest.raises(NegativeEntryError) as validated:
        validate_kernel(kernel)
    assert str(direct.value) == str(validated.value)
    assert str(direct.value) == "negative kernel entry -1.0 at (0, 1)"


@st.composite
def _kernels(draw, zero_diagonal: bool):
    """A symmetric nonnegative kernel on 1..18 points; with
    ``zero_diagonal`` some diagonal entries are 0, else all are positive."""
    m = draw(st.integers(1, 18))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    upper = np.array(draw(st.lists(entry, min_size=m * m, max_size=m * m))).reshape(m, m)
    k = np.triu(upper, 1)
    k = k + k.T
    diagonal = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=m, max_size=m)))
    if zero_diagonal:
        zeros = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))
        diagonal[zeros] = 0.0
    k[np.diag_indices(m)] = diagonal
    return KernelSpace("drawn", tuple(map(str, range(m))), k, False)


@given(_kernels(zero_diagonal=True), st.data())
def test_drawn_zero_diagonal_is_the_largest_dirac(space, data):
    zeros = [i for i in range(space.m) if space.kernel[i, i] == 0.0]
    H = tuple(sorted(data.draw(st.sets(st.integers(0, space.m - 1)), label="H") | {zeros[0]}))
    res = minimize_quadratic_on_simplex(space, H)
    h = max(i for i in H if space.kernel[i, i] == 0.0)
    assert res.value == 0.0
    assert res.measure.weights.tobytes() == np.eye(space.m)[h].tobytes()
    assert res.certificate == _route(space, H).certificate


@given(_kernels(zero_diagonal=False))
def test_drawn_positive_diagonal_takes_the_route(space):
    H = tuple(range(space.m))
    res = minimize_quadratic_on_simplex(space, H)
    routed = _route(space, H)
    assert res.value == routed.value
    assert res.measure.weights.tobytes() == routed.measure.weights.tobytes()
    assert (res.certificate, res.gap, res.notes) == (routed.certificate, routed.gap, routed.notes)
    assert (res.kkt_solves, res.fw_iterations) == (routed.kkt_solves, routed.fw_iterations)
