"""Tests of the benchmark's tracer and checks: ``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import contextlib
import io
import json

import pytest

import workloads

workloads.use_checkout_source()

import rdv.cli as cli  # noqa: E402
from tracer import DETERMINISTIC, Tracer, unwrapped_bindings  # noqa: E402


def _traced(argv, path):
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(path)]) == 0
    return tracer.summary()


def test_patch_leaves_no_unwrapped_binding():
    expected = {
        "solve_lp": ("optimize", "minimax", "structure"),
        "minimize_quadratic_on_simplex": ("optimize", "energy", "structure"),
        "maximize_quadratic_on_simplex": ("optimize", "energy", "structure"),
        "sum_zero_definiteness": ("spectral", "optimize", "energy", "structure"),
        "chebyshev_table": ("chebyshev", "minimax", "cli"),
    }
    tracer = Tracer()
    try:
        sites = set(tracer.patch())
        assert unwrapped_bindings() == []
    finally:
        tracer.unpatch()
    for name, modules in expected.items():
        assert {f"rdv.{m}.{name}" for m in modules} <= sites
    assert "rdv.minimax.solve_lp" in unwrapped_bindings()


def test_circle64_counts(tmp_path):
    layers = _traced(["analyze", "circle(64)"], tmp_path / "r.json")
    assert layers["optimize.lp.calls"] == 13
    assert layers["chebyshev.scan.calls"] == 20
    assert layers["spectral.eig.calls"] == 9
    assert layers["chebyshev.scan.distinct_frac"] == 4 / 20
    assert layers["optimize.qp.calls"] == 6


@pytest.mark.parametrize("argv", [("analyze", "random(9,0.5,3)"),
                                  ("verify", "--suite", "wolf", "--seeds", "12")])
def test_counts_repeat(tmp_path, argv):
    first = _traced(argv, tmp_path / "a.json")
    second = _traced(argv, tmp_path / "b.json")
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}
    assert first["optimize.lp.calls"] > 0 and first["optimize.qp.calls"] > 0


def test_items_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.items(workload, 3) == workloads.items(workload, 3)
    assert workloads.items("analyze-random", 3) != workloads.items("analyze-random", 4)
    assert workloads.items("analyze-large", 3) == workloads.items("analyze-large", 4)


def test_random_items_skip_graphs_of_negative_type():
    # random(12, 0.5, 93) is of negative type, so workload seed 23 moves s1 to 97
    assert workloads._negative_type(12, 93) and not workloads._negative_type(12, 97)
    assert workloads.random_seeds(23) == (97, 94, 95, 96)
    assert workloads.random_seeds(workloads.DEFAULT_SEED) == (1, 2, 3, 4)


def test_reference_check_flags_a_changed_scalar(tmp_path):
    item = workloads.items("analyze-large", workloads.DEFAULT_SEED)[1]
    path = tmp_path / "r.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*item.argv, "--out", str(path)]) == 0
    reference = workloads.load_reference()
    assert workloads.check_analyze(item, str(path), reference) == []
    doc = json.loads(path.read_text())
    doc["scalars"]["chebyshev_low_2"] += 1e-6
    path.write_text(json.dumps(doc))
    assert workloads.check_analyze(item, str(path), reference) == [
        "scalar chebyshev_low_2 = {!r}, reference {!r}".format(
            doc["scalars"]["chebyshev_low_2"],
            reference[item.key]["scalars"]["chebyshev_low_2"])]
