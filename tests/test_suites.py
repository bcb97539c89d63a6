"""Verification suites: instance recipes, outcomes, and failure dumps."""
import numpy as np
import pytest

from rdv import (
    DimensionMismatchError,
    circle,
    generate,
    load_space_file,
    run_suite,
    run_suites,
)
import rdv.minimax as minimax_mod
import rdv.optimize as optimize_mod
from rdv.suites import (
    SUITE_NAMES,
    _check_duality,
    instance_pairs,
    instance_space,
    vertex_transitive_family,
)


class TestInstanceRecipe:
    def test_sizes_cycle(self):
        sizes = [instance_space(seed).m for seed in range(8)]
        assert sizes == [3, 4, 5, 6, 7, 8, 3, 4]

    def test_deterministic(self):
        a = instance_space(17)
        b = instance_space(17)
        assert a.name == b.name
        assert np.array_equal(a.kernel, b.kernel)

    def test_max_points_controls_cycle(self):
        sizes = [instance_space(seed, max_points=4).m for seed in range(4)]
        assert sizes == [3, 4, 3, 4]

    def test_pairs_deterministic_and_in_range(self):
        for seed in range(10):
            m = instance_space(seed).m
            nested, general = instance_pairs(m, seed)
            again = instance_pairs(m, seed)
            assert (nested, general) == again
            assert nested.nested
            assert max(nested.H) < m
            assert max(general.H + general.L) < m

    def test_transitive_family_contents(self):
        family = vertex_transitive_family()
        names = [name for name, _ in family]
        assert names == [f"cycle-{m}" for m in range(3, 9)] + [
            f"hypercube-{d}" for d in range(1, 5)
        ]


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    @pytest.mark.parametrize("seeds, max_points", [(0, 8), (-2, 8), (4, 2), (4, 1), (4, -5)])
    def test_bad_sizes_rejected(self, seeds, max_points):
        # no seed is a vacuous pass; fewer than 3 points breaks the size cycle
        for suite in SUITE_NAMES:
            with pytest.raises(DimensionMismatchError):
                run_suite(suite, seeds=seeds, max_points=max_points)
        with pytest.raises(DimensionMismatchError):
            run_suites("all", seeds=seeds, max_points=max_points)

    def test_smallest_sizes_run(self):
        report = run_suite("duality", seeds=1, max_points=3)
        assert report.counts == (1, 1)
        assert report.outcomes[0].space.m == 3

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_small_run_passes(self, suite):
        report = run_suite(suite, seeds=12)
        assert report.suite == suite
        assert report.passed, [o.detail for o in report.outcomes if not o.passed]
        good, total = report.counts
        assert good == total
        expected = 12 + (10 if suite == "quasi" else 0)
        assert total == expected

    def test_duality_solves_two_lps_per_seed(self, monkeypatch):
        calls = []
        real = minimax_mod.solve_lp

        def counted(lp):
            calls.append(lp)
            return real(lp)

        monkeypatch.setattr(minimax_mod, "solve_lp", counted)
        assert run_suite("duality", seeds=6).passed
        assert len(calls) == 12
        # on a circle the uniform measure would settle the pair without an
        # LP; the check still compares the two LP values
        calls.clear()
        ok, detail = _check_duality(generate(circle(6)))
        assert ok and len(calls) == 2, detail

    def test_frostman_solves_one_qp_per_seed(self, monkeypatch):
        calls = []
        real = optimize_mod._solve_extremum

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize_mod, "_solve_extremum", counted)
        assert run_suite("frostman", seeds=7).passed
        # the dual kernel's minimal energy, read by frostman_check as its w
        assert len(calls) == 7

    def test_outcome_names_and_details(self):
        report = run_suite("wolf", seeds=5)
        assert [o.name for o in report.outcomes] == [f"wolf[{i}]" for i in range(5)]
        for o in report.outcomes:
            assert "r=" in o.detail and "E=" in o.detail

    def test_wolf_strict_gap_branch_reported(self):
        # seed 3 is the pinned instance where r < E strictly
        report = run_suite("wolf", seeds=5)
        assert "vacuous" in report.outcomes[3].detail
        assert report.outcomes[3].passed

    def test_quasi_appends_transitive_family(self):
        report = run_suite("quasi", seeds=3)
        names = [o.name for o in report.outcomes]
        assert names[:3] == ["quasi[0]", "quasi[1]", "quasi[2]"]
        assert "quasi[cycle-5]" in names
        assert "quasi[hypercube-4]" in names

    def test_run_suites_all(self):
        reports = run_suites("all", seeds=2)
        assert tuple(r.suite for r in reports) == SUITE_NAMES
        reports_one = run_suites("duality", seeds=2)
        assert len(reports_one) == 1


class TestDumpFailures:
    def test_no_failures_no_files(self, tmp_path):
        from rdv.suites import dump_failures

        reports = run_suites("duality", seeds=3)
        paths = dump_failures(reports, str(tmp_path))
        assert paths == ()
        assert list(tmp_path.iterdir()) == []

    def test_failing_outcome_dumps_replayable_space(self, tmp_path):
        from rdv.suites import SuiteOutcome, SuiteReport, dump_failures

        space = instance_space(4)
        outcome = SuiteOutcome(
            suite="wolf", name="wolf[4]", passed=False, detail="synthetic", space=space
        )
        report = SuiteReport(suite="wolf", outcomes=(outcome,))
        paths = dump_failures((report,), str(tmp_path))
        assert len(paths) == 1
        assert paths[0].endswith("failed_wolf_4.json")
        replayed, _ = load_space_file(paths[0])
        assert np.array_equal(replayed.kernel, space.kernel)
