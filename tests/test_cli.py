"""Command-line interface: exit codes, file outputs, and determinism."""
import json
import subprocess
import sys

import numpy as np
import pytest

from rdv import (
    SubsetPair,
    circle,
    generate,
    interval_grid,
    load_report,
    load_space_file,
    random_graph,
    save_space,
)
from rdv.cli import EXIT_INPUT, EXIT_OK, EXIT_VERDICT, build_analysis, main
import rdv.minimax as minimax_mod
import rdv.optimize as optimize_mod
import rdv.structure as structure_mod
import rdv.suites as suites_mod

from oracles import circle_rendezvous_closed_form


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGenerate:
    def test_writes_space_file(self, tmp_path):
        out = str(tmp_path / "g.json")
        assert main(["generate", "grid", "--m", "5", "--out", out]) == EXIT_OK
        space, pair = load_space_file(out)
        assert space.name == "interval_grid(5)"
        assert pair is None

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argv = ["generate", "random", "--m", "6", "--seed", "3", "--out"]
        assert main(argv + [a]) == EXIT_OK
        assert main(argv + [b]) == EXIT_OK
        assert read_bytes(a) == read_bytes(b)

    def test_random_alias_and_name(self, tmp_path):
        out = str(tmp_path / "r.json")
        main(["generate", "random", "--m", "6", "--seed", "3", "--out", out])
        space, _ = load_space_file(out)
        assert space.name == "random_graph(6,p=0.5,seed=3)"

    def test_hypercube_dim(self, tmp_path):
        out = str(tmp_path / "h.json")
        main(["generate", "hypercube", "--dim", "2", "--out", out])
        space, _ = load_space_file(out)
        assert space.m == 4
        assert space.points == ("00", "01", "10", "11")

    def test_stdout_mode(self, capsys):
        assert main(["generate", "grid", "--m", "3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel"][0][2] == 1.0

    def test_unknown_kind(self, capsys):
        assert main(["generate", "moebius", "--m", "5"]) == EXIT_INPUT
        assert "error[SchemaError]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["analyze", "random(5,0.5,-1)"], "SchemaError"),
        (["generate", "random", "--m", "5", "--seed", "-1"], "SchemaError"),
        (["generate", "hypercube", "--dim", "-1"], "SchemaError"),
        (["generate", "circle", "--m", "3", "--radius", "inf"], "NonFiniteEntry"),
        (["generate", "circle", "--m", "3", "--radius", "1e308"], "NonFiniteEntry"),
        (["analyze", "circle(4,chord,inf)"], "NonFiniteEntry"),
    ])
    def test_bad_generator_input_is_typed(self, capsys, argv, code):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error[{code}]" in err and "Traceback" not in err

    def test_cap_flag(self, capsys):
        assert main(["generate", "grid", "--m", "10", "--cap", "5"]) == EXIT_INPUT
        assert "error[TooLarge]" in capsys.readouterr().err

    def test_cap_env(self, monkeypatch, capsys):
        monkeypatch.setenv("RDV_CAP", "4")
        assert main(["generate", "circle", "--m", "9"]) == EXIT_INPUT
        assert "error[TooLarge]" in capsys.readouterr().err


class TestAnalyze:
    def test_inline_grid_report(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["analyze", "grid(11)", "--out", out]) == EXIT_OK
        report = load_report(out)
        assert report.space_name == "interval_grid(11)"
        assert report.scalars["r"] == pytest.approx(0.5, abs=1e-9)
        assert report.scalars["w"] == pytest.approx(0.0, abs=1e-9)
        assert report.verdicts["chain_ok"] is True
        assert report.verdicts["negative_type"] is True
        assert report.verdicts["invariant_found"] is True
        assert "invariant" in report.measures

    def test_report_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["analyze", "random(6,0.5,7)", "--out", a])
        main(["analyze", "random(6,0.5,7)", "--out", b])
        assert read_bytes(a) == read_bytes(b)

    def test_stdout_json(self, capsys):
        assert main(["analyze", "circle(8)"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["scalars"]["r"] == pytest.approx(
            circle_rendezvous_closed_form(8), abs=1e-9
        )

    def test_file_input_with_subsets(self, tmp_path):
        space_path = str(tmp_path / "s.json")
        save_space(generate(interval_grid(5)), space_path, SubsetPair((0, 4), (1, 2, 3)))
        out = str(tmp_path / "rep.json")
        assert main(["analyze", space_path, "--out", out]) == EXIT_OK
        report = load_report(out)
        assert report.parameters["H"] == [0, 4]
        assert report.parameters["L"] == [1, 2, 3]

    def test_subset_override(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["analyze", "grid(5)", "--H", "0,4", "--out", out]) == EXIT_OK
        report = load_report(out)
        assert report.parameters["H"] == [0, 4]
        assert report.parameters["L"] == [0, 1, 2, 3, 4]
        # the global rendezvous value is reported regardless of the pair
        assert report.scalars["r"] == pytest.approx(0.5, abs=1e-9)

    def test_csv_format(self, capsys):
        assert main(["analyze", "grid(5)", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "name,value"
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == sorted(names)
        assert "r" in names and "max_energy" in names

    def test_n_max_controls_table(self, tmp_path):
        out = str(tmp_path / "rep.json")
        main(["analyze", "grid(5)", "--n-max", "2", "--out", out])
        report = load_report(out)
        assert "chebyshev_low_2" in report.scalars
        assert "chebyshev_low_3" not in report.scalars

    def test_enum_cap_skips_orders(self, tmp_path):
        out = str(tmp_path / "rep.json")
        main(["analyze", "grid(5)", "--n-max", "4", "--enum-cap", "15", "--out", out])
        report = load_report(out)
        # C(5+n-1, n) = 5, 15, 35, 70: orders 3 and 4 blow the 15-multiset cap
        assert report.parameters["chebyshev_skipped"] == [3, 4]
        assert "chebyshev_low_2" in report.scalars
        assert "chebyshev_low_3" not in report.scalars

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_nonpositive_n_max_rejected(self, tmp_path, capsys, n_max):
        # orders 1..n_max would be empty and the chain vacuous
        out = tmp_path / "rep.json"
        assert main(["analyze", "grid(5)", "--n-max", n_max, "--out", str(out)]) == EXIT_INPUT
        assert "error[DimensionMismatch]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_nonpositive_enum_cap_rejected(self, tmp_path, capsys, cap):
        # a cap below 1 would skip every order and still write verdicts
        out = tmp_path / "rep.json"
        assert main(["analyze", "circle(6)", "--enum-cap", cap, "--out", str(out)]) == EXIT_INPUT
        assert "error[DimensionMismatch]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "no.json")]) == EXIT_INPUT
        assert "error[IoError]" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["analyze", str(bad)]) == EXIT_INPUT
        assert "error[ParseError]" in capsys.readouterr().err

    def test_bad_subset_list(self, capsys):
        assert main(["analyze", "grid(5)", "--H", "a,b"]) == EXIT_INPUT
        assert "error[SchemaError]" in capsys.readouterr().err

    def test_unknown_inline_kind(self, capsys):
        assert main(["analyze", "torus(5)"]) == EXIT_INPUT
        assert "error[SchemaError]" in capsys.readouterr().err

    def test_nonmetric_space_file(self, tmp_path, capsys):
        doc = {
            "name": "bad",
            "points": ["a", "b", "c"],
            "kernel": [[0, 9, 1], [9, 0, 1], [1, 1, 0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == EXIT_INPUT
        assert "error[MetricViolation]" in capsys.readouterr().err

    def test_level_lp_breakdown_is_typed(self, capsys):
        # radius 1e10: the dense simplex breaks down on the q LP
        assert main(["analyze", "circle(8,chord,1e10)"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error[NumericalBreakdown]" in err
        assert "Traceback" not in err


class TestSolveOnce:
    """``build_analysis`` solves each LP of an analysis once; QP counts are pinned too."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"lp": 0, "qp": 0}

        def count(module, name, key):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(minimax_mod, "solve_lp", "lp")
        count(structure_mod, "solve_lp", "lp")
        count(optimize_mod, "_solve_extremum", "qp")
        return counts

    def test_full_pair(self, calls):
        space = generate(circle(8))
        report, code = build_analysis(space, SubsetPair.full(8), n_max=2)
        assert code == EXIT_OK
        # No LP: the uniform measure is invariant on the circle, so it settles
        # q, q_lower and the invariance check.  QPs: the maximal energy (also
        # read by the converse check, and reflected into the dual kernel's
        # minimal energy, w_dual and the dual route) and w on H.
        assert calls == {"lp": 0, "qp": 2}
        assert report.verdicts["wolf_invariant_when_equal"] is True

    def test_nested_pair(self, calls):
        space = generate(circle(8))
        report, _ = build_analysis(space, SubsetPair((0, 2, 4, 6), tuple(range(8))), n_max=2)
        # q, q_lower and invariance on the pair; q on the swapped pair for the
        # chain.  The full pair, whose invariance r = E brings in, has an
        # invariant measure (the uniform one) and needs no LP.
        assert report.parameters["wolf_equality_applicable"] is True
        assert calls == {"lp": 4, "qp": 2}

    @pytest.mark.parametrize("desc, equality, lp", [
        # the full grid's invariant measure (the two endpoints) needs no LP
        (interval_grid(8), True, 4),
        # strict gap r < E: the full pair's invariance LP is never read
        (random_graph(6, 0.5, 3), False, 6),
    ])
    def test_general_pair(self, calls, desc, equality, lp):
        space = generate(desc)
        report, _ = build_analysis(space, SubsetPair((0, 1, 2), (3, 5)), n_max=2)
        assert report.parameters["wolf_equality_applicable"] is equality
        assert calls == {"lp": lp, "qp": 2}


class TestVerify:
    def test_small_clean_run(self, capsys):
        assert main(["verify", "--suite", "duality", "--seeds", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "duality[0]: PASS" in out
        assert "duality: 4/4 pass" in out

    def test_summary_report(self, tmp_path):
        out = str(tmp_path / "sum.json")
        assert main(["verify", "--suite", "wolf", "--seeds", "5", "--out", out]) == EXIT_OK
        report = load_report(out)
        assert report.space_name == "verify"
        assert report.scalars["passed"] == 5.0
        assert report.scalars["total"] == 5.0
        assert report.verdicts["wolf[3]"] is True
        assert report.parameters["suite"] == "wolf"

    def test_summary_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["verify", "--suite", "chain", "--seeds", "6", "--out", a])
        main(["verify", "--suite", "chain", "--seeds", "6", "--out", b])
        assert read_bytes(a) == read_bytes(b)

    def test_failure_exit_code_and_dump(self, tmp_path, monkeypatch, capsys):
        def rigged(space):
            return False, "forced failure for the exit-code test"

        monkeypatch.setattr(suites_mod, "_check_duality", rigged)
        out = str(tmp_path / "sum.json")
        code = main(["verify", "--suite", "duality", "--seeds", "2", "--out", out])
        assert code == EXIT_VERDICT
        printed = capsys.readouterr().out
        assert "duality[0]: FAIL" in printed
        assert "duality: 0/2 pass" in printed
        report = load_report(out)
        assert report.verdicts["duality[0]"] is False
        dumped = sorted(p.name for p in tmp_path.glob("failed_*.json"))
        assert dumped == ["failed_duality_0.json", "failed_duality_1.json"]
        replayed, _ = load_space_file(str(tmp_path / "failed_duality_0.json"))
        assert replayed.m == 3

    @pytest.mark.parametrize("flags", [["--seeds", "0"], ["--seeds", "-1"],
                                       ["--max-points", "2"], ["--max-points", "1"]])
    def test_bad_sizes_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "sum.json"
        assert main(["verify", "--suite", "all", *flags, "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "error[DimensionMismatch]" in captured.err
        assert "pass" not in captured.out
        assert not out.exists()

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nonsense"])


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "g.json"
        proc = subprocess.run(
            [sys.executable, "-m", "rdv.cli", "generate", "grid", "--m", "3",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        space, _ = load_space_file(str(out))
        assert np.array_equal(space.kernel[0], [0.0, 0.5, 1.0])

    def test_console_script_if_installed(self, tmp_path):
        import shutil

        exe = shutil.which("rdv")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "analyze", "grid(3)", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("name,value")
