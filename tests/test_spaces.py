"""Generator exactness, point-count caps, and space/report file round trips."""
import json
import math

import numpy as np
import pytest

from rdv import (
    AnalysisReport,
    DisconnectedAfterRetriesError,
    MetricViolationError,
    NonFiniteEntryError,
    ParseError,
    SchemaError,
    TooLargeError,
    SubsetPair,
    circle,
    generate,
    hypercube,
    interval_grid,
    load_space,
    load_space_file,
    load_report,
    point_cap,
    random_graph,
    report_to_csv,
    save_report,
    save_space,
    space_to_document,
    validate_kernel,
)
import rdv.spaces as spaces
from rdv.spaces import DEFAULT_POINT_CAP, _random_graph_kernel

from oracles import random_graph_kernel_loop


# --------------------------------------------------------------------------
# generator exactness


class TestIntervalGrid:
    def test_entries_are_exact_fractions(self):
        space = generate(interval_grid(5))
        idx = np.arange(5)
        expected = np.abs(idx[:, None] - idx[None, :]) / 4.0
        assert np.array_equal(space.kernel, expected)
        assert space.name == "interval_grid(5)"
        assert space.points == ("0", "1", "2", "3", "4")
        assert space.is_metric

    def test_single_point(self):
        space = generate(interval_grid(1))
        assert space.kernel.shape == (1, 1)
        assert space.kernel[0, 0] == 0.0
        assert space.is_metric

    def test_endpoints_at_unit_distance(self):
        space = generate(interval_grid(11))
        assert space.kernel[0, 10] == 1.0
        assert space.kernel[0, 5] == 0.5


class TestCircle:
    def test_chord_lengths(self):
        m, r = 8, 1.0
        space = generate(circle(m))
        for d in range(m):
            expected = 2.0 * r * math.sin(math.pi * min(d, m - d) / m)
            assert space.kernel[0, d] == pytest.approx(expected, abs=1e-15)

    def test_arc_lengths(self):
        m, r = 6, 2.0
        space = generate(circle(m, metric="arc", radius=r))
        for d in range(m):
            expected = r * 2.0 * math.pi * min(d, m - d) / m
            assert space.kernel[0, d] == pytest.approx(expected, abs=1e-14)

    def test_symmetric_to_the_bit(self):
        # mirrored construction, not trig evaluated twice: exact equality
        for m in (3, 7, 64):
            k = generate(circle(m)).kernel
            assert np.array_equal(k, k.T)

    def test_radius_scales_kernel(self):
        base = generate(circle(5)).kernel
        scaled = generate(circle(5, radius=3.0)).kernel
        assert np.allclose(scaled, 3.0 * base, rtol=0, atol=1e-15)

    def test_is_circulant(self):
        k = generate(circle(9)).kernel
        for i in range(9):
            assert np.array_equal(np.roll(k[0], i), k[i])

    @pytest.mark.parametrize("radius", [math.inf, 1e308])
    def test_overflowing_radius_is_rejected(self, radius):
        # 2 r sin(0) is inf * 0 = nan on the diagonal
        with pytest.raises(NonFiniteEntryError):
            generate(circle(3, radius=radius))

    def test_name_mentions_parameters(self):
        assert generate(circle(4, "arc", 2.5)).name == "circle(4,arc,r=2.5)"


class TestHypercube:
    def test_hamming_distances(self):
        space = generate(hypercube(3))
        for i in range(8):
            for j in range(8):
                assert space.kernel[i, j] == float(bin(i ^ j).count("1"))

    def test_binary_labels(self):
        assert generate(hypercube(2)).points == ("00", "01", "10", "11")
        assert generate(hypercube(1)).points == ("0", "1")

    def test_dimension_zero_is_a_point(self):
        space = generate(hypercube(0))
        assert space.m == 1
        assert space.kernel[0, 0] == 0.0

    def test_metric_flag(self):
        assert generate(hypercube(4)).is_metric


class TestRandomGraph:
    def test_deterministic_in_seed(self):
        a = generate(random_graph(7, 0.5, 42))
        b = generate(random_graph(7, 0.5, 42))
        assert np.array_equal(a.kernel, b.kernel)
        assert a.name == b.name == "random_graph(7,p=0.5,seed=42)"

    def test_different_seeds_differ(self):
        a = generate(random_graph(7, 0.5, 1)).kernel
        b = generate(random_graph(7, 0.5, 2)).kernel
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 3, 17, 99])
    def test_output_passes_full_metric_scan(self, seed):
        # generators skip the O(m^3) axiom scan; verify it would pass
        space = generate(random_graph(8, 0.5, seed))
        checked = validate_kernel(space.kernel, require_metric=True)
        assert checked.is_metric
        assert space.is_metric

    def test_complete_graph_when_edge_prob_one(self):
        space = generate(random_graph(6, 1.0, 5))
        off = space.kernel[~np.eye(6, dtype=bool)]
        # every pair got a direct edge with weight in (0.1, 1.0]
        assert np.all(off > 0.1 - 1e-12)
        assert np.all(off <= 1.0)

    def test_disconnected_after_retries(self):
        with pytest.raises(DisconnectedAfterRetriesError) as e:
            generate(random_graph(4, 1e-12, 0))
        assert e.value.code == "DisconnectedAfterRetries"

    def test_buffered_draws_match_one_call_per_draw(self):
        # m = 1..14 at three densities and 300 seeds, retries and all: the
        # buffered draws give the per-call loop's matrix to the bit, or the
        # same error
        failed = 0
        for m in range(1, 15):
            for p in (0.5, 0.2, 0.05):
                for seed in range(300):
                    try:
                        old = random_graph_kernel_loop(m, p, seed)
                    except DisconnectedAfterRetriesError as e:
                        with pytest.raises(DisconnectedAfterRetriesError) as new:
                            _random_graph_kernel(m, p, seed)
                        assert str(new.value) == str(e)
                        failed += 1
                        continue
                    assert np.array_equal(_random_graph_kernel(m, p, seed), old)
        assert failed > 0

    def test_disconnected_draws_skip_floyd_warshall(self, monkeypatch):
        # all 64 draws at m = 14, p = 0.05 are disconnected: the search over
        # their edges tells, and no draw pays for all-pairs distances
        calls = []
        monkeypatch.setattr(spaces, "_floyd_warshall",
                            lambda weights: calls.append(weights) or weights)
        with pytest.raises(DisconnectedAfterRetriesError):
            _random_graph_kernel(14, 0.05, 0)
        assert calls == []
        _random_graph_kernel(14, 0.5, 0)
        assert len(calls) == 1


# --------------------------------------------------------------------------
# point-count caps


class TestPointCap:
    def test_default(self):
        assert point_cap() == DEFAULT_POINT_CAP == 4096

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("RDV_CAP", "10")
        assert point_cap(99) == 99

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RDV_CAP", "8")
        assert point_cap() == 8
        with pytest.raises(TooLargeError):
            generate(circle(9))
        assert generate(circle(8)).m == 8

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("RDV_CAP", "many")
        with pytest.raises(ParseError):
            point_cap()

    def test_generate_rejects_oversized(self):
        with pytest.raises(TooLargeError) as e:
            generate(interval_grid(5000))
        assert e.value.code == "TooLarge"
        with pytest.raises(TooLargeError):
            generate(hypercube(13))  # 8192 points
        with pytest.raises(TooLargeError):
            generate(circle(10), cap=5)


class TestDescriptorValidation:
    def test_unknown_kind(self):
        from rdv.spaces import SpaceDescriptor

        with pytest.raises(SchemaError):
            SpaceDescriptor(kind="torus", m=4)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: interval_grid(0),
            lambda: circle(0),
            lambda: circle(4, metric="euclid"),
            lambda: circle(4, radius=0.0),
            lambda: circle(4, radius=-1.0),
            lambda: hypercube(-1),
            lambda: random_graph(0),
            lambda: random_graph(4, edge_prob=0.0),
            lambda: random_graph(4, edge_prob=1.5),
            lambda: random_graph(4, seed=-1),
        ],
    )
    def test_rejected_parameters(self, bad):
        with pytest.raises(SchemaError):
            bad()


# --------------------------------------------------------------------------
# space files


class TestSpaceFiles:
    def test_round_trip_preserves_everything(self, tmp_path):
        space = generate(random_graph(5, 0.6, 11))
        pair = SubsetPair((3, 1), (0, 2, 4))
        path = str(tmp_path / "space.json")
        save_space(space, path, pair)
        loaded, loaded_pair = load_space_file(path)
        assert loaded.name == space.name
        assert loaded.points == space.points
        assert np.array_equal(loaded.kernel, space.kernel)
        assert loaded.is_metric
        assert loaded_pair == pair

    def test_write_is_byte_stable(self, tmp_path):
        space = generate(circle(6))
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_space(space, p1)
        save_space(space, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_load_without_subsets(self):
        doc = {"name": "t", "points": ["a", "b"], "kernel": [[0.0, 1.0], [1.0, 0.0]]}
        space, pair = load_space(json.dumps(doc))
        assert pair is None
        assert space.is_metric
        assert space.points == ("a", "b")

    def test_metric_required_by_default(self):
        doc = {
            "name": "t",
            "points": ["a", "b", "c"],
            "kernel": [[0, 5, 1], [5, 0, 1], [1, 1, 0]],
        }
        with pytest.raises(MetricViolationError) as e:
            load_space(json.dumps(doc))
        assert e.value.witness == (0, 1, 2)
        doc["is_metric"] = False
        space, _ = load_space(json.dumps(doc))
        assert not space.is_metric  # classified, not just trusted

    def test_metric_kernel_classified_even_when_not_required(self):
        doc = {
            "name": "t",
            "points": ["a", "b"],
            "kernel": [[0.0, 1.0], [1.0, 0.0]],
            "is_metric": False,
        }
        space, _ = load_space(json.dumps(doc))
        assert space.is_metric

    def test_subset_indices_sorted_and_deduplicated(self):
        doc = {
            "name": "t",
            "points": ["a", "b", "c"],
            "kernel": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "subsets": {"H": [2, 0, 2], "L": [1]},
        }
        _, pair = load_space(json.dumps(doc))
        assert pair.H == (0, 2)
        assert pair.L == (1,)

    @pytest.mark.parametrize(
        "mangle,error",
        [
            (lambda d: "{not json", ParseError),
            (lambda d: json.dumps([d]), SchemaError),
            (lambda d: json.dumps({k: v for k, v in d.items() if k != "kernel"}), SchemaError),
            (lambda d: json.dumps({**d, "extra": 1}), SchemaError),
            (lambda d: json.dumps({**d, "points": ["a", 2]}), SchemaError),
            (lambda d: json.dumps({**d, "points": "ab"}), SchemaError),
            (lambda d: json.dumps({**d, "kernel": []}), SchemaError),
            (lambda d: json.dumps({**d, "kernel": [[0.0, 1.0], [1.0]]}), SchemaError),
            (lambda d: json.dumps({**d, "kernel": [[0.0, True], [1.0, 0.0]]}), SchemaError),
            (lambda d: json.dumps({**d, "kernel": [[0.0, "x"], [1.0, 0.0]]}), SchemaError),
            (lambda d: json.dumps({**d, "points": ["a"]}), SchemaError),
            (lambda d: json.dumps({**d, "is_metric": "yes"}), SchemaError),
            (lambda d: json.dumps({**d, "subsets": {"H": [0]}}), SchemaError),
            (lambda d: json.dumps({**d, "subsets": {"H": [0], "L": [0.5]}}), SchemaError),
            (lambda d: json.dumps({**d, "subsets": {"H": [0], "L": [True]}}), SchemaError),
            (lambda d: json.dumps({**d, "subsets": {"H": [0], "L": [7]}}), SchemaError),
        ],
    )
    def test_malformed_documents(self, mangle, error):
        base = {"name": "t", "points": ["a", "b"], "kernel": [[0.0, 1.0], [1.0, 0.0]]}
        with pytest.raises(error):
            load_space(mangle(base))

    def test_document_matches_save_format(self, tmp_path):
        space = generate(interval_grid(3))
        pair = SubsetPair((0,), (1, 2))
        doc = space_to_document(space, pair)
        path = str(tmp_path / "s.json")
        save_space(space, path, pair)
        assert json.load(open(path)) == doc


# --------------------------------------------------------------------------
# report files and CSV


class TestReportFiles:
    def _report(self):
        return AnalysisReport(
            space_name="demo",
            parameters={"n_max": 2},
            scalars={"r": 0.5, "upper": math.inf, "w": 0.25},
            measures={"mu": [0.5, 0.5]},
            verdicts={"chain_ok": True},
            tolerances={"chain": 1e-8},
        )

    def test_round_trip(self, tmp_path):
        report = self._report()
        path = str(tmp_path / "r.json")
        save_report(report, path)
        back = load_report(path)
        assert back.space_name == "demo"
        assert back.scalars["upper"] == math.inf
        assert back.scalars["r"] == 0.5
        assert back.measures == {"mu": [0.5, 0.5]}
        assert back.verdicts == {"chain_ok": True}
        assert back.tolerances == {"chain": 1e-8}

    def test_write_is_byte_stable(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_report(self._report(), p1)
        save_report(self._report(), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_infinity_serialized_as_string(self, tmp_path):
        path = str(tmp_path / "r.json")
        save_report(self._report(), path)
        raw = json.load(open(path))
        assert raw["scalars"]["upper"] == "inf"

    def test_nan_rejected(self):
        report = self._report()
        report.scalars["bad"] = math.nan
        with pytest.raises(SchemaError):
            report.to_dict()

    def test_from_dict_rejects_off_schema(self):
        doc = self._report().to_dict()
        doc["surprise"] = 1
        with pytest.raises(SchemaError):
            AnalysisReport.from_dict(doc)
        doc2 = self._report().to_dict()
        del doc2["verdicts"]
        with pytest.raises(SchemaError):
            AnalysisReport.from_dict(doc2)
        doc3 = self._report().to_dict()
        doc3["scalars"]["r"] = "half"
        with pytest.raises(SchemaError):
            AnalysisReport.from_dict(doc3)

    def test_csv_rows_sorted_with_full_precision(self):
        text = report_to_csv(self._report())
        lines = text.strip().split("\n")
        assert lines[0] == "name,value"
        assert lines[1] == "r,0.5"
        assert lines[2] == "upper,inf"
        assert lines[3] == "w,0.25"
        value = float(lines[1].split(",")[1])
        assert value == 0.5  # repr round-trips exactly
