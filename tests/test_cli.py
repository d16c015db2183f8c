"""CLI surface: fit-dist, sample, simulate, evaluate, gradcheck."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from posefocal.cli import _load_targets, main
from posefocal.geometry import BBox, Rotation
from posefocal.sampling import AnnotationRecord, UniformRanges, sample_pose_uniform


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


@pytest.fixture
def annotations(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "ann.jsonl"
    with open(path, "w") as fh:
        for _ in range(200):
            rec = AnnotationRecord(
                Rotation(rng.standard_normal(4) + np.array([2.0, 0, 0, 0])),
                np.array([rng.normal(0, 0.1), rng.normal(0, 0.1),
                          np.exp(rng.normal(0.3, 0.15))]),
                float(np.exp(rng.normal(6.3, 0.2))),
                (640.0, 480.0), BBox(0, 0, 100, 100))
            fh.write(json.dumps(rec.to_dict()) + "\n")
    return path


def load_output(path):
    return json.loads(path.read_text())


class TestFitDist:
    def test_parametric_fit(self, runner, annotations, tmp_path):
        out = tmp_path / "dist.json"
        res = runner.invoke(main, ["fit-dist", str(annotations),
                                   "--kind", "parametric", "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = load_output(out)
        assert doc["kind"] == "parametric"
        assert "bingham" in doc and "xy" in doc and "zf" in doc
        assert doc["manifest"]["command"] == "fit-dist"
        assert str(annotations) in doc["manifest"]["inputs"]

    def test_nonparametric_fit(self, runner, annotations, tmp_path):
        out = tmp_path / "np.json"
        res = runner.invoke(main, ["fit-dist", str(annotations),
                                   "--kind", "nonparametric", "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = load_output(out)
        assert doc["kind"] == "nonparametric"
        assert len(doc["records"]) == 200

    def test_empty_file_is_explicit_error(self, runner, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        res = runner.invoke(main, ["fit-dist", str(empty), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code != 0
        assert "no annotation records" in res.output

    def test_malformed_line_reports_line_number(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        res = runner.invoke(main, ["fit-dist", str(bad), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code != 0
        assert "line 1" in res.output


class TestSample:
    def fit(self, runner, annotations, tmp_path, kind="parametric"):
        dist = tmp_path / f"{kind}.json"
        res = runner.invoke(main, ["fit-dist", str(annotations),
                                   "--kind", kind, "--out", str(dist)])
        assert res.exit_code == 0, res.output
        return dist

    def test_zero_samples_writes_manifest_only(self, runner, annotations,
                                               tmp_path):
        dist = self.fit(runner, annotations, tmp_path)
        out = tmp_path / "empty.jsonl"
        res = runner.invoke(main, ["sample", str(dist), "-n", "0", "--out",
                                   str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert "manifest" in json.loads(lines[0])

    def test_same_seed_is_byte_identical(self, runner, annotations, tmp_path):
        for kind in ("parametric", "nonparametric"):
            dist = self.fit(runner, annotations, tmp_path, kind=kind)
            out1, out2 = tmp_path / f"{kind}_a.jsonl", tmp_path / f"{kind}_b.jsonl"
            for out in (out1, out2):
                res = runner.invoke(main, ["sample", str(dist), "-n", "50",
                                           "--seed", "9", "--out", str(out)])
                assert res.exit_code == 0, res.output
            assert out1.read_bytes() == out2.read_bytes()

    def test_parametric_draws_have_positive_depth_and_focal(
            self, runner, annotations, tmp_path):
        dist = self.fit(runner, annotations, tmp_path)
        out = tmp_path / "poses.jsonl"
        res = runner.invoke(main, ["sample", str(dist), "-n", "500", "--out",
                                   str(out)])
        assert res.exit_code == 0, res.output
        for line in out.read_text().splitlines()[1:]:
            doc = json.loads(line)
            assert doc["t_m"][2] > 0 and doc["focal_px"] > 0

    def test_nonparametric_sampling(self, runner, annotations, tmp_path):
        dist = self.fit(runner, annotations, tmp_path, kind="nonparametric")
        out = tmp_path / "np_poses.jsonl"
        res = runner.invoke(main, ["sample", str(dist), "-n", "20", "--out",
                                   str(out)])
        assert res.exit_code == 0, res.output
        assert len(out.read_text().splitlines()) == 21


class TestSimulate:
    def write_config(self, tmp_path, **overrides):
        config = {
            "n_trials": 5,
            "iterations": 15,
            "seed": 3,
            "predictor": {"noise": {}, "clamp": {}},
            "targets": {"kind": "uniform", "z_range": [0.9, 1.5],
                        "f_range": [400, 900], "xy_box": 0.3},
            "model_points": {"count": 40, "extent": 0.2, "seed": 1},
        }
        config.update(overrides)
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(config))
        return path

    def test_json_report(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(out)])
        assert res.exit_code == 0, res.output
        doc = load_output(out)
        assert set(doc["report"]["variants"]) == {"exact", "legacy"}
        assert doc["manifest"]["seed"] == 3

    def test_csv_report_format(self, runner, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.csv"
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(out), "--format", "csv"])
        assert res.exit_code == 0, res.output
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == ("update_rule,iteration,median_e_rot,"
                            "median_e_trans,median_e_pose,median_e_focal,"
                            "median_e_proj")
        # two variants, 16 per-iteration rows each, plus trailing newline
        assert len([ln for ln in lines[2:] if ln]) == 32
        assert "\r" not in text

    def test_alternate_iteration_count(self, runner, tmp_path):
        cfg = self.write_config(tmp_path, iterations=55, n_trials=2)
        out = tmp_path / "k55.json"
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(out)])
        assert res.exit_code == 0, res.output
        per_iter = load_output(out)["report"]["variants"]["exact"][
            "per_iteration_medians"]
        assert len(per_iter) == 56

    def test_schema_error_names_field_path(self, runner, tmp_path):
        cfg = self.write_config(tmp_path, n_trials=0)
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code != 0
        assert "n_trials" in res.output

    def test_uniform_targets_and_trial_noise_use_separate_streams(self):
        """Trial i's noise comes from default_rng(seed + i); the uniform
        targets must not be drawn from any of those streams."""
        cfg = {"kind": "uniform"}
        targets = _load_targets(cfg, 6, seed=3)
        assert np.array_equal(targets.quat, _load_targets(cfg, 6, seed=3).quat)
        for i in range(6):
            trial_stream = sample_pose_uniform(UniformRanges(), 6, 3 + i)
            assert not np.any(targets.quat == trial_stream.quat)

    def test_nested_schema_error_path(self, runner, tmp_path):
        cfg = self.write_config(
            tmp_path, predictor={"noise": {"sigma_x_px": -1.0}, "clamp": None})
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code != 0
        assert "predictor/noise/sigma_x_px" in res.output


class TestEvaluate:
    GT = {"quat_wxyz": [1, 0, 0, 0], "t_m": [0.1, -0.1, 1.5],
          "focal_px": 600.0}

    def write_pairs(self, tmp_path, lines):
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join(json.dumps(doc) for doc in lines) + "\n")
        return path

    def pair(self, pred=None, points="cube"):
        return {"pred": pred or self.GT, "gt": self.GT, "points": points,
                "bbox_gt": [0, 0, 60, 80], "img_diag": 800.0,
                "bbox_pred": [0, 0, 60, 80]}

    def header(self):
        pts = np.random.default_rng(0).uniform(-0.1, 0.1, (8, 3)).tolist()
        return {"model_points": {"cube": pts}}

    def test_perfect_predictions(self, runner, tmp_path):
        path = self.write_pairs(tmp_path,
                                [self.header()] + [self.pair()] * 3)
        out = tmp_path / "eval.json"
        res = runner.invoke(main, ["evaluate", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        summary = load_output(out)["summary"]
        assert all(v == 0.0 for v in summary["medians"].values())
        assert all(v == 1.0 for v in summary["accuracies"].values())

    def test_hand_built_errors(self, runner, tmp_path):
        off_focal = dict(self.GT, focal_px=660.0)
        off_depth = dict(self.GT, t_m=[0.1, -0.1, 1.65])
        path = self.write_pairs(tmp_path, [
            self.header(), self.pair(), self.pair(off_focal),
            self.pair(off_depth)])
        out = tmp_path / "eval.json"
        res = runner.invoke(main, ["evaluate", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        records = load_output(out)["records"]
        assert records[1]["e_focal"] == pytest.approx(0.1)
        assert records[2]["e_trans"] == pytest.approx(
            0.15 / np.linalg.norm([0.1, -0.1, 1.5]))

    def test_missing_points_reference_names_pair_index(self, runner, tmp_path):
        path = self.write_pairs(tmp_path, [self.header(), self.pair(),
                                           self.pair(points="missing")])
        res = runner.invoke(main, ["evaluate", str(path), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code != 0
        assert "pair 1" in res.output
        assert "missing" in res.output

    def test_csv_output(self, runner, tmp_path):
        path = self.write_pairs(tmp_path, [self.header(), self.pair()])
        out = tmp_path / "eval.csv"
        res = runner.invoke(main, ["evaluate", str(path), "--out", str(out),
                                   "--format", "csv"])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[1] == "e_rot,e_trans,e_pose,e_focal,e_proj,iou"


class TestGradcheck:
    def test_passes_with_report(self, runner, tmp_path):
        out = tmp_path / "grad.json"
        res = runner.invoke(main, ["gradcheck", "--seed", "0", "-n", "20",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = load_output(out)
        assert doc["report"]["passed"] is True
        assert doc["report"]["max_rel_err_smooth"] <= 1e-4
        assert len(doc["points"]) == 20

    def test_reports_flagged_points(self, runner):
        res = runner.invoke(main, ["gradcheck", "--seed", "1", "-n", "10"])
        assert res.exit_code == 0, res.output
        assert "flagged non-smooth" in res.output

    @pytest.mark.parametrize("args, option", [
        (["-n", "2", "--step", "0"], "--step"),
        (["-n", "2", "--step=-1e-6"], "--step"),
        (["-n", "2", "--step", "nan"], "--step"),
        (["-n", "0"], "-n"),
    ])
    def test_rejects_step_and_count_it_cannot_check(self, runner, args, option):
        res = runner.invoke(main, ["gradcheck", *args])
        assert res.exit_code != 0
        assert isinstance(res.exception, SystemExit), res.exception
        assert f"'{option}'" in res.output


class TestDeterminism:
    def test_rerun_fit_and_sample_byte_identical(self, runner, annotations,
                                                 tmp_path):
        outs = []
        for tag in ("x", "y"):
            dist = tmp_path / f"dist_{tag}.json"
            res = runner.invoke(main, ["fit-dist", str(annotations),
                                       "--out", str(dist)])
            assert res.exit_code == 0, res.output
            outs.append(dist.read_bytes())
        assert outs[0] == outs[1]


class TestMalformedJson:
    """A JSON syntax error is reported as an error naming the file (and the
    line of a JSON-lines file), never as a traceback."""

    def check(self, res, name):
        assert res.exit_code == 1
        assert name in res.output
        assert "malformed JSON" in res.output
        assert not isinstance(res.exception, json.JSONDecodeError)

    def test_simulate_config(self, runner, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text('{"n_trials": 2,')
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        self.check(res, "sim.json")

    def test_simulate_targets_file(self, runner, tmp_path):
        targets = tmp_path / "targets.jsonl"
        targets.write_text(json.dumps({"quat_wxyz": [1, 0, 0, 0],
                                       "t_m": [0, 0, 1], "focal_px": 600.0})
                           + "\n{oops\n")
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_trials": 2, "targets": {
            "kind": "file", "path": str(targets)}}))
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        self.check(res, "targets.jsonl line 2")

    def test_sample_distribution(self, runner, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text('{"kind": "parametric"')
        res = runner.invoke(main, ["sample", str(dist), "-n", "3", "--out",
                                   str(tmp_path / "x.jsonl")])
        self.check(res, "dist.json")

    def test_evaluate_pairs(self, runner, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"model_points": {}}\n\n{"pred": \n')
        res = runner.invoke(main, ["evaluate", str(pairs), "--out",
                                   str(tmp_path / "x.json")])
        self.check(res, "pairs.jsonl line 3")
