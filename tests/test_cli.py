"""CLI surface: fit-dist, sample, simulate, evaluate, gradcheck."""

import errno
import json
import math
import os
import random
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import posefocal
from posefocal import cli
from posefocal.cli import (WRITE_BLOCK, RecordColumns, _draw_poses, _float_texts, _indented,
                           _load_pairs, _load_targets, main, write_json, write_jsonl)
from posefocal.errors import DomainError
from posefocal.geometry import PoseBatch, Rotation
from posefocal.metrics import RECORD_FIELDS, aggregate, evaluate_pair, to_records
from posefocal.sampling import UniformRanges, sample_pose_uniform

from test_simulator import campaign_draws


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
            rec = {"quat_wxyz": Rotation(rng.standard_normal(4) + np.array([2.0, 0, 0, 0])
                                         ).quat.tolist(),
                   "t_m": [rng.normal(0, 0.1), rng.normal(0, 0.1),
                           float(np.exp(rng.normal(0.3, 0.15)))],
                   "f_px": float(np.exp(rng.normal(6.3, 0.2))),
                   "img_wh": [640.0, 480.0], "bbox": [0, 0, 100, 100]}
            fh.write(json.dumps(rec) + "\n")
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

    def test_wide_depth_focal_gaussian_names_the_field(self, runner, annotations, tmp_path):
        """exp of a wide log-depth draw overflows: an error naming the field, no warning."""
        dist = self.fit(runner, annotations, tmp_path)
        doc = json.loads(dist.read_text())
        doc["zf"]["cov"][0][0] = 1e6
        dist.write_text(json.dumps(doc))
        out = tmp_path / "poses.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["sample", str(dist), "-n", "100", "--out", str(out)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert "zf: " in res.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_nonparametric_sampling(self, runner, annotations, tmp_path):
        dist = self.fit(runner, annotations, tmp_path, kind="nonparametric")
        out = tmp_path / "np_poses.jsonl"
        res = runner.invoke(main, ["sample", str(dist), "-n", "20", "--out",
                                   str(out)])
        assert res.exit_code == 0, res.output
        assert len(out.read_text().splitlines()) == 21


def old_write_jsonl(path, manifest, rows):
    """The per-row writer write_jsonl replaced: one json.dumps per row."""
    lines = [json.dumps({"manifest": manifest}, sort_keys=True, separators=(",", ":"))]
    lines.extend(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def pose_rows(poses):
    return [{"quat_wxyz": q, "t_m": t, "focal_px": f} for q, t, f in
            zip(poses.quat.tolist(), poses.translation.tolist(), poses.focal.tolist())]


# The ends of the band where orjson's text is repr's (1e-4 <= |x| < 1e16), the
# neighbours below them, and integer-valued floats in the band.
BAND_EDGES = [float(np.nextafter(1e-4, 0)), 1e-4, float(np.nextafter(1e16, 0)),
              9999999999999998.0, 2.0**53, 1280.0]
EDGE_FLOATS = [-0.0, 5e-324, 1e-7, 600.0, 1e16, 1e22, 1.7976931348623157e308, *BAND_EDGES]


class TestFloatTexts:
    """_float_texts is repr of each float of a 1-D array, and the reprs of each row of
    a 2-D one joined by ","."""

    @staticmethod
    def reprs(values):
        return [",".join(map(repr, row)) if values.ndim == 2 else repr(row)
                for row in values.tolist()]

    @pytest.mark.parametrize("shape", [0, 1, WRITE_BLOCK + 1, (0, 4), (1, 4), (WRITE_BLOCK + 1, 3)])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_is_repr_of_any_float(self, shape, data):
        values = data.draw(arrays(np.float64, shape, elements=st.floats()))
        assert _float_texts(values) == self.reprs(values)

    def test_edges_and_non_finite_values(self):
        values = np.array([*EDGE_FLOATS, math.nan, math.inf, -math.inf, 1e-5, -1e16, 0.5])
        values = np.concatenate([values, -values])
        for rows in (values, values.reshape(-1, 2), values[::2]):
            assert _float_texts(rows) == self.reprs(rows)


class TestWriteJsonl:
    """write_jsonl formats all rows in one pass; its bytes must be those of one
    json.dumps per row, for any finite floats."""

    MANIFEST = {"command": "sample", "config": {"n": 3}, "seed": 0, "timestamp": None}

    @staticmethod
    def batch(n):
        """Values over 20 decades of both signs, a tenth of them EDGE_FLOATS;
        the quaternions and translations of the first rows hold each edge value."""
        rng = np.random.default_rng(n)
        quat = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-10, 10, (n, 4))
        trans = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-10, 10, (n, 3))
        focal = 10.0 ** rng.uniform(-5, 20, n)
        for a, signs in ((quat, [-1.0, 1.0]), (trans, [-1.0, 1.0]), (focal, [1.0])):
            flat = a.reshape(-1)
            pick = rng.random(flat.size) < 0.1
            flat[pick] = rng.choice(EDGE_FLOATS[1:], pick.sum()) \
                * rng.choice(signs, pick.sum())
        if n:
            edges = np.resize(EDGE_FLOATS, (-(-len(EDGE_FLOATS) // 7), 7))[:n]
            quat[:len(edges)], trans[:len(edges)], focal[0] = edges[:, :4], edges[:, 4:], 1e-7
        return PoseBatch(quat, trans, focal)

    @pytest.mark.parametrize("n", [0, 1, 1000, WRITE_BLOCK - 1, WRITE_BLOCK,
                                   WRITE_BLOCK + 1, 2 * WRITE_BLOCK + 1])
    def test_matches_per_row_json(self, tmp_path, n):
        poses = self.batch(n)
        write_jsonl(tmp_path / "new.jsonl", self.MANIFEST, poses)
        old_write_jsonl(tmp_path / "old.jsonl", self.MANIFEST, pose_rows(poses))
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    @pytest.mark.parametrize("kind", ["parametric", "nonparametric", "uniform"])
    def test_sample_matches_per_row_json(self, runner, annotations, tmp_path, kind):
        dist = tmp_path / "dist.json"
        if kind == "uniform":
            dist.write_text(json.dumps({"kind": "uniform", "z_range": [0.8, 2.4]}))
        else:
            dist = TestSample().fit(runner, annotations, tmp_path, kind=kind)
        out, want = tmp_path / "poses.jsonl", tmp_path / "want.jsonl"
        res = runner.invoke(main, ["sample", str(dist), "-n", "300", "--seed", "4",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        manifest = json.loads(out.read_text().splitlines()[0])["manifest"]
        old_write_jsonl(want, manifest,
                        pose_rows(_draw_poses(json.loads(dist.read_text()), 300, 4)))
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("n", [40_000, 160_000])
    def test_memory_does_not_grow_with_rows(self, n):
        """Rows are formatted a block at a time: the peak of the traced
        allocations stays under 2 MiB (one pass over all rows took 24.5 MiB
        at 4e4 poses and 98 MiB at 1.6e5)."""
        poses = sample_pose_uniform(UniformRanges(), n, 0)
        tracemalloc.start()
        try:
            write_jsonl(os.devnull, self.MANIFEST, poses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_failed_write_leaves_no_partial_file(self, runner, tmp_path, monkeypatch):
        """A write that fails after some blocks went out (a full disk) is an
        error naming the file, and the partial file is deleted."""
        writes = []

        def full_disk_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write

            def failing_write(text):
                writes.append(len(text))
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return write(text)

            fh.write = failing_write
            return fh

        dist, out = tmp_path / "dist.json", tmp_path / "poses.jsonl"
        dist.write_text(json.dumps({"kind": "uniform"}))
        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        res = runner.invoke(main, ["sample", str(dist), "-n", str(3 * WRITE_BLOCK),
                                   "--out", str(out)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert f"cannot write {out}: No space left on device" in res.output
        assert len(writes) == 3 and not out.exists()

    def test_non_finite_quaternion_rejected(self):
        """json writes NaN where %r writes nan: no PoseBatch may hold one."""
        with pytest.raises(DomainError, match="quaternions must be finite"):
            PoseBatch(np.array([[np.nan, 0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, 1.0]]),
                      np.array([600.0]))


JSON_SCALARS = [0, 1, -7, 2**70, -(2**64), 0.5, -0.0, 5e-324, 1e22, math.nan, math.inf,
                -math.inf, None, True, False, "", "}", "]", "a}", "},\n      {", "two\nlines",
                'quote " and \\ backslash', "naïve – ✓ 日本", "\x00\t\r"]
JSON_KEYS = ["a", "b", "e_rot", "", "}", "z\n}", "é", '"', "0"]


def json_doc(rng, depth=0):
    """A random JSON value with string keys: scalars from JSON_SCALARS or uniform
    floats, empty containers, lists (or tuples) of non-empty flat dicts, and
    dicts and lists of random values, so also lists of mixed items."""
    def scalar():
        return rng.choice(JSON_SCALARS) if rng.random() < 0.7 else rng.uniform(-1e3, 1e3)

    kind = rng.random() if depth < 4 else 0.0
    if kind < 0.35:
        return scalar()
    if kind < 0.45:
        return rng.choice([{}, []])
    if kind < 0.6:
        return [{rng.choice(JSON_KEYS): scalar() for _ in range(rng.randint(1, 4))}
                for _ in range(rng.randint(1, 4))]
    items = [json_doc(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    if kind < 0.8:
        return dict(zip(rng.sample(JSON_KEYS, len(items)), items))
    return items if kind < 0.95 else tuple(items)


def json_nodes(doc):
    yield doc
    for value in doc.values() if isinstance(doc, dict) else \
            doc if isinstance(doc, (list, tuple)) else ():
        yield from json_nodes(value)


def is_record_list(node):
    return isinstance(node, list) and node and all(
        isinstance(d, dict) and d and not any(isinstance(v, (dict, list)) for v in d.values())
        for d in node)


class TestWriteJson:
    """write_json lays out the text of json.dumps(..., sort_keys=True, indent=2)
    itself; it must be the same for any document with string keys."""

    def test_matches_json_dumps_on_random_documents(self, tmp_path):
        rng, path, shapes = random.Random(0), tmp_path / "out.json", set()
        for i in range(10_000):
            doc = json_doc(rng)
            assert _indented(doc) == json.dumps(doc, sort_keys=True, indent=2), i
            write_json(path, doc, {})
            assert path.read_bytes().decode() == json.dumps(
                {"manifest": doc}, sort_keys=True, indent=2) + "\n", i
            for node in json_nodes(doc):
                shapes.add("records" if is_record_list(node) else
                           "empty" if node in ({}, [], ()) else
                           "list" if isinstance(node, (list, tuple)) else type(node).__name__)
        assert shapes == {"records", "empty", "list", "dict", "float", "int", "bool", "str",
                          "NoneType"}

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 2000])
    def test_record_columns_are_their_records(self, n):
        """RecordColumns is laid out as json.dumps lays out to_records of its columns,
        at any depth: non-finite values as json writes them, a NaN IoU as null."""
        rng = np.random.default_rng(n)
        columns = {f: rng.uniform(0.0, 2.0, n) for f in RECORD_FIELDS}
        special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e16, 1.5e-7, *BAND_EDGES]
        for f in RECORD_FIELDS:
            rows = rng.random(n) < 0.3
            columns[f][rows] = rng.choice(special, rows.sum())
        if n:
            columns["e_proj"][0], columns["iou"][-1] = math.inf, math.nan
        for wrap in (lambda r: r, lambda r: {"records": r, "a": 1.0},
                     lambda r: [{"x": [r]}, {"summary": {"b": [1]}, "y": r}]):
            assert _indented(wrap(RecordColumns(columns))) == json.dumps(
                wrap(to_records(columns)), sort_keys=True, indent=2)

    @pytest.mark.parametrize("n", [0, 1, 3, 500])
    def test_vector_columns_are_their_records(self, n):
        """Columns of shape (N,) and (N, k) are laid out as json.dumps lays out their
        records, {key: value or list}, keys sorted, non-finite values as json writes them."""
        rng = np.random.default_rng(n)
        columns = {"t_m": rng.normal(size=(n, 3)), "f_px": rng.uniform(100, 2000, n),
                   "bbox": rng.uniform(0, 1e3, (n, 4)), "img_wh": np.full((n, 2), 640.0)}
        special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, *BAND_EDGES]
        for c in columns.values():
            pick = rng.random(c.shape) < 0.2
            c[pick] = rng.choice(special, pick.sum())
        records = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
        for wrap in (lambda r: r, lambda r: {"kind": "x", "records": r}):
            assert _indented(wrap(RecordColumns(columns))) == json.dumps(
                wrap(records), sort_keys=True, indent=2)

    def test_cli_outputs_re_dump_to_the_same_bytes(self, runner, annotations, tmp_path):
        """Each JSON output of a CLI run is what json.dumps(indent=2) makes of it."""
        evaluate = TestEvaluate()
        pairs = evaluate.write_pairs(tmp_path, [
            evaluate.header(), evaluate.pair(),
            {**evaluate.pair(pred={**TestEvaluate.GT, "focal_px": 700.0}), "bbox_pred": None}])
        config = TestSimulate().write_config(tmp_path, n_trials=2, keep_trajectories=True)
        for out, argv in [
                ("dist_parametric.json", ["fit-dist", str(annotations), "--kind", "parametric"]),
                ("dist_nonparametric.json",
                 ["fit-dist", str(annotations), "--kind", "nonparametric"]),
                ("report.json", ["simulate", "--config", str(config)]),
                ("eval.json", ["evaluate", str(pairs)]),
                ("grad.json", ["gradcheck", "-n", "5"])]:
            res = runner.invoke(main, [*argv, "--out", str(tmp_path / out)])
            assert res.exit_code == 0, res.output
            text = (tmp_path / out).read_bytes().decode()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", out


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

    def test_duplicate_update_rules_rejected(self, runner, tmp_path):
        cfg = self.write_config(tmp_path, update_rules=["exact", "exact"])
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "config field update_rules" in res.output
        assert "non-unique" in res.output
        assert not (tmp_path / "x.json").exists()

    def test_uniform_targets_and_trial_noise_use_separate_streams(self):
        """The trials' noise comes from child 1 of SeedSequence(seed); the
        uniform targets must not be drawn from that stream."""
        cfg = {"kind": "uniform"}
        targets = _load_targets(cfg, 6, seed=3)
        assert np.array_equal(targets.quat, _load_targets(cfg, 6, seed=3).quat)
        trial_stream = sample_pose_uniform(UniformRanges(), 6,
                                           np.random.SeedSequence(3).spawn(2)[1])
        assert not np.any(targets.quat == trial_stream.quat)

    @pytest.mark.parametrize("seed", [0, 3, 1000])
    def test_uniform_targets_are_child_0_of_the_seed(self, seed):
        """Child 0 of SeedSequence(seed), spawned alone or beside the trials' child 1."""
        targets = _load_targets({"kind": "uniform"}, 9, seed)
        for child in (np.random.SeedSequence(seed).spawn(1)[0],
                      np.random.SeedSequence(seed).spawn(2)[0]):
            want = sample_pose_uniform(UniformRanges(), 9, child)
            for got, ref in zip((targets.quat, targets.translation, targets.focal),
                                (want.quat, want.translation, want.focal)):
                assert got.tobytes() == ref.tobytes()

    def test_generated_cloud_shares_no_stream_with_any_trial(self):
        """A cloud without a path is drawn from default_rng(model_points.seed), 0 by
        default; no trial at seeds 0 to 3 draws from that generator's stream."""
        cloud = cli._load_model_points({})
        assert np.array_equal(cloud.points,
                              np.random.default_rng(0).uniform(-0.1, 0.1, (100, 3)))
        trials = [campaign_draws(60, seed) for seed in (0, 1, 2, 3)]
        for cloud_seed in (0, 1, 2, 3):
            normals = np.random.default_rng(cloud_seed).standard_normal(60 * 4 * 8)
            assert all(np.intersect1d(normals, draws).size == 0 for draws in trials)

    def test_short_target_file_names_itself(self, runner, tmp_path):
        targets = tmp_path / "targets.jsonl"
        targets.write_text("".join(json.dumps({"quat_wxyz": [1, 0, 0, 0], "t_m": [0, 0, z],
                                               "focal_px": 600.0}) + "\n" for z in (1, 2)))
        cfg = self.write_config(tmp_path, targets={"kind": "file", "path": str(targets)})
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert f"{targets}: target file has 2 poses, need 5" in res.output

    @pytest.mark.parametrize("field, value", [("z_range", [2, 1]), ("f_range", [0, 5])])
    def test_invalid_uniform_range_names_field(self, runner, tmp_path, field, value):
        cfg = self.write_config(tmp_path, targets={"kind": "uniform", field: value})
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert f"config field targets/{field}: invalid" in res.output

    def test_overflowing_target_translation_is_an_error(self, runner, tmp_path):
        """|t| overflows its norm: an error naming the translation, not e_trans 0."""
        cfg = self.write_config(tmp_path, targets={"kind": "uniform", "xy_box": 1e160})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                       str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert "ground-truth translation" in res.output
        assert not (tmp_path / "x.json").exists()

    def test_overflowing_range_end_names_field(self, runner, tmp_path):
        """JSON's 1e309 reads as inf, which the schema's "number" admits."""
        cfg = self.write_config(tmp_path, targets={"kind": "uniform",
                                                   "z_range": [0.8, "HUGE"]})
        cfg.write_text(cfg.read_text().replace('"HUGE"', "1e309"))
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert "config field targets/z_range: invalid" in res.output

    @pytest.mark.parametrize("field, value", [
        ("model_points/extent", math.nan), ("predictor/noise/sigma_x_px", math.nan),
        ("focal_init", math.nan), ("focal_init", math.inf), ("img_diag", math.nan),
        ("img_diag", math.inf), ("targets/z_range", -math.inf),
        pytest.param("img_diag", 10**400, id="img_diag-10**400"),
        pytest.param("predictor/noise/sigma_x_px", -10**400, id="sigma_x_px-minus-10**400")])
    def test_non_finite_number_names_field(self, runner, tmp_path, field, value):
        """json reads NaN and Infinity, which the schema's bounds let through, and an
        integer no float holds, which float() of it raised an OverflowError on."""
        *parents, name = field.split("/")
        cfg = json.loads(self.write_config(tmp_path).read_text())
        node = cfg
        for key in parents:
            node = node[key]
        node[name] = [0.9, value] if name == "z_range" else value
        (tmp_path / "sim.json").write_text(json.dumps(cfg))
        res = runner.invoke(main, ["simulate", "--config", str(tmp_path / "sim.json"),
                                   "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert f"config field {field}: invalid value {value}" in res.output
        assert not (tmp_path / "x.json").exists()

    def test_nested_schema_error_path(self, runner, tmp_path):
        cfg = self.write_config(
            tmp_path, predictor={"noise": {"sigma_x_px": -1.0}, "clamp": None})
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        assert res.exit_code != 0
        assert "predictor/noise/sigma_x_px" in res.output

    @pytest.mark.parametrize("field", ["n_trials", "iterations", "seed",
                                       "model_points/count", "model_points/seed"])
    def test_integral_float_at_integer_field_names_field(self, runner, tmp_path, field):
        """JSON Schema's "integer" admits 2.0; the config must write integers as
        integers, or NumPy fails later with a traceback."""
        cfg = json.loads(self.write_config(tmp_path, n_trials=2, iterations=2).read_text())
        *parents, name = field.split("/")
        node = cfg
        for key in parents:
            node = node[key]
        node[name] = 2.0
        (tmp_path / "sim.json").write_text(json.dumps(cfg))
        res = runner.invoke(main, ["simulate", "--config", str(tmp_path / "sim.json"),
                                   "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert f"config field {field}: 2.0 is not of type 'integer'" in res.output
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"n_trials": 10**21, "targets": {"kind": "uniform"}}, "n_trials"),
        ({"iterations": 10**21}, "iterations"),
        ({"n_trials": 2**62}, "n_trials"),
        ({"iterations": 2**60}, "iterations"),
        ({"model_points": {"count": 10**21}}, "model_points/count"),
        ({"model_points": {"count": 2**62}}, "model_points/count"),
    ], ids=["trials-1e21", "iterations-1e21", "trials-2^62", "iterations-2^60",
            "count-1e21", "count-2^62"])
    def test_size_numpy_cannot_shape_names_field(self, runner, tmp_path, overrides, field):
        """A size whose arrays exceed NumPy's limit, which NumPy checks before allocating,
        is an error naming the field, where NumPy raised a ValueError."""
        cfg = self.write_config(tmp_path, **overrides)
        res = runner.invoke(main, ["simulate", "--config", str(cfg),
                                   "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith(f"Error: config field {field}: "), res.output
        assert not (tmp_path / "x.json").exists()

    def test_huge_degree_scales_and_a_file_cloud_run(self, runner, tmp_path):
        """10**21 degrees is a valid noise scale and clamp, where NumPy's deg2rad raised a
        TypeError on an int that size, and count does not size a cloud read from a file."""
        (tmp_path / "points.json").write_text("[[0, 0, 0], [0.1, 0, 0]]")
        cfg = self.write_config(tmp_path, n_trials=2, iterations=2, predictor={
            "noise": {"sigma_rot_deg": 10**21}, "clamp": {"max_angle_deg": 10**21}},
            model_points={"path": str(tmp_path / "points.json"), "count": 2**62})
        res = runner.invoke(main, ["simulate", "--config", str(cfg),
                                   "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 0, (res.output, res.exception)


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

    def test_null_predicted_box_means_no_box(self, runner, tmp_path):
        path = self.write_pairs(tmp_path, [self.header(),
                                           dict(self.pair(), bbox_pred=None)])
        out = tmp_path / "eval.json"
        res = runner.invoke(main, ["evaluate", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert load_output(out)["records"][0]["iou"] is None

    def test_overflowing_gt_translation_is_an_error(self, runner, tmp_path):
        """|t| overflows its norm: an error naming the translation, not NaN metrics."""
        pair = dict(self.pair(), gt=dict(self.GT, t_m=[1e160, 0, 1]))
        path = self.write_pairs(tmp_path, [self.header(), pair])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = runner.invoke(main, ["evaluate", str(path), "--out",
                                       str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert "ground-truth translation" in res.output
        assert not (tmp_path / "x.json").exists()

    def test_csv_output(self, runner, tmp_path):
        path = self.write_pairs(tmp_path, [self.header(), self.pair()])
        out = tmp_path / "eval.csv"
        res = runner.invoke(main, ["evaluate", str(path), "--out", str(out),
                                   "--format", "csv"])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[1] == "e_rot,e_trans,e_pose,e_focal,e_proj,iou"

    def test_outputs_are_the_records_of_the_columns(self, runner, tmp_path):
        """eval.json is json.dumps of the manifest, to_records of the metric columns and
        their summary, and the CSV holds the repr of each record value, "" for no IoU:
        one prediction behind the camera (e_proj inf), one without a box, one plain."""
        behind = dict(self.GT, t_m=[0.1, -0.1, -1.5])
        path = self.write_pairs(tmp_path, [self.header(), self.pair(behind),
                                           dict(self.pair(), bbox_pred=None), self.pair()])
        columns = evaluate_pair(_load_pairs(path))
        records = to_records(columns)
        assert records[0]["e_proj"] == math.inf and records[1]["iou"] is None
        for fmt in ("json", "csv"):
            out = tmp_path / f"eval.{fmt}"
            res = runner.invoke(main, ["evaluate", str(path), "--out", str(out),
                                       "--format", fmt])
            assert res.exit_code == 0, res.output
            text = out.read_bytes().decode()
            if fmt == "json":
                assert text == json.dumps({"manifest": json.loads(text)["manifest"],
                                           "records": records, "summary": aggregate(columns)},
                                          sort_keys=True, indent=2) + "\n"
            else:
                assert text.splitlines()[2:] == [",".join(
                    "" if r[f] is None else repr(r[f]) for f in RECORD_FIELDS) for r in records]

    def test_scoring_failure_is_a_clean_error(self, runner, tmp_path, monkeypatch):
        """evaluate scores the whole file through the name cli.evaluate_pair, called
        once: a DomainError it raises is a clean exit 1 naming the fault, and no output."""
        calls = []

        def failing(pairs):
            calls.append(pairs)
            raise DomainError("x")

        monkeypatch.setattr(cli, "evaluate_pair", failing)
        path = self.write_pairs(tmp_path, [self.header(), self.pair(), self.pair()])
        res = runner.invoke(main, ["evaluate", str(path), "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert "x" in res.output and len(calls) == 1
        assert not (tmp_path / "x.json").exists()


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
        (["-n", "2", "--step", "10"], "--step"),
        (["-n", "3", "--step", "1e-300"], "--step"),  # leaves every component unchanged
    ])
    def test_rejects_step_and_count_it_cannot_check(self, runner, args, option):
        res = runner.invoke(main, ["gradcheck", *args])
        assert res.exit_code != 0
        assert isinstance(res.exception, SystemExit), res.exception
        assert f"'{option}'" in res.output

    def test_no_smooth_point_is_not_reported_as_a_mismatch(self, runner, tmp_path):
        out = tmp_path / "grad.json"
        res = runner.invoke(main, ["gradcheck", "-n", "2", "--step", "0.3",
                                   "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert "no point was smooth enough to check" in res.output
        assert "gradient mismatch" not in res.output
        report = load_output(out)["report"]
        assert report["n_smooth"] == 0 and report["passed"] is False


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


class TestNegativeSeed:
    """A negative seed is a usage error naming the seed, never a traceback
    and never blamed on an input file."""

    def check(self, res, name):
        assert res.exit_code != 0
        assert isinstance(res.exception, SystemExit), res.exception
        assert "Traceback" not in res.output
        assert name in res.output

    def test_gradcheck(self, runner):
        res = runner.invoke(main, ["gradcheck", "--seed", "-1", "-n", "2"])
        self.check(res, "'--seed'")

    def test_sample(self, runner, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"kind": "uniform"}))
        res = runner.invoke(main, ["sample", str(dist), "-n", "3", "--seed", "-1",
                                   "--out", str(tmp_path / "x.jsonl")])
        self.check(res, "'--seed'")
        assert "dist.json" not in res.output

    @pytest.mark.parametrize("config, name", [
        ({"seed": -1}, "config field seed"),
        ({"model_points": {"seed": -3}}, "config field model_points/seed"),
    ], ids=["seed", "model-points-seed"])
    def test_simulate(self, runner, tmp_path, config, name):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_trials": 1, "iterations": 1,
                                   "targets": {"kind": "uniform"}, **config}))
        res = runner.invoke(main, ["simulate", "--config", str(cfg), "--out",
                                   str(tmp_path / "x.json")])
        self.check(res, name)


@pytest.mark.parametrize("epoch", ["abc", "1e3", "99999999999999999"])
def test_malformed_source_date_epoch_is_named(runner, tmp_path, monkeypatch, epoch):
    """Not an integer, or past what the platform's time functions take: an
    error naming the variable, never a traceback, and no output file."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"kind": "uniform"}))
    out = tmp_path / "x.jsonl"
    res = runner.invoke(main, ["sample", str(dist), "-n", "2", "--out", str(out)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
    assert f"Error: invalid SOURCE_DATE_EPOCH={epoch!r}" in res.output
    assert not out.exists()


class TestUnwritableOut:
    """An --out that cannot be opened is an error naming the path, never a
    traceback, for every command and output format."""

    @pytest.fixture
    def inputs(self, annotations, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"kind": "uniform"}))
        sim = TestSimulate().write_config(tmp_path, n_trials=2, iterations=2)
        pairs = TestEvaluate().write_pairs(tmp_path, [TestEvaluate().header(),
                                                      TestEvaluate().pair()])
        return {"annotations": str(annotations), "dist": str(dist), "sim": str(sim),
                "pairs": str(pairs)}

    @pytest.mark.parametrize("argv", [
        ["fit-dist", "{annotations}"],
        ["fit-dist", "{annotations}", "--kind", "nonparametric"],
        ["sample", "{dist}", "-n", "5"],
        ["sample", "{dist}", "-n", "0"],
        ["simulate", "--config", "{sim}"],
        ["simulate", "--config", "{sim}", "--format", "csv"],
        ["evaluate", "{pairs}"],
        ["evaluate", "{pairs}", "--format", "csv"],
        ["gradcheck", "-n", "2"],
    ], ids=["fit-dist", "fit-dist-nonparametric", "sample", "sample-empty", "simulate",
            "simulate-csv", "evaluate", "evaluate-csv", "gradcheck"])
    def test_names_the_path(self, runner, inputs, tmp_path, argv):
        out = tmp_path / "missing" / "out.json"
        res = runner.invoke(main, [a.format(**inputs) for a in argv] + ["--out", str(out)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert f"Error: cannot write {out}: No such file or directory" in res.output
        assert "Traceback" not in res.output
        assert not out.parent.exists()


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

    def check_clean(self, res, name):
        assert res.exit_code == 1
        assert name in res.output
        assert isinstance(res.exception, SystemExit), res.exception

    TARGETS_FILE = {"kind": "file", "path": "targets.jsonl"}
    POINTS_FILE = {"path": "points.json"}

    @pytest.mark.parametrize("files, config, name", [
        ({"targets.jsonl": '{"quat_wxyz": [1, 0, 0, 0], "focal_px": 600.0}\n'},
         {"targets": TARGETS_FILE}, "targets.jsonl line 1"),
        ({"targets.jsonl": "[1, 0, 0, 0]\n"}, {"targets": TARGETS_FILE},
         "targets.jsonl line 1"),
        ({}, {"targets": TARGETS_FILE}, "targets.jsonl"),
        ({}, {"targets": {"kind": "uniform"}, "model_points": POINTS_FILE},
         "points.json"),
        ({"points.json": "[[0, 0, 0],"},
         {"targets": {"kind": "uniform"}, "model_points": POINTS_FILE}, "points.json"),
    ], ids=["target-missing-field", "target-not-object", "targets-missing",
            "points-missing", "points-malformed"])
    def test_simulate_input_fault(self, runner, tmp_path, monkeypatch, files,
                                  config, name):
        monkeypatch.chdir(tmp_path)
        for fname, text in files.items():
            (tmp_path / fname).write_text(text)
        (tmp_path / "sim.json").write_text(json.dumps({"n_trials": 1, **config}))
        res = runner.invoke(main, ["simulate", "--config", "sim.json", "--out",
                                   "x.json"])
        self.check_clean(res, name)

    @pytest.mark.parametrize("doc", [
        {"kind": "parametric"},
        {"kind": "nonparametric", "records": []},
        [{"kind": "uniform"}],
        {"kind": "uniform", "z_range": "ab"},
    ], ids=["bingham-missing", "deltas-missing", "top-level-array", "z-range-string"])
    def test_sample_input_fault(self, runner, tmp_path, doc):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps(doc))
        res = runner.invoke(main, ["sample", str(dist), "-n", "3", "--out",
                                   str(tmp_path / "x.jsonl")])
        self.check_clean(res, "dist.json")

    PARAMETRIC = {"kind": "parametric",
                  "bingham": {"m": np.eye(4).tolist(), "z": [-3.0, -2.0, -1.0, 0.0]},
                  "xy": {"mean": [0.0, 0.0], "cov": [[0.01, 0.0], [0.0, 0.01]]},
                  "zf": {"mean": [0.3, 6.3], "cov": [[0.01, 0.0], [0.0, 0.04]]}}
    NONPARAMETRIC = {"kind": "nonparametric", "records": [
        {"quat_wxyz": [1, 0, 0, 0], "t_m": [0, 0, 1], "f_px": 600.0,
         "img_wh": [640, 480], "bbox": [0, 0, 60, 80]}],
        "deltas": {"delta_r_rad": 0.1, "delta_x_m": 0.01, "delta_y_m": 0.01,
                   "delta_z_m": 0.1, "delta_f_px": 50.0}}

    @pytest.mark.parametrize("text, field", [
        (json.dumps({**PARAMETRIC, "bingham": {**PARAMETRIC["bingham"], "m": [
            [float("nan"), 0, 0, 0], *np.eye(4)[1:].tolist()]}}), "m"),
        (json.dumps({**PARAMETRIC, "xy": {**PARAMETRIC["xy"], "mean": [float("nan"), 0]}}),
         "mean"),
        (json.dumps({**NONPARAMETRIC, "deltas": {**NONPARAMETRIC["deltas"],
                                                 "delta_r_rad": float("nan")}}), "delta_r"),
        ('{"kind": "uniform", "xy_box": -1}', "xy_box"),
        ('{"kind": "uniform", "xy_box": NaN}', "xy_box"),
        ('{"kind": "uniform", "xy_box": 1e309}', "xy_box"),
        ('{"kind": "uniform", "xy_box": "a"}', "xy_box"),
        ('{"kind": "uniform", "xy_box": "0.3"}', "xy_box"),
        ('{"kind": "uniform", "z_range": [0.8, 1e309]}', "z_range"),
        ('{"kind": "uniform", "f_range": [NaN, 900]}', "f_range"),
        ('{"kind": "uniform", "z_range": [1]}', "z_range"),
        ('{"kind": "uniform", "xy_box": true, "z_range": [true, 2]}', "z_range"),
        ('{"kind": "uniform", "f_range": [100, false]}', "f_range"),
        ('{"kind": "uniform", "xy_box": true}', "xy_box"),
    ], ids=["bingham-m-nan", "xy-mean-nan", "delta-r-nan", "xy-box-negative",
            "xy-box-nan", "xy-box-1e309", "xy-box-string", "xy-box-numeric-string",
            "z-range-1e309", "f-range-nan", "z-range-one-element", "z-range-bool",
            "f-range-bool", "xy-box-bool"])
    def test_sample_distribution_field_fault(self, runner, tmp_path, text, field):
        """A non-finite or out-of-range parameter is an error naming the field."""
        dist = tmp_path / "dist.json"
        dist.write_text(text)
        res = runner.invoke(main, ["sample", str(dist), "-n", "3", "--out",
                                   str(tmp_path / "x.jsonl")])
        self.check_clean(res, f"dist.json: {field}")
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("z1, fails", [(-1e308, True), (-1.7e308, True), (-1e200, False)])
    def test_sample_bingham_z_near_the_float_limit(self, runner, tmp_path, z1, fails):
        """A z whose sampling envelope overflows is an error naming z, not a sampler that
        draws forever; -1e200 still samples. A hang fails through the alarm."""
        def hang(*_):
            raise TimeoutError("sample did not return")
        dist, out = tmp_path / "dist.json", tmp_path / "x.jsonl"
        dist.write_text(json.dumps({**self.PARAMETRIC, "bingham": {
            **self.PARAMETRIC["bingham"], "z": [z1, -2.0, -1.0, 0.0]}}))
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            res = runner.invoke(main, ["sample", str(dist), "-n", "1000", "--out", str(out)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        if fails:
            self.check_clean(res, f"Error: {dist}: z [{z1}, -2.0, -1.0, 0.0] is too "
                                  "concentrated to sample")
            assert not out.exists()
        else:
            assert res.exit_code == 0, res.output
            assert len(out.read_text().splitlines()) == 1001

    @pytest.mark.parametrize("record, message", [
        ({"quat_wxyz": [0, 0, 0, 0]}, "quaternion norm is zero or non-finite"),
        (5, "'int' object is not subscriptable"),
    ], ids=["zero-quaternion", "record-a-number"])
    def test_nonparametric_record_fault_names_the_record(self, runner, tmp_path, record,
                                                         message):
        """A faulty record of a nonparametric distribution is named by its index."""
        good = self.NONPARAMETRIC["records"][0]
        records = [good] * 7 + [{**good, **record} if isinstance(record, dict) else record]
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({**self.NONPARAMETRIC, "records": records + [good]}))
        res = runner.invoke(main, ["sample", str(dist), "-n", "3", "--out",
                                   str(tmp_path / "x.jsonl")])
        self.check_clean(res, f"dist.json: records/7: {message}")

    PAIR = {"pred": TestEvaluate.GT, "gt": TestEvaluate.GT, "points": [[0, 0, 0]],
            "bbox_gt": [0, 0, 60, 80], "img_diag": 800.0}

    @pytest.mark.parametrize("lines", [
        ["5"],
        ['{"model_points": [[0, 0, 0]]}'],
        [json.dumps({**PAIR, "bbox_pred": []})],
        [json.dumps({**PAIR, "bbox_pred": 0})],
        [json.dumps({**PAIR, "img_diag": float("nan")})],
        [json.dumps({**PAIR, "img_diag": "nan"})],
        [json.dumps({**PAIR, "img_diag": float("inf")})],
        [json.dumps({**PAIR, "pred": {**TestEvaluate.GT, "quat_wxyz": [1, 0, 0]}})],
        [json.dumps({**PAIR, "pred": {**TestEvaluate.GT, "quat_wxyz": [0, 0, 0, 0]}})],
        [json.dumps({**PAIR, "gt": {**TestEvaluate.GT, "quat_wxyz": [1e200, 0, 0, 0]}})],
        [json.dumps({**PAIR, "pred": {**TestEvaluate.GT, "t_m": ["a", 0, 1]}})],
        [json.dumps({**PAIR, "gt": {**TestEvaluate.GT, "focal_px": 0}})],
    ], ids=["line-not-object", "points-header-not-object", "bbox-pred-empty",
            "bbox-pred-zero", "img-diag-nan", "img-diag-nan-string",
            "img-diag-infinity", "quat-three-components", "quat-zero",
            "quat-norm-overflow", "t-m-not-number", "focal-zero"])
    def test_evaluate_input_fault(self, runner, tmp_path, lines):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["evaluate", str(pairs), "--out",
                                   str(tmp_path / "x.json")])
        self.check_clean(res, "pairs.jsonl line 1")

    @pytest.mark.parametrize("field, kind", [
        ({"quat_wxyz": ["a", 0, 0, 0]}, "parametric"),
        ({"t_m": [float("nan"), 0, 1]}, "parametric"),
        ({"t_m": [float("nan"), 0, 1]}, "nonparametric"),
        ({"t_m": [0.1, 1.5]}, "parametric"),
        ({"t_m": [0.1, 1.5]}, "nonparametric"),
        ({"f_px": -600.0}, "parametric"),
        ({"f_px": -600.0}, "nonparametric"),
        ({"img_wh": [640, 480, 7]}, "nonparametric"),
        ({"img_wh": "64"}, "nonparametric"),
        ({"img_wh": [640, "480"]}, "parametric"),
        ({"img_wh": [640, True]}, "parametric"),
    ], ids=["quat-not-number", "nan-translation-parametric",
            "nan-translation-nonparametric", "two-component-translation-parametric",
            "two-component-translation-nonparametric", "negative-focal-parametric",
            "negative-focal-nonparametric", "img-wh-three-numbers", "img-wh-string",
            "img-wh-numeric-string", "img-wh-bool"])
    def test_fit_dist_annotation_fault(self, runner, annotations, tmp_path, field,
                                       kind):
        lines = annotations.read_text().splitlines()
        lines[4] = json.dumps({**json.loads(lines[4]), **field})
        annotations.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["fit-dist", str(annotations), "--kind", kind,
                                   "--out", str(tmp_path / "x.json")])
        self.check_clean(res, "ann.jsonl line 5")

    @pytest.mark.parametrize("command", ["evaluate", "fit-dist", "simulate"])
    def test_non_utf8_line_is_named(self, runner, annotations, tmp_path, command):
        """Bytes that are not UTF-8 on line 2 of a JSON-lines input: an error naming
        the line, not a UnicodeDecodeError."""
        first = {"evaluate": json.dumps(TestEvaluate().header()),
                 "fit-dist": annotations.read_text().splitlines()[0],
                 "simulate": json.dumps(TestEvaluate.GT)}[command]
        path = tmp_path / "input.jsonl"
        path.write_bytes(first.encode() + b"\n\xff\xfe\n" + first.encode() + b"\n")
        out = ["--out", str(tmp_path / "x.json")]
        if command == "simulate":
            (tmp_path / "sim.json").write_text(json.dumps(
                {"n_trials": 1, "targets": {"kind": "file", "path": str(path)}}))
            res = runner.invoke(main, ["simulate", "--config", str(tmp_path / "sim.json"), *out])
        else:
            res = runner.invoke(main, [command, str(path), *out])
        self.check_clean(res, "input.jsonl line 2: 'utf-8' codec can't decode byte 0xff")
        assert "UnicodeDecodeError" not in res.output


IMPORT_SPLIT_SCRIPT = r"""
import json, sys
from pathlib import Path

sys.modules["scipy"] = None  # any import of SciPy now raises ImportError

import posefocal
import posefocal.cli


def loaded(name):
    return any(m == name or m.startswith(name + ".") for m in sys.modules)


def run(*argv):
    posefocal.cli.main(list(argv), standalone_mode=False)


d = Path(sys.argv[1])
seen = {"import": loaded("jsonschema")}
run("evaluate", str(d / "pairs.jsonl"), "--out", str(d / "eval.json"))
run("gradcheck", "-n", "3")
for kind in ("parametric", "nonparametric"):
    run("fit-dist", str(d / "ann.jsonl"), "--kind", kind, "--out", str(d / f"{kind}.json"))
    run("sample", str(d / f"{kind}.json"), "-n", "5", "--seed", "1",
        "--out", str(d / f"{kind}.jsonl"))
seen["score and datagen"] = loaded("jsonschema")
run("simulate", "--config", str(d / "sim.json"), "--out", str(d / "sim_out.json"))
seen["simulate"] = loaded("jsonschema")
print(json.dumps(seen))
"""


def fresh_process_env():
    src = os.path.dirname(os.path.dirname(posefocal.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_no_command_needs_scipy(annotations, tmp_path):
    """With SciPy made unimportable, every command runs: evaluate, gradcheck,
    both fit-dist kinds, sample from both distributions and simulate; none
    loads jsonschema, which only the tests use."""
    pairs = TestEvaluate()
    pairs.write_pairs(tmp_path, [pairs.header(), pairs.pair()])
    (tmp_path / "sim.json").write_text(json.dumps(
        {"n_trials": 2, "iterations": 2, "targets": {"kind": "uniform"},
         "model_points": {"count": 8}}))
    done = subprocess.run([sys.executable, "-c", IMPORT_SPLIT_SCRIPT, str(tmp_path)],
                          env=fresh_process_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen == {"import": False, "score and datagen": False, "simulate": False}
    for kind in ("parametric", "nonparametric"):
        assert len((tmp_path / f"{kind}.jsonl").read_text().splitlines()) == 6


COMMAND_MODULES_SCRIPT = r"""
import json, sys
NAMED = {"orjson", "numpy.ma", "numpy.polynomial", "numpy.random"}
import posefocal.cli
if sys.argv[1:]:
    posefocal.cli.main(sys.argv[1:], standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("posefocal.") or m in NAMED)))
"""


def test_each_command_loads_only_its_modules(annotations, tmp_path):
    """In a fresh process, import posefocal.cli loads only the modules every command
    shares; simulate (file targets) loads neither sampling nor losses, evaluate and
    gradcheck neither sampling nor the simulator, fit-dist and sample neither the
    simulator nor losses. orjson, which formats float columns and parses pair and
    annotation files column-wise, is loaded by sample, evaluate and fit-dist, not by
    gradcheck or simulate, whose targets json parses and whose kept trajectories are
    dict records. No command loads numpy.ma (np.unique's and np.percentile's first
    call) or numpy.polynomial (leggauss), and only the commands that draw, sample,
    simulate and gradcheck, load numpy.random."""
    evaluate = TestEvaluate()
    pairs = evaluate.write_pairs(tmp_path, [evaluate.header(), evaluate.pair()])
    (tmp_path / "targets.jsonl").write_text(
        json.dumps({"quat_wxyz": [1, 0, 0, 0], "t_m": [0, 0, 1], "focal_px": 600.0}) + "\n")
    sim = {"n_trials": 1, "iterations": 2, "model_points": {"count": 8},
           "targets": {"kind": "file", "path": str(tmp_path / "targets.jsonl")}}
    (tmp_path / "sim.json").write_text(json.dumps(sim))
    (tmp_path / "sim_kept.json").write_text(json.dumps({**sim, "keep_trajectories": True}))
    shared = {"cli", "errors", "geometry", "metrics", "update_rules"}
    cases = [([], shared, {"sampling", "simulator", "losses", "orjson"}),
             (["simulate", "--config", str(tmp_path / "sim.json"), "--out",
               str(tmp_path / "report.json")], {"simulator"}, {"sampling", "losses", "orjson"}),
             (["simulate", "--config", str(tmp_path / "sim_kept.json"), "--out",
               str(tmp_path / "kept.json")], {"simulator"}, {"sampling", "losses", "orjson"}),
             (["evaluate", str(pairs), "--out", str(tmp_path / "eval.json")], {"orjson"},
              {"sampling", "simulator"}),
             (["gradcheck", "-n", "2"], {"losses"}, {"sampling", "simulator", "orjson"})]
    for kind in ("parametric", "nonparametric"):
        dist = str(tmp_path / f"{kind}.json")
        cases += [(["fit-dist", str(annotations), "--kind", kind, "--out", dist],
                   {"sampling", "orjson"}, {"simulator", "losses"}),
                  (["sample", dist, "-n", "3", "--out", str(tmp_path / f"{kind}.jsonl")],
                   {"sampling", "orjson"}, {"simulator", "losses"})]
    wrong = []
    for argv, needed, unneeded in cases:
        done = subprocess.run([sys.executable, "-c", COMMAND_MODULES_SCRIPT, *argv],
                              env=fresh_process_env(), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = {m.removeprefix("posefocal.")
                  for m in json.loads(done.stdout.strip().splitlines()[-1])}
        drawn = {"numpy.random"} if argv[:1] in (["sample"], ["simulate"], ["gradcheck"]) else set()
        if not (loaded >= needed | shared and not loaded & unneeded
                and {m for m in loaded if m.startswith("numpy.")} == drawn):
            wrong.append(([a for a in argv if not a.startswith("/")], sorted(loaded - shared)))
    assert not wrong, wrong


def test_main_reports_any_commands_domain_error(runner, monkeypatch):
    """main turns a DomainError from any command, one added later too, into an error
    message and exit code 1; called with standalone_mode=False, it raises a ClickException."""
    @click.command("fails")
    def fails():
        raise DomainError("bad input")

    monkeypatch.setitem(main.commands, "fails", fails)
    res = runner.invoke(main, ["fails"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
    assert res.output == "Error: bad input\n"
    with pytest.raises(click.ClickException, match="^bad input$"):
        main(["fails"], standalone_mode=False)


# ---------------------------------------------------------------------------
# Mutated inputs: exit 0 or an error, never a traceback
# ---------------------------------------------------------------------------

HUGE_SIZES = [2**60, 2**62, 10**21]  # sizes NumPy refuses to shape, before it allocates
# no integer between 10 and 2**60, so that no mutated size allocates; no float holds 10**400
MUTANT_VALUES = [*HUGE_SIZES, 10**400, -1, 0, 1, 10, -0.0, 0.5, 5e-324, 1e308, -1e308, math.nan,
                 math.inf, -math.inf, True, False, None, "", "a", "1.5", [], {}, [0, 0],
                 [1, 0, 0, 0], {"a": 1}]
SIZE_FIELDS = ("n_trials", "iterations", "count")


def mutant_inputs():
    """Small valid inputs of the four commands that read files, by file name: (the parsed
    JSON, a list of the lines' values for a JSON-lines file; the command line reading it)."""
    rng = np.random.default_rng(0)
    records = [{"quat_wxyz": Rotation(rng.standard_normal(4) + [2, 0, 0, 0]).quat.tolist(),
                "t_m": [*rng.normal(0, 0.1, 2).tolist(), float(np.exp(rng.normal(0.3, 0.15)))],
                "f_px": float(np.exp(rng.normal(6.3, 0.2))), "img_wh": [640, 480],
                "bbox": [0, 0, 100, 100]} for _ in range(6)]
    targets = [{k: r[k] for k in ("quat_wxyz", "t_m")} | {"focal_px": r["f_px"]}
               for r in records]
    sim = {"n_trials": 3, "iterations": 2, "seed": 1, "update_rules": ["exact", "legacy"],
           "predictor": {"noise": {"sigma_x_px": 6.0, "sigma_rot_deg": 15.0},
                         "clamp": {"max_px": 20.0, "max_angle_deg": 5.0}},
           "focal_init": 600.0, "img_diag": 800.0}
    sim_uniform = {**sim, "targets": {"kind": "uniform", "z_range": [0.9, 1.5],
                                      "f_range": [400, 900], "xy_box": 0.3},
                   "model_points": {"count": 8, "extent": 0.2, "seed": 1}}
    sim_files = {**sim, "keep_trajectories": True, "model_points": {"path": "points.json"},
                 "targets": {"kind": "file", "path": "targets.jsonl"}}
    points = rng.uniform(-0.1, 0.1, (6, 3)).tolist()
    pairs = [{"model_points": {"cube": points}},
             {**TestEvaluate().pair(), "pred": targets[0]},
             {**TestEvaluate().pair(points=points[:3]), "bbox_pred": None}]
    simulate = ["simulate", "--config", "sim-files.json", "--out", "report.csv",
                "--format", "csv"]
    sample = ["-n", "5", "--out", "poses.jsonl"]
    return {
        "sim-uniform.json": (sim_uniform, ["simulate", "--config", "sim-uniform.json",
                                           "--out", "report.json"]),
        "sim-files.json": (sim_files, simulate),
        "targets.jsonl": (targets, simulate),
        "points.json": (points, simulate),
        "ann.jsonl": (records, ["fit-dist", "ann.jsonl", "--out", "dist.json"]),
        "parametric.json": (TestMalformedJson.PARAMETRIC, ["sample", "parametric.json", *sample]),
        "nonparametric.json": ({**TestMalformedJson.NONPARAMETRIC, "records": records},
                               ["sample", "nonparametric.json", *sample]),
        "uniform.json": ({"kind": "uniform", "z_range": [0.8, 1.2], "f_range": [500, 700],
                          "xy_box": 0.2}, ["sample", "uniform.json", *sample]),
        "pairs.jsonl": (pairs, ["evaluate", "pairs.jsonl", "--out", "scores.json"]),
    }


def json_paths(node, path=()):
    """The paths to every node of a parsed JSON value, its root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from json_paths(value, (*path, key))


def single_edit(doc, rng):
    """(``doc`` with one edit at a random node, a leaf more often than not: its value
    replaced by one of MUTANT_VALUES, removed, wrapped in a list, or a value added beside
    it; the path and the value put there, None for a removal)."""
    doc = json.loads(json.dumps(doc))
    paths = list(json_paths(doc))
    leaves = [p for p in paths if not isinstance(get_at(doc, p), (dict, list))]
    path, value = rng.choice(leaves if rng.random() < 0.7 else paths), rng.choice(MUTANT_VALUES)
    if not path:
        return value, path, value
    parent, key, op = get_at(doc, path[:-1]), path[-1], rng.random()
    if op < 0.6:
        parent[key] = value
    elif op < 0.75:
        del parent[key]
        value = None
    elif op < 0.85:
        parent[key] = value = [parent[key]]
    elif isinstance(parent, list):
        parent.insert(key, value)
    else:
        parent[rng.choice([*parent, "extra"])] = value
    return doc, path, value


def get_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def input_text(name, doc) -> str:
    if name.endswith(".jsonl"):
        return "".join(json.dumps(line) + "\n" for line in doc)
    return json.dumps(doc)


def test_mutated_inputs_never_give_a_traceback(runner, tmp_path, monkeypatch):
    """300 single edits of small valid inputs (a simulate config with its targets and points
    files, an annotation file, a distribution of each kind and a pair file), each run through
    its command: exit 0, or exit 1 with an error message; SystemExit is the only exception.
    Sizes of 2**60 and more, which NumPy rejects before allocating, are among the edits.
    A RuntimeWarning is let through, as the CLI lets it through, not raised as the suite's
    filter raises it: a value such as 1e308 overflows, which warns and is no traceback."""
    monkeypatch.chdir(tmp_path)
    inputs, rng, huge = mutant_inputs(), random.Random(35), 0
    for name, (doc, _) in inputs.items():
        (tmp_path / name).write_text(input_text(name, doc))
    for case in range(300):
        name = rng.choice(sorted(inputs))
        doc, argv = inputs[name]
        if name.endswith(".jsonl"):
            line = rng.randrange(len(doc))
            mutant, path, value = single_edit(doc[line], rng)
            mutant = [*doc[:line], mutant, *doc[line + 1:]]
        else:
            mutant, path, value = single_edit(doc, rng)
        (tmp_path / name).write_text(text := input_text(name, mutant))
        if argv[0] == "fit-dist":
            argv = [*argv, "--kind", rng.choice(["parametric", "nonparametric"])]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = runner.invoke(main, argv)
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            (case, name, text, res.exception)
        assert res.exit_code == 0 or res.exit_code == 1 and res.output.startswith("Error:"), \
            (case, name, text, res.output)
        (tmp_path / name).write_text(input_text(name, doc))
        huge += bool(path) and name.startswith("sim-") and path[-1] in SIZE_FIELDS \
            and value in HUGE_SIZES
    assert huge > 0
