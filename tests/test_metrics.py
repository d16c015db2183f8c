"""Evaluation metrics and aggregation."""

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from posefocal import cli, metrics
from posefocal.errors import DomainError
from posefocal.geometry import (BBox, CameraIntrinsics, ModelPoints,
                                ParamState, PoseBatch, Rotation)
from posefocal.metrics import (GT_NORM_ERROR, HISTOGRAM_EDGES, IOU_ACC_THRESHOLD,
                               METRIC_FIELDS, PROJ_ACC_THRESHOLD, RECORD_FIELDS,
                               ROT_ACC_THRESHOLD, SCORE_BLOCK, GroundTruth, aggregate,
                               evaluate_pair, lower_median, to_records)
from posefocal.simulator import projected_bbox

CUBE = ModelPoints(np.random.default_rng(0).uniform(-0.1, 0.1, (12, 3)))
GT_BBOX = BBox(0, 0, 60, 80)  # diagonal 100


# ---------------------------------------------------------------------------
# The former scalar metrics, one pair at a time, kept verbatim but for the box's
# diagonal and area: the independent reference of the batched path
# ---------------------------------------------------------------------------

def diagonal(box: BBox) -> float:
    return float(np.hypot(box.x2 - box.x1, box.y2 - box.y1))


def area(box: BBox) -> float:
    return (box.x2 - box.x1) * (box.y2 - box.y1)


@dataclass(frozen=True)
class EvalPair:
    pred: ParamState
    gt: ParamState
    points: ModelPoints
    bbox_gt: BBox
    img_diag: float
    bbox_pred: BBox | None = None
    gt_distance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.img_diag) and self.img_diag > 0):
            raise DomainError(f"image diagonal must be finite and positive, got {self.img_diag}")
        t_hat = self.gt.translation
        with np.errstate(over="ignore") if math.hypot(*t_hat.tolist()) > 1e153 else nullcontext():
            norm = math.sqrt(t_hat.dot(t_hat))
        if not 0 < norm < math.inf:
            raise DomainError(GT_NORM_ERROR)
        object.__setattr__(self, "gt_distance", norm)


def err_rot(pair: EvalPair) -> float:
    v = (pair.pred.rotation.inverse() @ pair.gt.rotation).quat[1:]
    return float(2.0 * np.arcsin(min(1.0, math.sqrt(v.dot(v)))))


def _clouds(pair: EvalPair):
    pts = pair.points.points
    return (pts @ pair.pred.rotation.as_matrix().T + pair.pred.translation,
            pts @ pair.gt.rotation.as_matrix().T + pair.gt.translation)


def _mean_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.sqrt((d * d).sum(axis=1)).sum()) / len(d)


def err_trans(pair: EvalPair) -> float:
    d = pair.pred.translation - pair.gt.translation
    return math.sqrt(d.dot(d)) / pair.gt_distance


def err_pose(pair: EvalPair, clouds=None) -> float:
    cam, cam_hat = clouds or _clouds(pair)
    return diagonal(pair.bbox_gt) / pair.img_diag * _mean_distance(cam, cam_hat) \
        / pair.gt_distance


def err_focal(pair: EvalPair) -> float:
    return abs(pair.gt.focal - pair.pred.focal) / pair.gt.focal


def err_proj(pair: EvalPair, clouds=None) -> float:
    cam, cam_hat = clouds or _clouds(pair)
    if (cam_hat[:, 2] <= 0).any():
        raise DomainError("ground truth puts a model point behind the camera")
    if (cam[:, 2] <= 0).any():
        return math.inf
    uv = pair.pred.focal * cam[:, :2] / cam[:, 2:3]
    uv_hat = pair.gt.focal * cam_hat[:, :2] / cam_hat[:, 2:3]
    return _mean_distance(uv, uv_hat) / diagonal(pair.bbox_gt)


def bbox_iou(a: BBox, b: BBox) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (area(a) + area(b) - inter)


def scalar_evaluate_pair(pair: EvalPair) -> dict:
    clouds = _clouds(pair)
    return dict(zip(RECORD_FIELDS, (
        err_rot(pair), err_trans(pair), err_pose(pair, clouds), err_focal(pair),
        err_proj(pair, clouds),
        bbox_iou(pair.bbox_gt, pair.bbox_pred) if pair.bbox_pred else None)))


# ---------------------------------------------------------------------------
# The batched path
# ---------------------------------------------------------------------------

def make_state(x=0.0, y=0.0, z=1.0, f=600.0, rot=None):
    return ParamState(rot or Rotation.identity(), np.array([x, y, z]), f)


def make_pairs(rows) -> dict:
    """Pairs (pred, gt, points, bbox_gt, img_diag, bbox_pred or None) as the columns
    that evaluate_pair scores."""
    pred, gt, points, bbox, img_diag, bbox_pred = zip(*rows)
    return {"pred": PoseBatch.from_states(pred), "gt": PoseBatch.from_states(gt),
            "points": [p.points for p in points],
            "bbox_gt": np.array([b.as_list() for b in bbox]),
            "img_diag": np.array(img_diag, dtype=float),
            "bbox_pred": np.array([b.as_list() if b else [math.nan] * 4 for b in bbox_pred])}


def make_pair(pred, gt, points=CUBE, bbox=GT_BBOX, img_diag=800.0, bbox_pred=None):
    return make_pairs([(pred, gt, points, bbox, img_diag, bbox_pred)])


def record(pairs) -> dict:
    """The record of the first pair, scored with the others by evaluate_pair."""
    return to_records(evaluate_pair(pairs))[0]


def columns(records):
    """The records' metric columns as the former evaluate command built them."""
    return {f: np.array([r[f] for r in records], dtype=float) for f in RECORD_FIELDS}


class TestErrRot:
    def test_equal_rotations(self):
        pair = make_pair(make_state(), make_state())
        assert record(pair)["e_rot"] == pytest.approx(0.0)

    def test_sixth_turn(self):
        pred = make_state(rot=Rotation.from_axis_angle([0, 0, 1], np.pi / 6))
        assert record(make_pair(pred, make_state()))["e_rot"] == pytest.approx(np.pi / 6)


class TestErrTrans:
    def test_hand_evaluated(self):
        pair = make_pair(make_state(z=2.2), make_state(z=2.0))
        assert record(pair)["e_trans"] == pytest.approx(0.1)

    def test_scale_equivariance(self):
        base = record(make_pair(make_state(x=0.02), make_state()))["e_trans"]
        doubled = record(make_pair(make_state(x=0.04), make_state()))["e_trans"]
        assert doubled == pytest.approx(2 * base)

    def test_zero_ground_truth_rejected(self):
        gt = ParamState(Rotation.identity(), np.zeros(3), 600.0)
        with pytest.raises(DomainError):
            evaluate_pair(make_pair(make_state(), gt))

    def test_ground_truth_distance_is_the_norm(self):
        """GroundTruth's t_norm is sqrt(t.t) bit for bit, and a norm that overflows is
        rejected without a RuntimeWarning (which the tests raise as an error), on
        magnitudes from 1e-300 to past the overflow near 1.3e154. Each ground truth
        sees one model point, put in front of its camera."""
        rng = np.random.default_rng(31)
        scales = 10.0 ** rng.uniform(-300.0, 154.5, 3000)
        ts = [*rng.standard_normal((3000, 3)) * scales[:, None],
              [1e160, 0, 1], [1e154, 1e154, 1e154], [1.2e154, 0, 0], [0, -1.3e154, 0],
              [0, 5e-324, 0]]
        rejected = 0
        for t in map(np.asarray, ts):
            with np.errstate(over="ignore"):
                want = math.sqrt(t.dot(t))
            gt = PoseBatch(np.array([[1.0, 0.0, 0.0, 0.0]]), t[None], np.array([600.0]))
            point = np.array([[0.0, 0.0, 2.0 * abs(t[2]) + 1.0]])
            truth = lambda: GroundTruth(gt, point, np.array([GT_BBOX.as_list()]), 800.0)
            if 0 < want < math.inf:
                assert truth().t_norm[0] == want
            else:
                rejected += 1
                with pytest.raises(DomainError, match=f"^{GT_NORM_ERROR}$"):
                    truth()
        assert rejected > 10


class TestErrPose:
    def test_pure_translation_is_point_independent(self):
        # d_bbox / d_img = 0.5 with a 100-diagonal box on a 200 diagonal
        for seed in range(3):
            pts = ModelPoints(np.random.default_rng(seed).uniform(-1, 1, (9, 3)))
            pair = make_pair(make_state(z=2.2), make_state(z=2.0), points=pts,
                             img_diag=200.0)
            assert record(pair)["e_pose"] == pytest.approx(0.05)

    def test_reduces_to_scaled_err_trans_for_equal_rotations(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rot = Rotation(rng.standard_normal(4))
            pred = make_state(*rng.uniform(-0.2, 0.2, 2), rng.uniform(1, 3),
                              rot=rot)
            gt = make_state(*rng.uniform(-0.2, 0.2, 2), rng.uniform(1, 3),
                            rot=rot)
            rec = record(make_pair(pred, gt))
            expected = diagonal(GT_BBOX) / 800.0 * rec["e_trans"]
            assert abs(rec["e_pose"] - expected) <= 1e-12

    def test_prefactor_linear_in_bbox_diagonal(self):
        pred, gt = make_state(x=0.05), make_state()
        small = make_pair(pred, gt, bbox=BBox(0, 0, 30, 40))
        large = make_pair(pred, gt, bbox=BBox(0, 0, 60, 80))
        assert record(large)["e_pose"] == pytest.approx(2 * record(small)["e_pose"])


class TestErrFocal:
    def test_equal(self):
        assert record(make_pair(make_state(), make_state()))["e_focal"] == 0.0

    def test_ten_percent(self):
        pair = make_pair(make_state(f=660.0), make_state(f=600.0))
        assert record(pair)["e_focal"] == pytest.approx(0.1)


class TestErrProj:
    def test_equal_parameters(self):
        assert record(make_pair(make_state(), make_state()))["e_proj"] == pytest.approx(0.0)

    def test_on_axis_point_focal_invariant(self):
        origin = ModelPoints(np.zeros((1, 3)))
        pair = make_pair(make_state(f=600.0), make_state(f=660.0),
                         points=origin)
        assert record(pair)["e_proj"] == pytest.approx(0.0)

    def test_hand_evaluated(self):
        pts = ModelPoints(np.array([[0.1, 0.0, 0.0]]))
        pair = make_pair(make_state(f=600.0), make_state(f=660.0), points=pts)
        assert record(pair)["e_proj"] == pytest.approx(0.06)

    def test_prediction_behind_camera_is_infinite(self):
        pred = ParamState(Rotation.identity(), np.array([0.0, 0.0, 0.05]), 600.0)
        pair = make_pair(pred, make_state(z=1.0))
        assert record(pair)["e_proj"] == math.inf

    @pytest.mark.parametrize("pred_z", [1.0, 0.05])
    def test_ground_truth_behind_camera_rejected(self, pred_z):
        """Checked before the prediction: a prediction behind the camera too
        must not turn the pair into a silent inf."""
        pair = make_pair(make_state(z=pred_z), make_state(z=0.05))
        with pytest.raises(DomainError, match="ground truth puts a model point"):
            evaluate_pair(pair)


class TestEvaluateBatch:
    def test_rows_match_evaluate_pair(self):
        """GroundTruth.score, with boxes projected, against the scalar reference."""
        rng = np.random.default_rng(40)
        intr = CameraIntrinsics(600.0, 5.0, -3.0)
        preds, gts = [], []
        for i in range(30):
            gts.append(make_state(*rng.uniform(-0.2, 0.2, 2), rng.uniform(0.8, 2.0),
                                  rng.uniform(300, 900), Rotation(rng.standard_normal(4))))
            # every fifth prediction puts model points behind the camera
            z = 0.0 if i % 5 == 0 else rng.uniform(0.8, 2.0)
            preds.append(make_state(*rng.uniform(-0.2, 0.2, 2), z,
                                    rng.uniform(300, 900), Rotation(rng.standard_normal(4))))
        boxes = [projected_bbox(g, CUBE, intr) for g in gts]
        got = GroundTruth(PoseBatch.from_states(gts), CUBE.points,
                          np.array([b.as_list() for b in boxes]), 800.0).score(
            PoseBatch.from_states(preds), intr)
        behind = 0
        for i, (pred, gt, box) in enumerate(zip(preds, gts, boxes)):
            try:
                box_pred = projected_bbox(pred, CUBE, intr)
            except DomainError:
                box_pred = None
            want = scalar_evaluate_pair(EvalPair(pred, gt, CUBE, box, 800.0, box_pred))
            for key, value in want.items():
                if value is None:
                    behind += 1
                    assert math.isnan(got[key][i]) and got["e_proj"][i] == math.inf
                else:
                    assert got[key][i] == pytest.approx(value, rel=1e-12, abs=0.0)
        assert behind == 6

    @pytest.mark.parametrize("pred_z", [1.0, 0.05])
    def test_ground_truth_behind_camera_rejected_like_evaluate_pair(self, pred_z):
        pred, gt = make_state(z=pred_z), make_state(z=0.05)
        with pytest.raises(DomainError, match="ground truth puts a model point"):
            scalar_evaluate_pair(EvalPair(pred, gt, CUBE, GT_BBOX, 800.0))
        with pytest.raises(DomainError, match="ground truth puts a model point"):
            evaluate_pair(make_pair(pred, gt))
        with pytest.raises(DomainError, match="ground truth puts a model point"):
            GroundTruth(PoseBatch.from_states([gt]), CUBE.points, np.array([GT_BBOX.as_list()]),
                        800.0).score(PoseBatch.from_states([pred]),
                                     CameraIntrinsics(600.0, 0.0, 0.0))


def near_half_turn(rng, gt: Rotation) -> Rotation:
    """A rotation within 1e-3 rad of a half-turn away from ``gt``."""
    axis = rng.standard_normal(3)
    return Rotation.from_axis_angle(axis, np.pi - rng.uniform(0.0, 1e-3)) @ gt


def pair_file_doc(rng, i: int) -> dict:
    """Pair line i >= 1 of a file whose header names the clouds "a" (5 points) and "b" (17):
    rows that are not multiples of 7 hold "a" or an inline cloud of 5 points; the others
    "b", or inline clouds of 1 or 9 points. Some predictions are near a half-turn away,
    some behind the camera with a box, some have no box or a null one."""
    gt = make_state(*rng.uniform(-0.2, 0.2, 2), rng.uniform(2.0, 4.0),
                    rng.uniform(300, 900), Rotation(rng.standard_normal(4)))
    rot = near_half_turn(rng, gt.rotation) if i % 3 == 0 else Rotation(rng.standard_normal(4))
    z = -rng.uniform(0.5, 1.0) if i % 5 == 1 else rng.uniform(2.0, 4.0)
    pred = make_state(*rng.uniform(-0.2, 0.2, 2), z, rng.uniform(300, 900), rot)
    if i % 7:
        points = "a" if i % 2 else rng.uniform(-0.1, 0.1, (5, 3)).tolist()
    else:
        points = ["b", rng.uniform(-0.1, 0.1, (1, 3)).tolist(),
                  rng.uniform(-0.1, 0.1, (9, 3)).tolist()][i // 7 % 3]
    doc = {"pred": pred.to_dict(), "gt": gt.to_dict(), "points": points,
           "bbox_gt": GT_BBOX.as_list(), "img_diag": rng.uniform(200.0, 1200.0)}
    if i % 4:
        x, y = rng.uniform(-10, 40, 2)
        doc["bbox_pred"] = [x, y, x + rng.uniform(1, 80), y + rng.uniform(1, 90)]
    elif i % 8 == 0:
        doc["bbox_pred"] = None
    return doc


class TestEvaluatePairBitIdentity:
    @pytest.mark.parametrize("n", [1, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1,
                                   2 * SCORE_BLOCK + 1])
    def test_matches_scalar_reference(self, tmp_path, n):
        """A pair file read by the evaluate command's reader and scored by evaluate_pair
        gives, for every row and field, the former scalar evaluate_pair's value bit for
        bit, and NaN where that record holds None. Its rows with clouds of 5 points, named
        and inline, number n (one block, a block and one, ...); those of 1, 9 and 17
        points are 1 more for each 6 of them, and none when n is 1."""
        rng = np.random.default_rng(n)
        clouds = {"a": rng.uniform(-0.1, 0.1, (5, 3)), "b": rng.uniform(-0.1, 0.1, (17, 3))}
        docs = []
        while sum(1 for d in docs if d["points"] == "a" or len(d["points"]) == 5) < n:
            docs.append(pair_file_doc(rng, len(docs) + 1))
        lines = [json.dumps({"model_points": {k: v.tolist() for k, v in clouds.items()}}),
                 *map(json.dumps, docs)]
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        got = evaluate_pair(cli._load_pairs(path))
        kinds = set()
        for k, doc in enumerate(map(json.loads, lines[1:])):
            pts = clouds[doc["points"]] if isinstance(doc["points"], str) else doc["points"]
            box = doc.get("bbox_pred")
            want = scalar_evaluate_pair(EvalPair(
                ParamState.from_dict(doc["pred"]), ParamState.from_dict(doc["gt"]),
                ModelPoints(np.asarray(pts, dtype=float)), BBox(*doc["bbox_gt"]),
                doc["img_diag"], None if box is None else BBox(*box)))
            for f in RECORD_FIELDS:
                value = math.nan if want[f] is None else want[f]
                assert np.float64(value).tobytes() == got[f][k].tobytes(), (k, f)
            kinds.add((len(pts), want["e_rot"] > np.pi - 1e-3, want["e_proj"] == math.inf,
                       want["iou"] is None))
        assert {k[0] for k in kinds} >= ({5} if n == 1 else {1, 5, 9, 17})
        if n > 1:
            assert {k[1:] for k in kinds} >= {(True, False, False), (False, True, False),
                                              (False, False, True)}

    def test_shared_cloud_gives_the_columns_of_its_copies(self, tmp_path, monkeypatch):
        """One pair file written three ways: each line naming the header's 50-point cloud,
        each holding that cloud inline, and the two mixed within one block. The first is
        scored against the one cloud, the others stacked; all give the same columns, bit
        for bit."""
        rng = np.random.default_rng(27)
        cloud = rng.uniform(-0.1, 0.1, (50, 3)).tolist()
        docs = [pair_file_doc(rng, i) for i in range(1, 2 * SCORE_BLOCK + 20)]
        ways = {"named": ["c"] * len(docs), "inline": [cloud] * len(docs),
                "mixed": ["c"] * SCORE_BLOCK + [cloud] + ["c"] * (len(docs) - SCORE_BLOCK - 1)}
        ndims = []

        class Spy(GroundTruth):
            def __init__(self, gt, points, *args):
                ndims.append(points.ndim)
                super().__init__(gt, points, *args)

        monkeypatch.setattr(metrics, "GroundTruth", Spy)
        got = {}
        for way, points in ways.items():
            lines = [{"model_points": {"c": cloud}}, *({**d, "points": p}
                                                       for d, p in zip(docs, points))]
            path = tmp_path / f"{way}.jsonl"
            path.write_text("".join(json.dumps(line) + "\n" for line in lines))
            got[way] = b"".join(c.tobytes() for c in evaluate_pair(cli._load_pairs(path)).values())
        assert ndims == [2, 2, 2, 3, 3, 3, 2, 3, 2]  # three blocks each way
        assert got["named"] == got["inline"] == got["mixed"]


class TestGroundTruth:
    INTR = CameraIntrinsics(600.0, 5.0, -3.0)

    def make_truth(self, n=6, seed=41):
        rng = np.random.default_rng(seed)
        gts = PoseBatch.from_states([
            make_state(*rng.uniform(-0.2, 0.2, 2), rng.uniform(0.8, 2.0),
                       rng.uniform(300, 900), Rotation(rng.standard_normal(4)))
            for _ in range(n)])
        boxes = np.array([projected_bbox(gts.state(i), CUBE, self.INTR).as_list()
                          for i in range(n)])
        return gts, boxes, rng

    def test_one_half_scores_like_fresh_calls(self):
        """One ground-truth half, scored through several states, gives the
        arrays of a fresh GroundTruth at each, bit for bit."""
        gts, boxes, rng = self.make_truth()
        truth = GroundTruth(gts, CUBE.points, boxes, 800.0)
        for step in range(4):
            preds = PoseBatch(gts.quat + 0.2 * step * rng.standard_normal(gts.quat.shape),
                              gts.translation + [0.05 * step, 0.0, 0.0],
                              gts.focal * (1.0 + 0.1 * step))
            if step == 2:  # row 1's points behind the camera
                preds.translation[1, 2] = 0.0
            got = truth.score(preds, self.INTR)
            want = GroundTruth(gts, CUBE.points, boxes, 800.0).score(preds, self.INTR)
            assert got.keys() == want.keys()
            for key in want:
                assert np.array_equal(got[key], want[key], equal_nan=True), key
            assert (got["e_proj"][1] == math.inf) == (step == 2)
            assert np.isnan(got["iou"][1]) == (step == 2)
            without = truth.score(preds)
            assert without.keys() == set(want) - {"iou"}
            for key in without:
                assert np.array_equal(without[key], want[key]), key

    def test_bad_ground_truth_rejected_when_built(self):
        gts, boxes, _ = self.make_truth(3)
        zero = PoseBatch(gts.quat, np.where(np.arange(3)[:, None] == 2, 0.0,
                                            gts.translation), gts.focal)
        with pytest.raises(DomainError, match="ground-truth translation must be non-zero"):
            GroundTruth(zero, CUBE.points, boxes, 800.0)
        near = PoseBatch(gts.quat, gts.translation * [1.0, 1.0, 0.01], gts.focal)
        with pytest.raises(DomainError, match="ground truth puts a model point behind"):
            GroundTruth(near, CUBE.points, boxes, 800.0)
        with pytest.raises(DomainError, match="image diagonal"):
            GroundTruth(gts, CUBE.points, boxes, 0.0)
        with pytest.raises(DomainError, match="image diagonal .* got nan$"):
            GroundTruth(gts, CUBE.points, boxes, np.array([800.0, math.nan, 0.0]))


class TestAggregate:
    def test_single_record_medians(self):
        rec = record(make_pair(make_state(z=1.1), make_state()))
        summary = aggregate(columns([rec]))
        assert summary["medians"]["e_trans"] == pytest.approx(rec["e_trans"])
        assert summary["count"] == 1

    def test_perfect_predictions(self):
        recs = [record(make_pair(make_state(), make_state(),
                                        bbox_pred=GT_BBOX)) for _ in range(4)]
        summary = aggregate(columns(recs))
        assert all(v == 0.0 for v in summary["medians"].values())
        assert summary["accuracies"]["acc_rot_pi6"] == 1.0
        assert summary["accuracies"]["acc_proj_0.1"] == 1.0
        assert summary["accuracies"]["acc_det_0.5"] == 1.0

    def test_median_of_1001_sorted_values(self):
        recs = [record(make_pair(make_state(z=1.0 + 1e-4 * k),
                                        make_state()))
                for k in range(1001)]
        summary = aggregate(columns(recs))
        expected = sorted(r["e_trans"] for r in recs)[500]
        assert summary["medians"]["e_trans"] == pytest.approx(expected)

    def test_lower_median_convention(self):
        assert lower_median([1.0, 2.0]) == 1.0
        assert lower_median([3.0, 1.0, 2.0]) == 2.0
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0
        # ties, inf rows and arrays
        assert lower_median([2.0, 1.0, 2.0, 1.0]) == 1.0
        assert lower_median(np.array([3.0, 3.0, 3.0])) == 3.0
        assert lower_median([math.inf, 1.0]) == 1.0
        assert lower_median([math.inf, 1.0, math.inf]) == math.inf
        assert lower_median(np.array([math.inf])) == math.inf
        for empty in ([], np.empty(0)):
            with pytest.raises(DomainError, match="median of empty sequence"):
                lower_median(empty)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        recs = [record(make_pair(
            make_state(rng.uniform(-0.1, 0.1), 0.0, rng.uniform(0.9, 1.5)),
            make_state())) for _ in range(10)]
        a = aggregate(columns(recs))
        b = aggregate(columns(recs[::-1]))
        assert a["medians"] == b["medians"]
        assert a["accuracies"] == b["accuracies"]

    def test_detection_accuracy_strict_inequality(self):
        # IoU exactly 0.5 must not count
        half = BBox(0, 0, 30, 80)  # half the gt area, contained: IoU = 0.5
        recs = [record(make_pair(make_state(), make_state(),
                                        bbox_pred=half))]
        assert recs[0]["iou"] == pytest.approx(0.5)
        assert aggregate(columns(recs))["accuracies"]["acc_det_0.5"] == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            aggregate(columns([]))


# ---------------------------------------------------------------------------
# aggregate on columns against the former aggregate on per-row records
# ---------------------------------------------------------------------------

def old_lower_median(values) -> float:
    v = sorted(values)
    if not v:
        raise DomainError("median of empty sequence")
    return float(v[(len(v) + 1) // 2 - 1])


def old_aggregate(records) -> dict:
    """The records-based aggregate that the columns form replaced, kept verbatim."""
    records = list(records)
    if not records:
        raise DomainError("no metric records to aggregate")
    n = len(records)
    fields = METRIC_FIELDS
    columns = {f: [getattr(r, f) for r in records] for f in fields}

    summary = {
        "count": n,
        "medians": {f: old_lower_median(columns[f]) for f in fields},
        "accuracies": {
            "acc_rot_pi6": sum(v <= ROT_ACC_THRESHOLD for v in columns["e_rot"]) / n,
            "acc_proj_0.1": sum(v <= PROJ_ACC_THRESHOLD for v in columns["e_proj"]) / n,
        },
    }
    ious = [r.iou for r in records if r.iou is not None]
    if ious:
        summary["accuracies"]["acc_det_0.5"] = \
            sum(v > IOU_ACC_THRESHOLD for v in ious) / len(ious)

    histograms = {}
    for f in fields:
        edges = HISTOGRAM_EDGES[f]
        finite = [v for v in columns[f] if math.isfinite(v)]
        counts, _ = np.histogram(finite, bins=edges)
        histograms[f] = {"edges": edges.tolist(), "counts": counts.tolist(),
                         "overflow": len(columns[f]) - int(counts.sum())}
    summary["histograms"] = histograms
    return summary


def old_records(cols: dict) -> list:
    """Per-row records of the columns, as the former MetricRecord held them."""
    n = len(cols["e_rot"])
    ious = cols["iou"].tolist() if "iou" in cols else [math.nan] * n
    rows = zip(*(cols[f].tolist() for f in METRIC_FIELDS), ious)
    return [SimpleNamespace(**dict(zip(METRIC_FIELDS, row[:-1])),
                            iou=None if math.isnan(row[-1]) else row[-1]) for row in rows]


THRESHOLDS = {"e_rot": ROT_ACC_THRESHOLD, "e_proj": PROJ_ACC_THRESHOLD}


def random_columns(rng, n: int, iou: str, all_inf_proj: bool) -> dict:
    """Non-negative metric columns with ties, threshold values, values past the
    histogram edges and inf e_proj rows; "iou" absent, all NaN or mixed."""
    cols = {}
    for f in METRIC_FIELDS:
        top = HISTOGRAM_EDGES[f][-1]
        pool = np.concatenate([rng.uniform(0.0, 1.5 * top, 6), [0.0, top],
                               [THRESHOLDS.get(f, 0.5 * top)]])
        col = rng.choice(pool, n) if rng.random() < 0.5 else rng.uniform(0.0, 1.5 * top, n)
        cols[f] = col
    proj = cols["e_proj"]
    proj[rng.random(n) < 0.2] = math.inf
    if all_inf_proj:
        proj[:] = math.inf
    if iou != "absent":
        ious = rng.choice([0.0, 0.25, IOU_ACC_THRESHOLD, 0.75, 1.0], n)
        ious[rng.random(n) < 0.3] = math.nan
        cols["iou"] = np.full(n, math.nan) if iou == "nan" else ious
    return cols


class TestAggregateMatchesRecords:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 200, 201])
    @pytest.mark.parametrize("iou", ["absent", "nan", "mixed"])
    def test_same_json_bytes(self, n, iou):
        rng = np.random.default_rng(1000 * n + len(iou))
        for case in range(20):
            cols = random_columns(rng, n, iou, all_inf_proj=case % 5 == 0)
            new = json.dumps(aggregate(cols), sort_keys=True)
            assert new == json.dumps(old_aggregate(old_records(cols)), sort_keys=True)

    def test_the_corpus_reaches_each_case(self):
        rng = np.random.default_rng(7)
        cols = [random_columns(rng, 11, "mixed", all_inf_proj=False) for _ in range(20)]
        assert any(np.isinf(c["e_proj"]).any() for c in cols)
        assert any(len(np.unique(c["e_rot"])) < 11 for c in cols)  # ties
        assert any(np.isnan(c["iou"]).any() and not np.isnan(c["iou"]).all() for c in cols)
        assert any("acc_det_0.5" in aggregate(c)["accuracies"] for c in cols)
