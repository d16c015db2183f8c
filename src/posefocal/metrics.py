"""Evaluation metrics and their median/accuracy aggregation.

Six per-image errors: rotation geodesic angle, normalized translation,
normalized point-matching, relative focal length, bbox-normalized
reprojection, and detection IoU; ``evaluate_pair`` scores one pair, forming
its two camera-frame clouds once. N rows are scored row-wise in two halves: a
:class:`GroundTruth`, checked and formed once, and its ``score`` of each
predicted batch. Medians use the lower-median convention for even counts."""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .geometry import (BBox, CameraIntrinsics, ModelPoints, ParamState,
                       PoseBatch, bbox_iou, camera_points, dot3, image_boxes,
                       quat_conj, quat_multiply)

ROT_ACC_THRESHOLD = math.pi / 6.0
PROJ_ACC_THRESHOLD = 0.1
IOU_ACC_THRESHOLD = 0.5

METRIC_FIELDS = ("e_rot", "e_trans", "e_pose", "e_focal", "e_proj")
RECORD_FIELDS = (*METRIC_FIELDS, "iou")  # the keys of one scored pair's record
GT_NORM_ERROR = "ground-truth translation must be non-zero, with a norm that does not overflow"

HISTOGRAM_EDGES = {
    "e_rot": np.linspace(0.0, math.pi, 19),
    "e_trans": np.linspace(0.0, 1.0, 21),
    "e_pose": np.linspace(0.0, 0.5, 21),
    "e_focal": np.linspace(0.0, 1.0, 21),
    "e_proj": np.linspace(0.0, 0.5, 21),
}


@dataclass(frozen=True)
class EvalPair:
    """A prediction/ground-truth pair plus the context metrics need;
    ``gt_distance`` is the ground-truth translation's norm."""

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
            norm = math.sqrt(t_hat.dot(t_hat))  # errstate only where the dot may overflow
        if not 0 < norm < math.inf:
            raise DomainError(GT_NORM_ERROR)
        object.__setattr__(self, "gt_distance", norm)


def err_rot(pair: EvalPair) -> float:
    """Geodesic rotation angle between prediction and ground truth.

    Computed as 2*arcsin(|v|) of the relative quaternion, off by up to about
    4e-8 rad within about 1e-3 rad of pi, where :func:`geodesic_distance`'s
    2*atan2(|v|, |w|) is exact. The benchmark's ``score`` checks expect this
    known fault, so e_rot moves to :func:`geodesic_distance` with them.
    """
    v = (pair.pred.rotation.inverse() @ pair.gt.rotation).quat[1:]
    return float(2.0 * np.arcsin(min(1.0, math.sqrt(v.dot(v)))))


def _clouds(pair: EvalPair) -> tuple[np.ndarray, np.ndarray]:
    """The model points in the predicted and in the ground-truth camera frame."""
    pts = pair.points.points
    return (pts @ pair.pred.rotation.as_matrix().T + pair.pred.translation,
            pts @ pair.gt.rotation.as_matrix().T + pair.gt.translation)


def _mean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Euclidean distance between the rows of a and b, rounded as
    ``np.linalg.norm(a - b, axis=1).mean()`` rounds it."""
    d = a - b
    return float(np.sqrt((d * d).sum(axis=1)).sum()) / len(d)


def err_trans(pair: EvalPair) -> float:
    """Translation error normalized by the ground-truth distance."""
    d = pair.pred.translation - pair.gt.translation
    return math.sqrt(d.dot(d)) / pair.gt_distance


def err_pose(pair: EvalPair, clouds=None) -> float:
    """Point-matching error, normalized and scaled by the relative object size;
    ``clouds`` are the pair's two camera-frame clouds, if already formed."""
    cam, cam_hat = clouds or _clouds(pair)
    return pair.bbox_gt.diagonal / pair.img_diag * _mean_distance(cam, cam_hat) \
        / pair.gt_distance


def err_focal(pair: EvalPair) -> float:
    """Relative focal length error."""
    return abs(pair.gt.focal - pair.pred.focal) / pair.gt.focal


def err_proj(pair: EvalPair, clouds=None) -> float:
    """Average reprojection distance over the bbox diagonal.

    A prediction that puts any model point behind the camera is maximally
    penalized with +inf rather than dropped; a ground truth that does is
    rejected. ``clouds`` as in :func:`err_pose`.
    """
    cam, cam_hat = clouds or _clouds(pair)
    if (cam_hat[:, 2] <= 0).any():
        raise DomainError("ground truth puts a model point behind the camera")
    if (cam[:, 2] <= 0).any():
        return math.inf
    uv = pair.pred.focal * cam[:, :2] / cam[:, 2:3]
    uv_hat = pair.gt.focal * cam_hat[:, :2] / cam_hat[:, 2:3]
    return _mean_distance(uv, uv_hat) / pair.bbox_gt.diagonal


def evaluate_pair(pair: EvalPair) -> dict:
    """All six errors for one pair, keyed by :data:`RECORD_FIELDS`; IoU is None
    without a predicted bbox. Both camera-frame clouds are formed once and shared."""
    clouds = _clouds(pair)
    return dict(zip(RECORD_FIELDS, (
        err_rot(pair), err_trans(pair), err_pose(pair, clouds), err_focal(pair),
        err_proj(pair, clouds),
        bbox_iou(pair.bbox_gt, pair.bbox_pred) if pair.bbox_pred else None)))


def _mean_distances(a: np.ndarray, b: np.ndarray, acc: np.ndarray, tmp: np.ndarray):
    """``np.linalg.norm(a - b, axis=2).mean(axis=1)`` of (N, P, k) arrays, bit for
    bit: the squares are summed component by component in (N, P) buffers."""
    np.square(np.subtract(a[..., 0], b[..., 0], out=acc), out=acc)
    for i in range(1, a.shape[2]):
        acc += np.square(np.subtract(a[..., i], b[..., i], out=tmp), out=tmp)
    return np.sqrt(acc, out=acc).mean(axis=1)


class GroundTruth:
    """The ground-truth half of row-wise :func:`evaluate_pair`: N ground-truth poses,
    boxes (x1, y1, x2, y2) and image diagonal, checked and formed once for :meth:`score`,
    which reuses one set of buffers."""

    def __init__(self, gt: PoseBatch, points: ModelPoints, bbox_gt: np.ndarray,
                 img_diag: float):
        if not (math.isfinite(img_diag) and img_diag > 0):
            raise DomainError(f"image diagonal must be finite and positive, got {img_diag}")
        with np.errstate(over="ignore"):
            self.t_norm = np.sqrt(dot3(gt.translation, gt.translation))
        if not np.all((self.t_norm > 0) & (self.t_norm < math.inf)):
            raise DomainError(GT_NORM_ERROR)
        self.cam_hat = cam_hat = camera_points(gt, points.points)
        if np.any(cam_hat[..., 2] <= 0):
            raise DomainError("ground truth puts a model point behind the camera")
        self.uv_hat = gt.focal[:, None, None] * cam_hat[..., :2] / cam_hat[..., 2:3]
        self.gt, self.points, self.bbox, self.img_diag = gt, points.points, bbox_gt, img_diag
        self.diag = np.hypot(bbox_gt[:, 2] - bbox_gt[:, 0], bbox_gt[:, 3] - bbox_gt[:, 1])
        self.area = (bbox_gt[:, 2] - bbox_gt[:, 0]) * (bbox_gt[:, 3] - bbox_gt[:, 1])
        n, p = cam_hat.shape[:2]
        self._cam, self._acc, self._tmp = np.empty((n, 3, p)), np.empty((n, p)), np.empty((n, p))

    def score(self, pred: PoseBatch, intrinsics: CameraIntrinsics, iou: bool = True) -> dict:
        """The prediction half: an (N,) array per :data:`RECORD_FIELDS` key ("iou"
        if asked); e_proj inf and iou NaN where a predicted point has non-positive depth."""
        gt, box_gt = self.gt, self.bbox
        cam = camera_points(pred, self.points, self._cam)
        behind = np.any(cam[..., 2] <= 0, axis=1)
        avg = _mean_distances(cam, self.cam_hat, self._acc, self._tmp)
        if iou:  # before the projection below overwrites the cloud's x and y
            box = image_boxes(cam, intrinsics)
        uv = cam[..., :2]
        with np.errstate(divide="ignore", invalid="ignore"):  # rows behind the camera
            uv *= pred.focal[:, None, None]  # f x / z and f y / z, in place
            uv /= cam[..., 2:3]
            e_proj = _mean_distances(uv, self.uv_hat, self._acc, self._tmp) / self.diag
        e_proj[behind] = math.inf
        rel = quat_multiply(quat_conj(pred.quat), gt.quat)[:, 1:]
        d = pred.translation - gt.translation
        out = {
            "e_rot": 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(dot3(rel, rel)))),  # as err_rot
            "e_trans": np.sqrt(dot3(d, d)) / self.t_norm,
            "e_pose": self.diag / self.img_diag * avg / self.t_norm,
            "e_focal": np.abs(gt.focal - pred.focal) / gt.focal,
            "e_proj": e_proj,
        }
        if iou:
            iw = np.minimum(box_gt[:, 2], box[:, 2]) - np.maximum(box_gt[:, 0], box[:, 0])
            ih = np.minimum(box_gt[:, 3], box[:, 3]) - np.maximum(box_gt[:, 1], box[:, 1])
            inter = iw * ih
            area = (box[:, 2] - box[:, 0]) * (box[:, 3] - box[:, 1])
            with np.errstate(invalid="ignore"):
                out["iou"] = np.where((iw > 0) & (ih > 0),
                                      inter / (self.area + area - inter), 0.0)
            out["iou"][behind] = np.nan
        return out


def lower_median(values) -> float:
    """Element at index ceil(n/2) - 1 of the sorted values, which hold no NaN or -0.0."""
    v = np.asarray(values, dtype=float)
    if not v.size:
        raise DomainError("median of empty sequence")
    k = (v.size + 1) // 2 - 1
    return float(np.partition(v, k)[k])


def aggregate(columns: dict) -> dict:
    """Medians, accuracies, and fixed-bin histograms over metric columns: an (N,)
    float array per :data:`METRIC_FIELDS` key, and optionally "iou", NaN where a
    row has no IoU.

    The detection accuracy uses strict inequality (IoU larger than the
    threshold) and is only reported over the rows that have an IoU.
    """
    n = len(columns["e_rot"])
    if not n:
        raise DomainError("no metric records to aggregate")
    summary = {
        "count": n,
        "medians": {f: lower_median(columns[f]) for f in METRIC_FIELDS},
        "accuracies": {
            "acc_rot_pi6": int(np.count_nonzero(columns["e_rot"] <= ROT_ACC_THRESHOLD)) / n,
            "acc_proj_0.1": int(np.count_nonzero(columns["e_proj"] <= PROJ_ACC_THRESHOLD)) / n,
        },
    }
    ious = columns.get("iou")
    if ious is not None and (ious := ious[~np.isnan(ious)]).size:
        summary["accuracies"]["acc_det_0.5"] = \
            int(np.count_nonzero(ious > IOU_ACC_THRESHOLD)) / ious.size

    histograms = {}
    for f in METRIC_FIELDS:
        edges, column = HISTOGRAM_EDGES[f], columns[f]
        counts, _ = np.histogram(column[np.isfinite(column)], bins=edges)
        histograms[f] = {"edges": edges.tolist(), "counts": counts.tolist(),
                         "overflow": n - int(counts.sum())}
    summary["histograms"] = histograms
    return summary
