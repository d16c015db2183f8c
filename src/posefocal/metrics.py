"""Evaluation metrics and their median/accuracy aggregation.

Six per-image errors, each an (N,) column over N pairs: rotation geodesic angle,
normalized translation, normalized point-matching, relative focal length,
bbox-normalized reprojection, and detection IoU. Pairs are scored row-wise in two
halves: a :class:`GroundTruth`, checked and formed once, and its ``score`` of each
predicted batch; ``evaluate_pair`` scores a pair file's columns through it, block
by block. Medians use the lower-median convention for even counts."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import (CameraIntrinsics, PoseBatch, camera_points, image_boxes,
                       relative_quats, row_dot)

ROT_ACC_THRESHOLD = math.pi / 6.0
PROJ_ACC_THRESHOLD = 0.1
IOU_ACC_THRESHOLD = 0.5

METRIC_FIELDS = ("e_rot", "e_trans", "e_pose", "e_focal", "e_proj")
RECORD_FIELDS = (*METRIC_FIELDS, "iou")  # the keys of one scored pair's record
GT_NORM_ERROR = "ground-truth translation must be non-zero, with a norm that does not overflow"
SCORE_BLOCK = 128  # rows evaluate_pair scores at a time, which bounds its buffers

HISTOGRAM_EDGES = {
    "e_rot": np.linspace(0.0, math.pi, 19),
    "e_trans": np.linspace(0.0, 1.0, 21),
    "e_pose": np.linspace(0.0, 0.5, 21),
    "e_focal": np.linspace(0.0, 1.0, 21),
    "e_proj": np.linspace(0.0, 0.5, 21),
}


def _mean_distances(a: np.ndarray, b: np.ndarray, acc: np.ndarray, tmp: np.ndarray):
    """``np.linalg.norm(a - b, axis=2).mean(axis=1)`` of (N, P, k) arrays, bit for
    bit: the squares are summed component by component in (N, P) buffers."""
    np.square(np.subtract(a[..., 0], b[..., 0], out=acc), out=acc)
    for i in range(1, a.shape[2]):
        acc += np.square(np.subtract(a[..., i], b[..., i], out=tmp), out=tmp)
    return np.add.reduce(np.sqrt(acc, out=acc), axis=1) / acc.shape[1]  # mean(axis=1)


class GroundTruth:
    """The ground-truth half of the metrics: N ground-truth poses, their model points,
    one cloud (P, 3) for all rows or one (N, P, 3) per row, boxes (x1, y1, x2, y2) and
    image diagonals, one or (N,), checked and formed once for :meth:`score`, which
    reuses one set of buffers. Norms are ``sqrt(a.a)`` of each row, as one pose's are."""

    def __init__(self, gt: PoseBatch, points: np.ndarray, bbox_gt: np.ndarray, img_diag):
        img_diag = np.asarray(img_diag, dtype=float)
        if not np.all(ok := np.isfinite(img_diag) & (img_diag > 0)):
            raise DomainError("image diagonal must be finite and positive, "
                              f"got {img_diag[~ok][0]}")
        with np.errstate(over="ignore"):
            self.t_norm = np.sqrt(row_dot(gt.translation, gt.translation))
        if not np.all((self.t_norm > 0) & (self.t_norm < math.inf)):
            raise DomainError(GT_NORM_ERROR)
        self.cam_hat = cam_hat = camera_points(gt, points)
        if np.any(cam_hat[..., 2] <= 0):
            raise DomainError("ground truth puts a model point behind the camera")
        self.uv_hat = gt.focal[:, None, None] * cam_hat[..., :2] / cam_hat[..., 2:3]
        self.gt, self.points, self.bbox, self.img_diag = gt, points, bbox_gt, img_diag
        self.diag = np.hypot(bbox_gt[:, 2] - bbox_gt[:, 0], bbox_gt[:, 3] - bbox_gt[:, 1])
        self.area = (bbox_gt[:, 2] - bbox_gt[:, 0]) * (bbox_gt[:, 3] - bbox_gt[:, 1])
        n, p = cam_hat.shape[:2]
        self._cam, self._acc, self._tmp = np.empty((3, n, p)), np.empty((n, p)), np.empty((n, p))

    def score(self, pred: PoseBatch, intrinsics: CameraIntrinsics | None = None,
              bbox_pred: np.ndarray | None = None) -> dict:
        """The prediction half: an (N,) array per :data:`RECORD_FIELDS` key, "iou" only
        if there are predicted boxes: those of the predicted points under ``intrinsics``,
        if given, or else ``bbox_pred`` (N, 4). e_proj is inf where a predicted point
        has non-positive depth, and the IoU NaN where the predicted box is NaN."""
        gt, box_gt = self.gt, self.bbox
        cam = camera_points(pred, self.points, self._cam)
        behind = (cam[..., 2] <= 0).any(axis=1)
        avg = _mean_distances(cam, self.cam_hat, self._acc, self._tmp)
        # boxes before the projection below overwrites the cloud's x and y
        box = bbox_pred if intrinsics is None else image_boxes(cam, intrinsics)
        uv = cam[..., :2]
        with np.errstate(divide="ignore", invalid="ignore"):  # rows behind the camera
            uv *= pred.focal[:, None, None]  # f x / z and f y / z, in place
            uv /= cam[..., 2:3]
            e_proj = _mean_distances(uv, self.uv_hat, self._acc, self._tmp) / self.diag
        e_proj[behind] = math.inf
        v = relative_quats(pred.quat, gt.quat)[:, 1:]
        d = pred.translation - gt.translation
        out = {
            # 2 arcsin |v| is off by up to about 4e-8 rad within about 1e-3 rad of pi,
            # where geodesic_distance's 2 atan2(|v|, |w|) is exact; the benchmark's
            # score checks expect this known fault, so e_rot moves with them
            "e_rot": 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(row_dot(v, v)))),
            "e_trans": np.sqrt(row_dot(d, d)) / self.t_norm,
            "e_pose": self.diag / self.img_diag * avg / self.t_norm,
            "e_focal": np.abs(gt.focal - pred.focal) / gt.focal,
            "e_proj": e_proj,
        }
        if box is not None:
            iw = np.minimum(box_gt[:, 2], box[:, 2]) - np.maximum(box_gt[:, 0], box[:, 0])
            ih = np.minimum(box_gt[:, 3], box[:, 3]) - np.maximum(box_gt[:, 1], box[:, 1])
            inter = iw * ih
            area = (box[:, 2] - box[:, 0]) * (box[:, 3] - box[:, 1])
            with np.errstate(invalid="ignore"):
                out["iou"] = np.where((iw > 0) & (ih > 0),
                                      inter / (self.area + area - inter), 0.0)
            out["iou"][np.isnan(box[:, 0])] = np.nan
        return out


def evaluate_pair(pairs: dict) -> dict:
    """The metrics of N pairs, one (N,) column per :data:`RECORD_FIELDS` key in row
    order, "iou" NaN where a pair has no predicted box. ``pairs`` holds the pairs as
    columns: "pred" and "gt" PoseBatches, "points" N clouds (P_i, 3), "bbox_gt" and
    "bbox_pred" (N, 4), a row NaN where no box is predicted, and "img_diag" (N,). Rows
    with the same point count are scored together, SCORE_BLOCK at a time, against their one
    cloud where every row of the block holds the same array (a named cloud)."""
    sizes = np.array([len(p) for p in pairs["points"]])
    out = {f: np.empty(len(sizes)) for f in RECORD_FIELDS}
    for p in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == p)
        for rows in np.split(group, range(SCORE_BLOCK, len(group), SCORE_BLOCK)):
            clouds = [pairs["points"][i] for i in rows]
            cloud = clouds[0] if len({*map(id, clouds)}) == 1 else np.stack(clouds)
            truth = GroundTruth(pairs["gt"].take(rows), cloud, pairs["bbox_gt"][rows],
                                pairs["img_diag"][rows])
            scores = truth.score(pairs["pred"].take(rows), bbox_pred=pairs["bbox_pred"][rows])
            for f in RECORD_FIELDS:
                out[f][rows] = scores[f]
    return out


def to_records(columns: dict, rows=slice(None)) -> list[dict]:
    """Metric columns' rows as records keyed by RECORD_FIELDS, a NaN IoU as None, for the
    simulator's trajectories and run_refinement; eval.json's come from cli.RecordColumns."""
    values = [columns[f][rows].tolist() for f in METRIC_FIELDS]
    ious = [None if math.isnan(v) else v for v in columns["iou"][rows].tolist()]
    return [dict(zip(RECORD_FIELDS, row)) for row in zip(*values, ious)]


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
        edges, ordered = HISTOGRAM_EDGES[f], np.sort(columns[f])  # NaN sorts after inf
        # np.histogram's counts of the finite values: [e_i, e_i+1) bins, the last one closed
        counts = np.diff(np.append(ordered.searchsorted(edges[:-1]),
                                   ordered.searchsorted(edges[-1], "right")))
        histograms[f] = {"edges": edges.tolist(), "counts": counts.tolist(),
                         "overflow": n - int(counts.sum())}
    summary["histograms"] = histograms
    return summary
