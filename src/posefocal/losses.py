"""Training losses with analytic gradients and a finite-difference checker.

The total loss combines a disentangled point-matching pose loss, a Huber
penalty on the log focal length, and a disentangled reprojection loss.
Gradients are taken with respect to the ten scalar update components
(vx, vy, vz, v_r1, v_r2, vf); the L1 subgradient at 0 is defined as 0.

Projections here use the simplified camera with the principal point at the
origin, matching the frame the update rule is derived in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DepthError, DomainError
from .geometry import ModelPoints, ParamState, Rotation, cross3
from .update_rules import (DeltaTheta, apply_focal_update, apply_translation_update,
                           apply_update, oracle_delta)

GRAD_LABELS = ("v_x", "v_y", "v_z",
               "v_r1_0", "v_r1_1", "v_r1_2",
               "v_r2_0", "v_r2_1", "v_r2_2",
               "v_f")


@dataclass(frozen=True)
class LossWeights:
    """Weights: alpha scales the focal part, beta the Huber term inside it."""

    alpha: float = 1e-2
    beta: float = 1.0
    huber_delta: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.huber_delta <= 0:
            raise DomainError("invalid loss weights")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    pose: float
    huber: float
    reprojection: float
    grad_total: np.ndarray
    grad_pose: np.ndarray
    grad_huber: np.ndarray
    grad_reprojection: np.ndarray


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0.0]])


def rotation_6d_jacobian(v1, v2) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt rotation and its Jacobian.

    Returns (R, dR) with R (3, 3) and dR (3, 3, 6), where dR[:, :, j] is the
    derivative of R with respect to the j-th input scalar (v1 then v2).
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    eye = np.eye(3)

    n1 = np.linalg.norm(v1)
    if n1 < 1e-12:
        raise DomainError("first 6D vector is (numerically) zero")
    e1 = v1 / n1
    de1_dv1 = (eye - np.outer(e1, e1)) / n1

    c = e1 @ v2
    w = v2 - c * e1
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        raise DomainError("6D vectors are (numerically) parallel")
    dw_de1 = -(np.outer(e1, v2) + c * eye)
    dw_dv1 = dw_de1 @ de1_dv1
    dw_dv2 = eye - np.outer(e1, e1)

    e2 = w / nw
    de2_dw = (eye - np.outer(e2, e2)) / nw
    de2_dv1 = de2_dw @ dw_dv1
    de2_dv2 = de2_dw @ dw_dv2

    e3 = cross3(e1, e2)
    s1, s2 = _skew(e1), _skew(e2)
    de3_dv1 = -s2 @ de1_dv1 + s1 @ de2_dv1
    de3_dv2 = s1 @ de2_dv2

    rot = np.column_stack([e1, e2, e3])
    drot = np.zeros((3, 3, 6))
    drot[:, 0, :3] = de1_dv1
    drot[:, 1, :3] = de2_dv1
    drot[:, 1, 3:] = de2_dv2
    drot[:, 2, :3] = de3_dv1
    drot[:, 2, 3:] = de3_dv2
    return rot, drot


def _huber(r: float, delta: float) -> tuple[float, float]:
    """Huber value and derivative at residual r."""
    if abs(r) <= delta:
        return 0.5 * r * r, r
    return delta * (abs(r) - 0.5 * delta), delta * np.sign(r)


def huber_log_focal(f: float, f_hat: float, huber_delta: float = 1.0) -> float:
    """Huber penalty of log(f) - log(f_hat)."""
    if f <= 0 or f_hat <= 0:
        raise DomainError("focal lengths must be positive")
    return _huber(float(np.log(f) - np.log(f_hat)), huber_delta)[0]


def _camera_points(rot: Rotation, t: np.ndarray, pts: np.ndarray) -> np.ndarray:
    cam = pts @ rot.as_matrix().T + np.asarray(t, dtype=float)
    bad = np.nonzero(cam[:, 2] <= 0)[0]
    if bad.size:
        raise DepthError(f"point {bad[0]} has non-positive depth {cam[bad[0], 2]:.6g}")
    return cam


def reprojection_loss(pred: ParamState, gt: ParamState, points: ModelPoints) -> float:
    """Summed L1 pixel distance between projections under two parameter sets."""
    cam = _camera_points(pred.rotation, pred.translation, points.points)
    cam_h = _camera_points(gt.rotation, gt.translation, points.points)
    uv = pred.focal * cam[:, :2] / cam[:, 2:3]
    uv_h = gt.focal * cam_h[:, :2] / cam_h[:, 2:3]
    return float(np.abs(uv - uv_h).sum())


def disentangled_reprojection_loss(pred: ParamState, gt: ParamState,
                                   points: ModelPoints) -> float:
    """Half pose-at-gt-focal plus half focal-at-gt-pose reprojection error."""
    return 0.5 * reprojection_loss(replace(pred, focal=gt.focal), gt, points) \
        + 0.5 * reprojection_loss(replace(gt, focal=pred.focal), gt, points)


def point_matching_distance(a: ParamState, b: ParamState, points: ModelPoints) -> float:
    """Average L1 distance of model points transformed under two poses; the
    focal lengths are ignored."""
    pts = points.points
    diff = (pts @ a.rotation.as_matrix().T + a.translation) \
        - (pts @ b.rotation.as_matrix().T + b.translation)
    return float(np.abs(diff).mean(axis=0).sum())


def _pose_terms(state: ParamState, delta: DeltaTheta, gt: ParamState,
                points: ModelPoints, drot: np.ndarray):
    """The three disentangled point-matching terms and their gradients.

    Each term applies the update with one predicted component and the
    oracle values for all others, then measures the point-matching distance
    to the ground-truth pose.
    """
    hat = oracle_delta(state, gt)
    pts = points.points
    n = len(points)
    gt_pts = pts @ gt.rotation.as_matrix().T + gt.translation
    m = pts @ state.rotation.as_matrix().T

    value = 0.0
    grad = np.zeros(10)

    # x-y term: only (vx, vy) predicted.
    s1 = apply_update(state, replace(hat, vx=delta.vx, vy=delta.vy))
    diff1 = (pts @ s1.rotation.as_matrix().T + s1.translation) - gt_pts
    value += float(np.abs(diff1).mean(axis=0).sum())
    sg1 = np.sign(diff1)
    grad[0] = sg1[:, 0].mean() * s1.translation[2] / s1.focal
    grad[1] = sg1[:, 1].mean() * s1.translation[2] / s1.focal

    # depth term: only vz predicted.
    s2 = apply_update(state, replace(hat, vz=delta.vz))
    diff2 = (pts @ s2.rotation.as_matrix().T + s2.translation) - gt_pts
    value += float(np.abs(diff2).mean(axis=0).sum())
    grad[2] = np.sign(diff2).mean(axis=0) @ (s2.translation / delta.vz)

    # rotation term: only the 6D rotation predicted.
    s3 = apply_update(state, replace(hat, v_r1=delta.v_r1, v_r2=delta.v_r2))
    diff3 = (pts @ s3.rotation.as_matrix().T + s3.translation) - gt_pts
    value += float(np.abs(diff3).mean(axis=0).sum())
    sg3 = np.sign(diff3)
    for j in range(6):
        grad[3 + j] = np.einsum("ni,ni->", sg3, m @ drot[:, :, j].T) / n

    return value, grad, (diff1, diff2, diff3)


def disentangled_pose_loss(state: ParamState, delta: DeltaTheta, gt: ParamState,
                           points: ModelPoints) -> float:
    """Sum of the three disentangled point-matching terms."""
    _, drot = rotation_6d_jacobian(delta.v_r1, delta.v_r2)
    value, _, _ = _pose_terms(state, delta, gt, points, drot)
    return value


def _evaluate(state: ParamState, delta: DeltaTheta, gt: ParamState,
              points: ModelPoints, weights: LossWeights):
    """The loss breakdown, and the residuals at whose zeros the loss kinks.

    The residuals are (diff_a, df, pose_diffs, r): the pixel residuals of
    the reprojection pose half, the updated minus the ground-truth focal
    (each residual of the focal half is df times a fixed factor), the
    residuals of the three point-matching terms, and the Huber residual.
    """
    pts = points.points
    f_hat = gt.focal

    rot_u, drot = rotation_6d_jacobian(delta.v_r1, delta.v_r2)

    # Huber on the log focal length.
    r = delta.vf + float(np.log(state.focal) - np.log(f_hat))
    huber, dh = _huber(r, weights.huber_delta)
    grad_huber = np.zeros(10)
    grad_huber[9] = dh

    # Reprojection, pose part: predicted rotation and a translation updated
    # with the ground-truth focal. That update is linear in vz, so its
    # vz-derivative is the update at vz = 1.
    t_pose = apply_translation_update(state, delta, f_hat)
    dt_dvz = apply_translation_update(state, replace(delta, vz=1.0), f_hat)
    m = pts @ state.rotation.as_matrix().T
    cam = m @ rot_u.T + t_pose
    if np.any(cam[:, 2] <= 0):
        raise DepthError("updated pose puts a model point behind the camera")
    cam_hat = _camera_points(gt.rotation, gt.translation, pts)
    uv = f_hat * cam[:, :2] / cam[:, 2:3]
    uv_hat = f_hat * cam_hat[:, :2] / cam_hat[:, 2:3]
    diff_a = uv - uv_hat
    term_a = float(np.abs(diff_a).sum())
    sgn = np.sign(diff_a)
    gq = np.empty_like(cam)
    gq[:, 0] = sgn[:, 0] * f_hat / cam[:, 2]
    gq[:, 1] = sgn[:, 1] * f_hat / cam[:, 2]
    gq[:, 2] = -(sgn[:, 0] * uv[:, 0] + sgn[:, 1] * uv[:, 1]) / cam[:, 2]
    grad_a = np.zeros(10)
    gq_sum = gq.sum(axis=0)
    grad_a[0] = gq_sum[0] * t_pose[2] / f_hat
    grad_a[1] = gq_sum[1] * t_pose[2] / f_hat
    grad_a[2] = gq_sum @ dt_dvz
    for j in range(6):
        grad_a[3 + j] = np.einsum("ni,ni->", gq, m @ drot[:, :, j].T)

    # Reprojection, focal part: predicted focal at the ground-truth pose.
    f_new = apply_focal_update(state.focal, delta.vf)
    uv_f = f_new * cam_hat[:, :2] / cam_hat[:, 2:3]
    diff_b = uv_f - uv_hat
    term_b = float(np.abs(diff_b).sum())
    grad_b = np.zeros(10)
    grad_b[9] = float((np.sign(diff_b) * uv_f).sum())

    reproj = 0.5 * (term_a + term_b)
    grad_reproj = 0.5 * (grad_a + grad_b)

    # Disentangled pose loss.
    pose, grad_pose, pose_diffs = _pose_terms(state, delta, gt, points, drot)

    a, b = weights.alpha, weights.beta
    total = pose + a * (b * huber + reproj)
    grad_total = grad_pose + a * (b * grad_huber + grad_reproj)
    breakdown = LossBreakdown(total=total, pose=pose, huber=huber, reprojection=reproj,
                              grad_total=grad_total, grad_pose=grad_pose,
                              grad_huber=grad_huber, grad_reprojection=grad_reproj)
    return breakdown, (diff_a, f_new - f_hat, pose_diffs, r)


def total_loss(state: ParamState, delta: DeltaTheta, gt: ParamState,
               points: ModelPoints, weights: LossWeights = LossWeights()) -> LossBreakdown:
    """Full training loss with per-term analytic gradients.

    The reprojection part is disentangled: its pose term is evaluated with
    the ground-truth focal length fed into the translation update, so it
    carries no dependence on vf; its focal term uses the ground-truth pose.
    """
    return _evaluate(state, delta, gt, points, weights)[0]


def _perturbed(delta: DeltaTheta, index: int, h: float) -> DeltaTheta:
    vals = [delta.vx, delta.vy, delta.vz,
            *delta.v_r1.tolist(), *delta.v_r2.tolist(), delta.vf]
    vals[index] += h
    return DeltaTheta(vals[0], vals[1], vals[2],
                      np.array(vals[3:6]), np.array(vals[6:9]), vals[9])


def smoothness_margins(state: ParamState, delta: DeltaTheta, gt: ParamState,
                       points: ModelPoints, weights: LossWeights = LossWeights()) -> dict:
    """Distances of the evaluation point to the nearest loss kinks.

    Returns the minimum absolute pixel residual of the reprojection terms,
    the minimum absolute metric residual of the pose terms, and the distance
    of the Huber residual to its transition point. Residuals with no
    sensitivity to the update variables are skipped: the x-y pose term's
    depth coordinate is fixed by the oracle, and the focal-scaled
    reprojection residuals all cross their kinks at the single point where
    the updated focal equals the ground truth, so that family contributes
    one margin.
    """
    return _margins(_evaluate(state, delta, gt, points, weights)[1], weights)


def _margins(residuals, weights: LossWeights) -> dict:
    diff_a, df, (diff1, diff2, diff3), r = residuals
    return {"pixel": float(min(np.abs(diff_a).min(), abs(df))),
            "metric": float(min(np.abs(diff1[:, :2]).min(), np.abs(diff2).min(),
                                np.abs(diff3).min())),
            "huber": float(abs(abs(r) - weights.huber_delta))}


def gradient_check(state: ParamState, delta: DeltaTheta, gt: ParamState,
                   points: ModelPoints, weights: LossWeights = LossWeights(),
                   step: float = 1e-6) -> dict:
    """Central-difference check of the analytic total-loss gradient.

    A point too close to an L1 or Huber kink is flagged ``smooth: False``
    (diagnostic, not a failure); relative errors are still reported.
    """
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"finite-difference step must be finite and positive, got {step}")
    # A kink only invalidates central differences when a residual crosses
    # zero within +-step times its sensitivity; thresholds scale with the
    # step and leave an order of magnitude of safety.
    breakdown, residuals = _evaluate(state, delta, gt, points, weights)
    margins = _margins(residuals, weights)
    smooth = bool(margins["pixel"] > 1e3 * step and margins["metric"] > 20 * step
                  and margins["huber"] > 1e3 * step and delta.vz > 2 * step)

    analytic = breakdown.grad_total
    numeric = np.zeros(10)
    for i in range(10):
        lp = total_loss(state, _perturbed(delta, i, step), gt, points, weights).total
        lm = total_loss(state, _perturbed(delta, i, -step), gt, points, weights).total
        numeric[i] = (lp - lm) / (2 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    return {
        "smooth": smooth,
        "margins": margins,
        "max_rel_err": float(rel.max()),
        "per_component": dict(zip(GRAD_LABELS, rel.tolist())),
        "analytic": dict(zip(GRAD_LABELS, analytic.tolist())),
        "numeric": dict(zip(GRAD_LABELS, numeric.tolist())),
    }
