"""Training losses with analytic gradients and a finite-difference checker.

The total loss combines a disentangled point-matching pose loss, a Huber
penalty on the log focal length, and a disentangled reprojection loss.
Gradients are taken with respect to the ten scalar update components
(vx, vy, vz, v_r1, v_r2, vf); the L1 subgradient at 0 is defined as 0.

Each pose term applies one predicted component and takes the ground truth
for all others (the x-y term's depth too), so the x-y and depth terms are
translation differences and the rotation term compares rotated model points.

Evaluation is row-wise: one pass scores the K rows of a ``DeltaBatch``;
``total_loss``, ``smoothness_margins`` and ``disentangled_pose_loss`` are
one-row views, and ``gradient_check`` is one 21-row pass.

Projections here use the simplified camera with the principal point at the
origin, matching the frame the update rule is derived in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DepthError, DomainError
from .geometry import (CameraIntrinsics, ModelPoints, ParamState, gram_schmidt_6d,
                       project_points, row_dot)
from .update_rules import DeltaBatch, DeltaTheta, translation_update_batch

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
        for name in ("alpha", "beta"):
            if not 0 <= getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be finite and non-negative")
        if not 0 < self.huber_delta < np.inf:
            raise DomainError("huber_delta must be finite and positive")


@dataclass(frozen=True)
class LossBreakdown:
    """Loss terms and their (10,) gradients; for K rows, every field has a
    leading axis of K."""

    total: float
    pose: float
    huber: float
    reprojection: float
    grad_total: np.ndarray
    grad_pose: np.ndarray
    grad_huber: np.ndarray
    grad_reprojection: np.ndarray

    def row(self, i: int) -> "LossBreakdown":
        return LossBreakdown(**{k: v[i] if v.ndim == 2 else float(v[i])
                                for k, v in vars(self).items()})


def _rows(delta: DeltaTheta, steps: np.ndarray = np.zeros((1, 10))) -> DeltaBatch:
    """``delta`` moved by each row of steps (K, 10), in GRAD_LABELS order."""
    c = np.concatenate([[delta.vx, delta.vy, delta.vz], delta.v_r1, delta.v_r2,
                        [delta.vf]]) + steps
    return DeltaBatch(c[:, 0], c[:, 1], c[:, 2], c[:, 3:6], c[:, 6:9], c[:, 9])


def _skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v.T
    o = np.zeros_like(x)
    return np.stack([o, -z, y, z, o, -x, -y, x, o], axis=1).reshape(-1, 3, 3)


def rotation_6d_jacobian(v1, v2) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise Gram-Schmidt rotations and their Jacobians.

    Takes vector pairs v1, v2 (K, 3) and returns (R, dR) with R (K, 3, 3) and
    dR (K, 3, 3, 6), where dR[k, :, :, j] is the derivative of R[k] with
    respect to the j-th input scalar of row k (v1 then v2).
    """
    v1, v2, eye = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float), np.eye(3)
    rot, n1, c, nw = gram_schmidt_6d(v1, v2)
    e1, e2 = rot[:, :, 0], rot[:, :, 1]

    p1 = eye - e1[:, :, None] * e1[:, None, :]
    de1_dv1 = p1 / n1[:, :, None]
    dw_de1 = -(e1[:, :, None] * v2[:, None, :] + c[:, :, None] * eye)
    dw_dv1 = dw_de1 @ de1_dv1

    de2_dw = (eye - e2[:, :, None] * e2[:, None, :]) / nw[:, :, None]
    de2_dv1 = de2_dw @ dw_dv1
    de2_dv2 = de2_dw @ p1

    s1, s2 = _skew(e1), _skew(e2)
    de3_dv1 = -s2 @ de1_dv1 + s1 @ de2_dv1
    de3_dv2 = s1 @ de2_dv2

    drot = np.stack([np.concatenate([de1_dv1, np.zeros_like(de1_dv1)], axis=2),
                     np.concatenate([de2_dv1, de2_dv2], axis=2),
                     np.concatenate([de3_dv1, de3_dv2], axis=2)], axis=2)
    return rot, drot


def _huber(r, delta: float):
    """Huber values and derivatives at residuals r."""
    quadratic = np.abs(r) <= delta
    return (np.where(quadratic, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta)),
            np.where(quadratic, r, delta * np.sign(r)))


def huber_log_focal(f: float, f_hat: float, huber_delta: float = 1.0) -> float:
    """Huber penalty of log(f) - log(f_hat)."""
    if not (0 < f < np.inf and 0 < f_hat < np.inf):  # NaN fails both comparisons
        raise DomainError("focal lengths must be finite and positive")
    return float(_huber(float(np.log(f) - np.log(f_hat)), huber_delta)[0])


def reprojection_loss(pred: ParamState, gt: ParamState, points: ModelPoints) -> float:
    """Summed L1 pixel distance between projections under two parameter sets."""
    uv, uv_h = (project_points(CameraIntrinsics(s.focal), s.rotation, s.translation,
                               points.points) for s in (pred, gt))
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


def _finite(name: str, value: float) -> float:
    """An oracle update component, checked as :class:`DeltaBatch` checks its own."""
    if not np.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return value


def _rotated_points(state: ParamState, delta: DeltaBatch, points: ModelPoints):
    """Per row, the model points under the updated rotation, pts @ (R_u R)^T
    (K, P, 3), and their derivatives with respect to (v_r1, v_r2), (K, 6, P, 3)."""
    rot_u, drot = rotation_6d_jacobian(delta.v_r1, delta.v_r2)
    m = points.points @ state.rotation.as_matrix().T
    return m @ rot_u.transpose(0, 2, 1), m @ drot.transpose(0, 3, 2, 1)


def _pose_terms(state: ParamState, delta: DeltaBatch, gt: ParamState,
                points: ModelPoints, rotated):
    """Per row, the three disentangled point-matching terms, their gradients
    and their residuals, given ``_rotated_points``; in the x-y and depth
    terms the ground-truth rotation cancels."""
    (x, y, z), (xh, yh, zh) = state.translation.tolist(), gt.translation.tolist()
    f, f_hat = state.focal, gt.focal
    k = len(delta.vx)
    grad = np.zeros((k, 10))

    # the oracle's depth ratio and centre shift, checked before any term is formed
    vz = _finite("vz", zh / z)
    if vz <= 0:
        raise DomainError(f"depth ratio must be positive, got {vz}")
    vx, vy = _finite("vx", f_hat * xh / zh - f * x / z), _finite("vy", f_hat * yh / zh - f * y / z)
    # x-y term (t1): only (vx, vy) predicted, the depth ratio the oracle's; depth term
    # (t2): only vz predicted, the centre shift the oracle's. Both in one update.
    t1, t2 = translation_update_batch(
        state.translation[None], f, np.concatenate((delta.vx, np.full(k, vx))),
        np.concatenate((delta.vy, np.full(k, vy))), np.concatenate((np.full(k, vz), delta.vz)),
        f_hat).reshape(2, k, 3)
    diff1 = t1 - gt.translation
    grad[:, :2] = np.sign(diff1[:, :2]) * t1[:, 2:] / f_hat
    diff2 = t2 - gt.translation
    grad[:, 2] = row_dot(np.sign(diff2), t2 / delta.vz[:, None])

    # rotation term: only the 6D rotation predicted.
    diff3 = rotated[0] - points.points @ gt.rotation.as_matrix().T
    grad[:, 3:9] = np.einsum("kni,kjni->kj", np.sign(diff3), rotated[1]) / len(points)

    pose = np.abs(diff1).sum(axis=1) + np.abs(diff2).sum(axis=1) \
        + np.abs(diff3).mean(axis=1).sum(axis=1)
    return pose, grad, (diff1, diff2, diff3)


def disentangled_pose_loss(state: ParamState, delta: DeltaTheta, gt: ParamState,
                           points: ModelPoints) -> float:
    """Sum of the three disentangled point-matching terms."""
    rows = _rows(delta)
    return float(_pose_terms(state, rows, gt, points, _rotated_points(state, rows, points))[0][0])


def _evaluate(state: ParamState, delta: DeltaBatch, gt: ParamState,
              points: ModelPoints, weights: LossWeights):
    """The loss breakdown of each of the K rows of ``delta``, and the
    residuals at whose zeros the loss kinks, (diff_a, df, pose_diffs, r),
    each with a leading axis of K: the pixel residuals of the reprojection
    pose half, the updated minus the ground-truth focal (each residual of the
    focal half is df times a fixed factor), the (K, 3), (K, 3) and (K, P, 3)
    residuals of the three point-matching terms, and the Huber residual."""
    pts = points.points
    f_hat = gt.focal
    k = len(delta.vx)
    rotated = _rotated_points(state, delta, points)

    # Huber on the log focal length.
    r = delta.vf + float(np.log(state.focal) - np.log(f_hat))
    huber, dh = _huber(r, weights.huber_delta)
    grad_huber = np.zeros((k, 10))
    grad_huber[:, 9] = dh

    # Reprojection, pose part: predicted rotation and a translation updated
    # with the ground-truth focal. That update is linear in vz, so its
    # vz-derivative is the update at vz = 1; both in one update.
    t_pose, dt_dvz = translation_update_batch(
        state.translation[None], state.focal, np.concatenate((delta.vx, delta.vx)),
        np.concatenate((delta.vy, delta.vy)), np.concatenate((delta.vz, np.ones(k))),
        f_hat).reshape(2, k, 3)
    cam = rotated[0] + t_pose[:, None, :]
    cam_hat = pts @ gt.rotation.as_matrix().T + gt.translation
    if np.any(cam[..., 2] <= 0) or np.any(cam_hat[:, 2] <= 0):
        raise DepthError("updated or ground-truth pose puts a model point behind the camera")
    # Disentangled pose loss, whose domain checks come before the projections can overflow.
    pose, grad_pose, pose_diffs = _pose_terms(state, delta, gt, points, rotated)
    depth = cam[..., 2:]
    uv = f_hat * cam[..., :2] / depth
    uv_hat = f_hat * cam_hat[:, :2] / cam_hat[:, 2:3]
    diff_a = uv - uv_hat
    sgn = np.sign(diff_a)
    gq = np.concatenate([sgn * f_hat / depth, -(sgn * uv).sum(axis=2, keepdims=True) / depth],
                        axis=2)
    grad_reproj = np.zeros((k, 10))  # halved below, with the focal part's
    gq_sum = gq.sum(axis=1)
    grad_reproj[:, :2] = gq_sum[:, :2] * t_pose[:, 2:] / f_hat
    grad_reproj[:, 2] = row_dot(gq_sum, dt_dvz)
    grad_reproj[:, 3:9] = np.einsum("kni,kjni->kj", gq, rotated[1])

    # Reprojection, focal part: predicted focal (the multiplicative update)
    # at the ground-truth pose.
    f_new = np.exp(delta.vf) * state.focal
    uv_f = f_new[:, None, None] * cam_hat[:, :2] / cam_hat[:, 2:3]
    diff_b = uv_f - uv_hat
    grad_reproj[:, 9] = (np.sign(diff_b) * uv_f).sum(axis=(1, 2))
    reproj = 0.5 * (np.abs(diff_a).sum(axis=(1, 2)) + np.abs(diff_b).sum(axis=(1, 2)))
    grad_reproj *= 0.5

    a, b = weights.alpha, weights.beta
    total = pose + a * (b * huber + reproj)
    grad_total = grad_pose + a * (b * grad_huber + grad_reproj)
    return (LossBreakdown(total, pose, huber, reproj, grad_total, grad_pose, grad_huber,
                          grad_reproj), (diff_a, f_new - f_hat, pose_diffs, r))


def total_loss(state: ParamState, delta: DeltaTheta, gt: ParamState,
               points: ModelPoints, weights: LossWeights = LossWeights()) -> LossBreakdown:
    """Full training loss with per-term analytic gradients.

    The reprojection part is disentangled: its pose term is evaluated with
    the ground-truth focal length fed into the translation update, so it
    carries no dependence on vf; its focal term uses the ground-truth pose.
    """
    return _evaluate(state, _rows(delta), gt, points, weights)[0].row(0)


def smoothness_margins(state: ParamState, delta: DeltaTheta, gt: ParamState,
                       points: ModelPoints, weights: LossWeights = LossWeights()) -> dict:
    """Distances of the evaluation point to the nearest loss kinks.

    Returns the minimum absolute pixel residual of the reprojection terms,
    the minimum absolute metric residual of the pose terms, and the distance
    of the Huber residual to its transition point. Residuals with no
    sensitivity to the update variables are skipped: the x-y pose term's
    depth coordinate is fixed by the ground truth, and the focal-scaled
    reprojection residuals all cross their kinks at the single point where
    the updated focal equals the ground truth, so that family contributes
    one margin.
    """
    return _margins(_evaluate(state, _rows(delta), gt, points, weights)[1], weights)


def _margins(residuals, weights: LossWeights) -> dict:
    """The margins of row 0."""
    diff_a, df, (diff1, diff2, diff3), r = residuals
    return {"pixel": float(min(np.abs(diff_a[0]).min(), abs(df[0]))),
            "metric": float(min(np.abs(diff1[0, :2]).min(), np.abs(diff2[0]).min(),
                                np.abs(diff3[0]).min())),
            "huber": float(abs(abs(r[0]) - weights.huber_delta))}


def gradient_check(state: ParamState, delta: DeltaTheta, gt: ParamState,
                   points: ModelPoints, weights: LossWeights = LossWeights(),
                   step: float = 1e-6) -> dict:
    """Central-difference check of the analytic total-loss gradient.

    One 21-row evaluation: row 0 is ``delta``, rows 2i+1 and 2i+2 move its
    component i by +step and -step; a step either leaves unchanged is a DomainError.
    A point too close to an L1 or Huber kink is flagged ``smooth: False``
    (diagnostic, not a failure); relative errors are still reported.
    """
    if not (np.isfinite(step) and step > 0):
        raise DomainError(f"finite-difference step must be finite and positive, got {step}")
    steps = np.zeros((21, 10))
    steps[1::2], steps[2::2] = step * np.eye(10), -step * np.eye(10)
    rows = _rows(delta, steps)
    c = np.column_stack([rows.vx, rows.vy, rows.vz, rows.v_r1, rows.v_r2, rows.vf])
    if (stuck := np.flatnonzero((c[1::2].diagonal() == c[0]) | (c[2::2].diagonal() == c[0]))).size:
        raise DomainError(f"finite-difference step {step} leaves {GRAD_LABELS[stuck[0]]} = "
                          f"{float(c[0, stuck[0]])!r} unchanged")
    breakdown, residuals = _evaluate(state, rows, gt, points, weights)
    # A kink only invalidates central differences when a residual crosses
    # zero within +-step times its sensitivity; thresholds scale with the
    # step and leave an order of magnitude of safety.
    margins = _margins(residuals, weights)
    smooth = bool(margins["pixel"] > 1e3 * step and margins["metric"] > 20 * step
                  and margins["huber"] > 1e3 * step and delta.vz > 2 * step)

    analytic = breakdown.grad_total[0]
    numeric = (breakdown.total[1::2] - breakdown.total[2::2]) / (2 * step)
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
