"""Closed-loop refinement with pluggable predictors in place of the network.

A predictor is any callable (state, target, iteration, draws) -> DeltaBatch
over N rows: the current and target poses as a PoseBatch, the 1-based
iteration, and that iteration's (N, 8) standard-normal draws. The oracle
predictor inverts the update rule exactly; noisy and clamped variants
emulate an imperfect network so the exact and legacy translation rules can
be compared under identical randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DepthError, DomainError
from .geometry import (BBox, CameraIntrinsics, ModelPoints, ParamState,
                       PoseBatch, camera_points, image_boxes, quat_axis_angle,
                       quat_multiply, quats_from_6d, quats_from_axis_angle,
                       quats_to_matrices)
from .metrics import (METRIC_FIELDS, MetricRecord, aggregate, evaluate_batch,
                      lower_median)
from .update_rules import (DeltaBatch, apply_update_batch, init_state_batch,
                           oracle_delta_batch)

VZ_FLOOR = 1e-6  # depth-ratio clamp guarding against depth collapse


@dataclass(frozen=True)
class NoiseScales:
    """Per-component Gaussian noise added to the oracle prediction.

    Defaults mirror the refiner's training input-error scales: 1 cm in x-y
    at 1 m depth and 600 px focal is 6 px, 5 cm depth is 0.05 in log depth,
    15 degrees of rotation, and 0.15 in log focal.
    """

    sigma_x_px: float = 6.0
    sigma_y_px: float = 6.0
    sigma_z_log: float = 0.05
    sigma_rot_deg: float = 15.0
    sigma_f_log: float = 0.15

    def __post_init__(self):
        if min(self.sigma_x_px, self.sigma_y_px, self.sigma_z_log,
               self.sigma_rot_deg, self.sigma_f_log) < 0:
            raise DomainError("noise scales must be non-negative")


@dataclass(frozen=True)
class ClampBounds:
    """Per-step caps, applied in each component's natural space."""

    max_px: float = 20.0
    max_log_depth: float = 0.1
    max_angle_deg: float = 5.0
    max_log_focal: float = 0.05

    def __post_init__(self):
        if min(self.max_px, self.max_log_depth, self.max_angle_deg,
               self.max_log_focal) <= 0:
            raise DomainError("clamp bounds must be positive")


@dataclass(frozen=True)
class OraclePredictor:
    """Oracle update, optionally noised and/or clamped, for N rows at once.

    ``draws`` holds the iteration's (N, 8) standard normals: the rotation
    noise axis (3), its angle, then x, y, log depth and log focal. Every
    row reads its own draws, so paired arms given the same rows see
    identical noise.
    """

    noise: NoiseScales | None = None
    clamp: ClampBounds | None = None

    def __call__(self, state: PoseBatch, target: PoseBatch, iteration: int,
                 draws: np.ndarray) -> DeltaBatch:
        delta = oracle_delta_batch(state, target)
        if self.noise is not None:
            delta = self._add_noise(delta, draws)
        if self.clamp is not None:
            delta = self._apply_clamp(delta)
        return delta

    def _add_noise(self, delta: DeltaBatch, z: np.ndarray) -> DeltaBatch:
        ns = self.noise
        axis = z[:, :3] / np.maximum(np.linalg.norm(z[:, :3], axis=1), 1e-15)[:, None]
        angle = np.deg2rad(ns.sigma_rot_deg) * z[:, 3]
        mat = quats_to_matrices(quat_multiply(quats_from_axis_angle(axis, angle),
                                              quats_from_6d(delta.v_r1, delta.v_r2)))
        return DeltaBatch(
            vx=delta.vx + ns.sigma_x_px * z[:, 4],
            vy=delta.vy + ns.sigma_y_px * z[:, 5],
            vz=delta.vz * np.exp(ns.sigma_z_log * z[:, 6]),
            v_r1=mat[:, :, 0],
            v_r2=mat[:, :, 1],
            vf=delta.vf + ns.sigma_f_log * z[:, 7],
        )

    def _apply_clamp(self, delta: DeltaBatch) -> DeltaBatch:
        cl = self.clamp
        quat = quats_from_6d(delta.v_r1, delta.v_r2)
        axis, angle = quat_axis_angle(quat)
        max_angle = np.deg2rad(cl.max_angle_deg)
        capped = quats_from_axis_angle(axis, np.full(len(angle), max_angle))
        mat = quats_to_matrices(np.where((angle > max_angle)[:, None], capped, quat))
        return DeltaBatch(
            vx=np.clip(delta.vx, -cl.max_px, cl.max_px),
            vy=np.clip(delta.vy, -cl.max_px, cl.max_px),
            vz=np.exp(np.clip(np.log(delta.vz), -cl.max_log_depth, cl.max_log_depth)),
            v_r1=mat[:, :, 0],
            v_r2=mat[:, :, 1],
            vf=np.clip(delta.vf, -cl.max_log_focal, cl.max_log_focal),
        )


UPDATE_RULES = ("exact", "legacy")


@dataclass(frozen=True)
class Tolerances:
    e_rot: float = 1e-6
    e_trans: float = 1e-6
    e_focal: float = 1e-6


@dataclass(frozen=True)
class TrialConfig:
    iterations: int = 15
    update_rule: str = "exact"
    predictor: OraclePredictor = field(default_factory=OraclePredictor)
    seed: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.iterations < 1:
            raise DomainError("iteration count must be at least 1")
        if self.update_rule not in UPDATE_RULES:
            raise DomainError(f"unknown update rule {self.update_rule!r}")


@dataclass(frozen=True)
class TrialResult:
    trajectory: list[MetricRecord]  # length iterations + 1, initial state included
    final_state: ParamState
    converged: bool


def projected_bbox(state: ParamState, points: ModelPoints,
                   intrinsics: CameraIntrinsics) -> BBox:
    """Axis-aligned box around the projected model points."""
    box = image_boxes(camera_points(PoseBatch.from_states([state]), points.points),
                      intrinsics)[0]
    if np.isnan(box[0]):
        raise DepthError("a model point has non-positive depth")
    return BBox(*box.tolist())


def _refine(predictor, target: PoseBatch, bbox_gt: np.ndarray,
            legacy: np.ndarray, draws: np.ndarray, points: ModelPoints,
            intrinsics: CameraIntrinsics, img_diag: float):
    """The refinement loop, advancing N rows (trials x update rules) per pass.

    Row i refines towards ``target`` row i from the standard initialization
    in box ``bbox_gt[i]``, with the translation rule ``legacy[i]`` and the
    noise draws ``draws[:, i]`` (iterations, N, 8). Returns the metrics of
    every iteration, initial state included, and the final states.

    The predictor's depth ratio is floored at 1e-6 to prevent depth collapse
    from adversarial predictors. An invalid prediction aborts the loop with
    the iteration index.
    """
    state = init_state_batch(bbox_gt, intrinsics)
    trajectory = [evaluate_batch(state, target, points, bbox_gt, img_diag, intrinsics)]
    for k in range(1, len(draws) + 1):
        try:
            delta = predictor(state, target, k, draws[k - 1])
            delta = replace(delta, vz=np.maximum(delta.vz, VZ_FLOOR))
            state = apply_update_batch(state, delta, legacy)
        except DomainError as exc:
            raise DomainError(f"trial aborted at iteration {k}: {exc}") from exc
        trajectory.append(evaluate_batch(state, target, points, bbox_gt, img_diag,
                                         intrinsics))
    return trajectory, state


def _records(metrics: dict, rows) -> list[MetricRecord]:
    columns = [metrics[f][rows].tolist() for f in METRIC_FIELDS]
    ious = [None if math.isnan(v) else v for v in metrics["iou"][rows].tolist()]
    return [MetricRecord(*values) for values in zip(*columns, ious)]


def _converged(metrics: dict, tol: Tolerances) -> np.ndarray:
    return ((metrics["e_rot"] <= tol.e_rot) & (metrics["e_trans"] <= tol.e_trans)
            & (metrics["e_focal"] <= tol.e_focal))


def run_refinement(config: TrialConfig, target: ParamState, bbox: BBox,
                   points: ModelPoints, intrinsics: CameraIntrinsics,
                   img_diag: float) -> TrialResult:
    """One trial of one update rule from the standard initialization: the
    single-row case of the campaign loop, with noise drawn from
    ``default_rng(config.seed)``."""
    draws = np.random.default_rng(config.seed).standard_normal((config.iterations, 1, 8))
    trajectory, final = _refine(
        config.predictor, PoseBatch.from_states([target]), np.array([bbox.as_list()]),
        np.array([config.update_rule == "legacy"]), draws, points, intrinsics, img_diag)
    return TrialResult(trajectory=[_records(m, slice(None))[0] for m in trajectory],
                       final_state=final.state(0),
                       converged=bool(_converged(trajectory[-1], config.tolerances)[0]))


def run_experiment(targets: PoseBatch, base_config: TrialConfig, points: ModelPoints,
                   intrinsics: CameraIntrinsics, img_diag: float,
                   variants=("exact", "legacy"), seed: int = 0,
                   keep_trajectories: bool = False) -> dict:
    """Paired campaign over the target poses, one trial per row.

    Each trial runs every update-rule variant with common random numbers
    (trial i draws from ``default_rng(seed + i)`` in every arm), so the only
    difference between the arms is the translation rule. All trials of all
    arms advance together, one row each.
    """
    if not targets:
        raise DomainError("campaign needs at least one target")
    for rule in variants:
        if rule not in UPDATE_RULES:
            raise DomainError(f"unknown update rule {rule!r}")
    n = len(targets)
    draws = np.stack([np.random.default_rng(seed + i).standard_normal(
        (base_config.iterations, 8)) for i in range(n)], axis=1)
    bbox = image_boxes(camera_points(targets, points.points), intrinsics)
    if np.isnan(bbox).any():
        raise DepthError("a target puts a model point behind the camera")
    rows = np.tile(np.arange(n), len(variants))
    legacy = np.repeat([rule == "legacy" for rule in variants], n)
    trajectory, _ = _refine(base_config.predictor, targets.take(rows), bbox[rows],
                            legacy, draws[:, rows], points, intrinsics, img_diag)
    converged = _converged(trajectory[-1], base_config.tolerances)

    report = {"n_trials": n, "iterations": base_config.iterations,
              "seed": seed, "variants": {}}
    for a, rule in enumerate(variants):
        arm = slice(a * n, (a + 1) * n)
        per_iter = [dict(iteration=k, **{f"median_{f}": lower_median(m[f][arm].tolist())
                                         for f in METRIC_FIELDS})
                    for k, m in enumerate(trajectory)]
        entry = {
            "summary": aggregate(_records(trajectory[-1], arm)),
            "per_iteration_medians": per_iter,
            "converged_fraction": int(converged[arm].sum()) / n,
        }
        if keep_trajectories:
            steps = [_records(m, arm) for m in trajectory]
            entry["trajectories"] = [[rec.to_dict() for rec in trial]
                                     for trial in zip(*steps)]
        report["variants"][rule] = entry
    return report
