"""Closed-loop refinement with pluggable predictors in place of the network.

A predictor is any callable (state, target, iteration, draws) -> DeltaBatch
over N rows: the current and target poses as a PoseBatch, the 1-based
iteration, and that iteration's (N, 8) standard-normal draws. A network's 6D
output enters as a ``DeltaBatch`` pair, decoded once by the update; the oracle
predictor inverts the update rule exactly, its rotation a quaternion throughout,
and its noisy and clamped variants emulate an imperfect network so the exact and
legacy translation rules can be compared under identical randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DepthError, DomainError
from .geometry import (BBox, CameraIntrinsics, ModelPoints, ParamState,
                       PoseBatch, camera_points, image_boxes, quat_axis_angle,
                       quat_multiply, quats_from_axis_angle)
from .metrics import METRIC_FIELDS, GroundTruth, aggregate, to_records
from .update_rules import (UPDATE_RULES, DeltaBatch, apply_update_batch, init_state_batch,
                           oracle_terms)

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
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise DomainError(f"NoiseScales.{f.name} must be finite and non-negative")


@dataclass(frozen=True)
class ClampBounds:
    """Per-step caps, applied in each component's natural space."""

    max_px: float = 20.0
    max_log_depth: float = 0.1
    max_angle_deg: float = 5.0
    max_log_focal: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise DomainError(f"ClampBounds.{f.name} must be finite and positive")


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
        vx, vy, vz, quat, vf = oracle_terms(state, target)
        if (ns := self.noise) is not None:
            angle = math.radians(ns.sigma_rot_deg) * draws[:, 3]
            quat = quat_multiply(quats_from_axis_angle(draws[:, :3], angle), quat)
            vx = vx + ns.sigma_x_px * draws[:, 4]
            vy = vy + ns.sigma_y_px * draws[:, 5]
            vz = vz * np.exp(ns.sigma_z_log * draws[:, 6])
            vf = vf + ns.sigma_f_log * draws[:, 7]
        if (cl := self.clamp) is not None:
            axis, angle = quat_axis_angle(quat)
            quat = quats_from_axis_angle(axis, np.minimum(angle, math.radians(cl.max_angle_deg)))
            vx, vy = np.clip(vx, -cl.max_px, cl.max_px), np.clip(vy, -cl.max_px, cl.max_px)
            vz = np.exp(np.clip(np.log(vz), -cl.max_log_depth, cl.max_log_depth))
            vf = np.clip(vf, -cl.max_log_focal, cl.max_log_focal)
        return DeltaBatch.from_quat(vx, vy, vz, quat, vf)


CONVERGED_TOL = 1e-6  # bound on e_rot, e_trans and e_focal of a converged trial


def _check_settings(rules, iterations: int):
    for i, rule in enumerate(rules):
        if rule not in UPDATE_RULES:
            raise DomainError(f"unknown update rule {rule!r}")
        if rule in rules[:i]:
            raise DomainError(f"duplicate update rule {rule!r}")
    if iterations < 1:
        raise DomainError("iteration count must be at least 1")


@dataclass(frozen=True)
class TrialResult:
    trajectory: list[dict]  # records by RECORD_FIELDS, iterations + 1, initial state included
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
            intrinsics: CameraIntrinsics, img_diag: float, every_iou: bool):
    """The refinement loop, advancing N rows (trials x update rules) per pass.

    Row i refines towards ``target`` row i from the standard initialization
    in box ``bbox_gt[i]``, with the translation rule ``legacy[i]`` and the
    noise draws ``draws[:, i]`` (iterations, N, 8). Returns the metrics of
    every iteration, initial state included, against one :class:`GroundTruth`
    (the IoU at the last only, unless ``every_iou``), and the final states.

    The predictor's depth ratio is floored at 1e-6 in the delta it returns, against
    depth collapse from adversarial predictors; a checked ratio stays valid, so no
    check runs again. An invalid prediction aborts the loop with the iteration index.
    """
    state = init_state_batch(bbox_gt, intrinsics)
    truth = GroundTruth(target, points.points, bbox_gt, img_diag)
    trajectory = [truth.score(state, intrinsics if every_iou else None)]
    for k in range(1, len(draws) + 1):
        try:
            delta = predictor(state, target, k, draws[k - 1])
            object.__setattr__(delta, "vz", np.maximum(delta.vz, VZ_FLOOR))
            state = apply_update_batch(state, delta, legacy)
        except DomainError as exc:
            raise DomainError(f"trial aborted at iteration {k}: {exc}") from exc
        iou = every_iou or k == len(draws)
        trajectory.append(truth.score(state, intrinsics if iou else None))
    return trajectory, state


def _converged(metrics: dict) -> np.ndarray:
    return ((metrics["e_rot"] <= CONVERGED_TOL) & (metrics["e_trans"] <= CONVERGED_TOL)
            & (metrics["e_focal"] <= CONVERGED_TOL))


def _trial_draws(seed: int, n: int, iterations: int) -> np.ndarray:
    """The (iterations, n, 8) noise of trials 0..n-1 at ``seed``: trial i's block of one draw
    from child 1 of SeedSequence(seed) (child 0 draws uniform targets), the same whatever n."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    return rng.standard_normal((n, iterations, 8)).transpose(1, 0, 2)


def run_refinement(target: ParamState, bbox: BBox, points: ModelPoints,
                   intrinsics: CameraIntrinsics, img_diag: float, *,
                   predictor=OraclePredictor(), iterations: int = 15,
                   update_rule: str = "exact", seed: int = 0) -> TrialResult:
    """One trial of one update rule from the standard initialization: the
    single-row case of the campaign loop, with the noise of trial 0 of a
    campaign at ``seed`` (:func:`_trial_draws`)."""
    _check_settings((update_rule,), iterations)
    draws = _trial_draws(seed, 1, iterations)
    trajectory, final = _refine(
        predictor, PoseBatch.from_states([target]), np.array([bbox.as_list()]),
        np.array([update_rule == "legacy"]), draws, points, intrinsics, img_diag,
        every_iou=True)
    return TrialResult(trajectory=[to_records(m)[0] for m in trajectory],
                       final_state=final.state(0),
                       converged=bool(_converged(trajectory[-1])[0]))


def run_experiment(targets: PoseBatch, points: ModelPoints,
                   intrinsics: CameraIntrinsics, img_diag: float, *,
                   predictor=OraclePredictor(), iterations: int = 15,
                   variants=UPDATE_RULES, seed: int = 0,
                   keep_trajectories: bool = False) -> dict:
    """Paired campaign over the target poses, one trial per row.

    Each trial runs every update-rule variant with common random numbers
    (trial i's block of :func:`_trial_draws` in every arm), so the only
    difference between the arms is the translation rule. All trials of all
    arms advance together, one row each.
    """
    if not targets:
        raise DomainError("campaign needs at least one target")
    _check_settings(variants, iterations)
    n = len(targets)
    draws = _trial_draws(seed, n, iterations)
    bbox = image_boxes(camera_points(targets, points.points), intrinsics)
    if np.isnan(bbox).any():
        raise DepthError("a target puts a model point behind the camera")
    rows = np.tile(np.arange(n), len(variants))
    legacy = np.repeat([rule == "legacy" for rule in variants], n)
    trajectory, _ = _refine(predictor, targets.take(rows), bbox[rows], legacy,
                            draws[:, rows], points, intrinsics, img_diag, keep_trajectories)
    converged = _converged(trajectory[-1])
    # every arm's lower medians at once, from the (iterations + 1, fields, arms, n) columns
    table = np.array([[m[f] for f in METRIC_FIELDS] for m in trajectory])
    mid = (n + 1) // 2 - 1
    medians = np.partition(table.reshape(*table.shape[:2], -1, n), mid)[..., mid].tolist()

    report = {"n_trials": n, "iterations": iterations,
              "seed": seed, "variants": {}}
    for a, rule in enumerate(variants):
        arm = slice(a * n, (a + 1) * n)
        per_iter = [dict(iteration=k, **{f"median_{f}": field[a]
                                         for f, field in zip(METRIC_FIELDS, step)})
                    for k, step in enumerate(medians)]
        entry = {
            "summary": aggregate({f: c[arm] for f, c in trajectory[-1].items()}),
            "per_iteration_medians": per_iter,
            "converged_fraction": int(converged[arm].sum()) / n,
        }
        if keep_trajectories:
            steps = [to_records(m, arm) for m in trajectory]
            entry["trajectories"] = [list(trial) for trial in zip(*steps)]
        report["variants"][rule] = entry
    return report
