"""The non-linear parameter update: focal, translation and rotation rules.

The focal update is multiplicative (stays positive for any finite input),
the translation update feeds the *new* focal length back into the projection
equations, and the rotation update is a Gram-Schmidt-orthogonalized left
multiplication. The legacy translation rule, which treats the focal length
as constant within a step, is kept for comparison experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (BBox, CameraIntrinsics, ParamState, PoseBatch, Rotation,
                       quat_conj, quat_multiply, quats_from_6d, quats_to_matrices,
                       rotation_from_6d)


@dataclass(frozen=True)
class DeltaTheta:
    """Predicted update: center shift (px), depth ratio, 6D rotation, log focal ratio."""

    vx: float
    vy: float
    vz: float
    v_r1: np.ndarray
    v_r2: np.ndarray
    vf: float

    def __post_init__(self):
        object.__setattr__(self, "v_r1", np.asarray(self.v_r1, dtype=float))
        object.__setattr__(self, "v_r2", np.asarray(self.v_r2, dtype=float))
        if not all(np.isfinite([self.vx, self.vy, self.vz, self.vf])):
            raise DomainError("update components must be finite")
        if self.vz <= 0:
            raise DomainError(f"depth ratio must be positive, got {self.vz}")

    @classmethod
    def identity(cls) -> "DeltaTheta":
        return cls(0.0, 0.0, 1.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 0.0)


def apply_focal_update(focal: float, vf: float) -> float:
    """Multiplicative focal update f' = exp(vf) * f."""
    if not np.isfinite(vf):
        raise DomainError(f"focal update must be finite, got {vf}")
    if focal <= 0:
        raise DomainError(f"focal length must be positive, got {focal}")
    return float(np.exp(vf) * focal)


def _check_translation_inputs(translation: np.ndarray, vz: float, f_new: float):
    if translation[2] <= 0:
        raise DomainError(f"object depth must be positive, got {translation[2]}")
    if vz <= 0:
        raise DomainError(f"depth ratio must be positive, got {vz}")
    if f_new <= 0:
        raise DomainError(f"updated focal must be positive, got {f_new}")


def apply_translation_update(state: ParamState, delta: DeltaTheta,
                             f_new: float) -> np.ndarray:
    """Exact translation update using both the old and the new focal length.

    The projected object center moves by exactly (vx, vy) pixels.
    """
    x, y, z = state.translation
    _check_translation_inputs(state.translation, delta.vz, f_new)
    f = state.focal
    z_new = delta.vz * z
    x_new = (delta.vx + f * x / z) * z_new / f_new
    y_new = (delta.vy + f * y / z) * z_new / f_new
    return np.array([x_new, y_new, z_new])


def apply_legacy_translation_update(state: ParamState, delta: DeltaTheta,
                                    f_new: float) -> np.ndarray:
    """Approximate rule that treats the focal length as constant within a step.

    Coincides with :func:`apply_translation_update` when f_new equals the
    current focal; otherwise the carried center term is off by f / f_new.
    """
    x, y, z = state.translation
    _check_translation_inputs(state.translation, delta.vz, f_new)
    z_new = delta.vz * z
    x_new = (delta.vx / f_new + x / z) * z_new
    y_new = (delta.vy / f_new + y / z) * z_new
    return np.array([x_new, y_new, z_new])


def apply_rotation_update(rotation: Rotation, v_r1, v_r2) -> Rotation:
    """Left-multiplicative rotation update; independent of the focal length."""
    return rotation_from_6d(v_r1, v_r2) @ rotation


def apply_update(state: ParamState, delta: DeltaTheta, legacy: bool = False) -> ParamState:
    """One full update step: focal first, then translation with the new focal.

    ``legacy=True`` selects the approximate translation rule.
    """
    f_new = apply_focal_update(state.focal, delta.vf)
    rot_new = apply_rotation_update(state.rotation, delta.v_r1, delta.v_r2)
    rule = apply_legacy_translation_update if legacy else apply_translation_update
    t_new = rule(state, delta, f_new)
    return ParamState(rot_new, t_new, f_new)


def oracle_delta(state: ParamState, target: ParamState) -> DeltaTheta:
    """Exact inverse of the update rule: apply_update(state, result) == target.

    The rotation factor is encoded by the first two columns of
    R_target @ R_state^T, which Gram-Schmidt maps back onto itself.
    """
    x, y, z = state.translation
    xh, yh, zh = target.translation
    if z <= 0 or zh <= 0:
        raise DomainError("both states must have positive depth")
    f, fh = state.focal, target.focal
    r_rel = (target.rotation @ state.rotation.inverse()).as_matrix()
    return DeltaTheta(
        vx=fh * xh / zh - f * x / z,
        vy=fh * yh / zh - f * y / z,
        vz=zh / z,
        v_r1=r_rel[:, 0].copy(),
        v_r2=r_rel[:, 1].copy(),
        vf=float(np.log(fh / f)),
    )


def init_state(bbox: BBox, intrinsics: CameraIntrinsics,
               depth: float = 1.0) -> ParamState:
    """Initial state: identity rotation, given depth (default 1 m), and an
    x-y translation whose projection lands on the bbox center."""
    xc, yc = bbox.center
    f = intrinsics.focal
    return ParamState(
        rotation=Rotation.identity(),
        translation=np.array([(xc - intrinsics.cx) * depth / f,
                              (yc - intrinsics.cy) * depth / f,
                              depth]),
        focal=f,
    )


# ---------------------------------------------------------------------------
# Batched rules: row i of every array is one pose or one update
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaBatch:
    """N predicted updates as arrays: vx, vy, vz, vf (N,) and v_r1, v_r2
    (N, 3). Row i is one :class:`DeltaTheta`, with the same checks."""

    vx: np.ndarray
    vy: np.ndarray
    vz: np.ndarray
    v_r1: np.ndarray
    v_r2: np.ndarray
    vf: np.ndarray

    def __post_init__(self):
        for name in ("vx", "vy", "vz", "v_r1", "v_r2", "vf"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not all(np.all(np.isfinite(c)) for c in (self.vx, self.vy, self.vz, self.vf)):
            raise DomainError("update components must be finite")
        if np.any(self.vz <= 0):
            raise DomainError(f"depth ratio must be positive, got {self.vz.min()}")


def apply_update_batch(state: PoseBatch, delta: DeltaBatch,
                       legacy: np.ndarray) -> PoseBatch:
    """Row-wise :func:`apply_update`; ``legacy[i]`` selects the approximate
    translation rule for row i. Both rules are computed for every row."""
    f = state.focal
    if np.any(f <= 0):
        raise DomainError(f"focal length must be positive, got {f.min()}")
    f_new = np.exp(delta.vf) * f
    quat = quat_multiply(quats_from_6d(delta.v_r1, delta.v_r2), state.quat)
    x, y, z = state.translation.T
    if np.any(z <= 0):
        raise DomainError(f"object depth must be positive, got {z.min()}")
    if np.any(f_new <= 0):
        raise DomainError(f"updated focal must be positive, got {f_new.min()}")
    z_new = delta.vz * z
    x_new = np.where(legacy, (delta.vx / f_new + x / z) * z_new,
                     (delta.vx + f * x / z) * z_new / f_new)
    y_new = np.where(legacy, (delta.vy / f_new + y / z) * z_new,
                     (delta.vy + f * y / z) * z_new / f_new)
    return PoseBatch(quat, np.column_stack([x_new, y_new, z_new]), f_new)


def oracle_delta_batch(state: PoseBatch, target: PoseBatch) -> DeltaBatch:
    """Row-wise :func:`oracle_delta`."""
    x, y, z = state.translation.T
    xh, yh, zh = target.translation.T
    if np.any(z <= 0) or np.any(zh <= 0):
        raise DomainError("both states must have positive depth")
    f, fh = state.focal, target.focal
    r_rel = quats_to_matrices(quat_multiply(target.quat, quat_conj(state.quat)))
    return DeltaBatch(vx=fh * xh / zh - f * x / z, vy=fh * yh / zh - f * y / z,
                      vz=zh / z, v_r1=r_rel[:, :, 0], v_r2=r_rel[:, :, 1],
                      vf=np.log(fh / f))


def init_state_batch(boxes: np.ndarray, intrinsics: CameraIntrinsics) -> PoseBatch:
    """Row-wise :func:`init_state` (depth 1 m) of boxes (N, 4) given as
    x1, y1, x2, y2."""
    n = len(boxes)
    xc = 0.5 * (boxes[:, 0] + boxes[:, 2])
    yc = 0.5 * (boxes[:, 1] + boxes[:, 3])
    f = intrinsics.focal
    return PoseBatch(np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                     np.column_stack([(xc - intrinsics.cx) / f,
                                      (yc - intrinsics.cy) / f,
                                      np.ones(n)]),
                     np.full(n, float(f)))
