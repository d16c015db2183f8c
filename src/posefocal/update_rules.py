"""The non-linear parameter update: focal, translation and rotation rules.

The focal update is multiplicative (stays positive for any finite input),
the translation update feeds the *new* focal length back into the projection
equations, and the rotation update is a Gram-Schmidt-orthogonalized left
multiplication. One translation rule serves both arms of the comparison
experiments: ``legacy=True`` holds the focal length constant within a step,
in :func:`apply_translation_update` as in the batched rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (BBox, CameraIntrinsics, ParamState, PoseBatch, Rotation,
                       quat_conj, quat_multiply, quats_from_6d, quats_to_matrices,
                       rotation_from_6d, row_dot)

UPDATE_RULES = ("exact", "legacy")  # the arms of an update-rule comparison
_ROW_SHAPES = {"v_r1": (3,), "v_r2": (3,), "quat": (4,)}  # of DeltaBatch's 2-D fields


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
        for name in ("v_r1", "v_r2"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,) or not all(map(math.isfinite, v.tolist())):
                raise DomainError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, v)
        if not all(map(math.isfinite, (self.vx, self.vy, self.vz, self.vf))):
            raise DomainError("update components must be finite")
        if self.vz <= 0:
            raise DomainError(f"depth ratio must be positive, got {self.vz}")

    @classmethod
    def identity(cls) -> "DeltaTheta":
        return cls(0.0, 0.0, 1.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 0.0)


def apply_focal_update(focal: float, vf: float) -> float:
    """Multiplicative focal update f' = exp(vf) * f."""
    if not math.isfinite(vf):
        raise DomainError(f"focal update must be finite, got {vf}")
    if focal <= 0:
        raise DomainError(f"focal length must be positive, got {focal}")
    return float(np.exp(vf) * focal)


def apply_translation_update(state: ParamState, delta: DeltaTheta, f_new: float,
                             legacy: bool = False) -> np.ndarray:
    """Exact translation update with the old and the new focal length: the projected
    object center moves by exactly (vx, vy) pixels. ``legacy=True`` treats the focal
    as constant within a step, which puts the carried center term off by f / f_new."""
    x, y, z = state.translation.tolist()
    if z <= 0:
        raise DomainError(f"object depth must be positive, got {z}")
    if f_new <= 0:
        raise DomainError(f"updated focal must be positive, got {f_new}")
    z_new = delta.vz * z
    if legacy:
        return np.array([(delta.vx / f_new + x / z) * z_new,
                         (delta.vy / f_new + y / z) * z_new, z_new])
    f = state.focal
    return np.array([(delta.vx + f * x / z) * z_new / f_new,
                     (delta.vy + f * y / z) * z_new / f_new, z_new])


def apply_rotation_update(rotation: Rotation, v_r1, v_r2) -> Rotation:
    """Left-multiplicative rotation update; independent of the focal length."""
    return rotation_from_6d(v_r1, v_r2) @ rotation


def apply_update(state: ParamState, delta: DeltaTheta, legacy: bool = False) -> ParamState:
    """One full update step: focal first, then translation with the new focal.

    ``legacy=True`` selects the approximate translation rule.
    """
    f_new = apply_focal_update(state.focal, delta.vf)
    rot_new = apply_rotation_update(state.rotation, delta.v_r1, delta.v_r2)
    return ParamState(rot_new, apply_translation_update(state, delta, f_new, legacy), f_new)


def oracle_delta(state: ParamState, target: ParamState) -> DeltaTheta:
    """Exact inverse of the update rule: apply_update(state, result) == target.

    The rotation factor is encoded by the first two columns of
    R_target @ R_state^T, which Gram-Schmidt maps back onto itself.
    """
    x, y, z = state.translation.tolist()
    xh, yh, zh = target.translation.tolist()
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


def init_state(bbox: BBox, intrinsics: CameraIntrinsics) -> ParamState:
    """The one-row :func:`init_state_batch`."""
    return init_state_batch(np.array([bbox.as_list()]), intrinsics).state(0)


# ---------------------------------------------------------------------------
# Batched rules: row i of every array is one pose or one update
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaBatch:
    """N predicted updates as arrays: vx, vy, vz, vf (N,) and each row's rotation as a
    6D pair v_r1, v_r2 (N, 3) or, by :meth:`from_quat`, a unit quaternion ``quat``
    (N, 4). The other form is derived when first read: ``quat`` by :func:`quats_from_6d`,
    the pair as two matrix columns. Row i is one :class:`DeltaTheta`, checked once."""

    vx: np.ndarray
    vy: np.ndarray
    vz: np.ndarray
    v_r1: np.ndarray
    v_r2: np.ndarray
    vf: np.ndarray

    def __post_init__(self):
        self._check(**vars(self))

    @classmethod
    def from_quat(cls, vx, vy, vz, quat, vf) -> "DeltaBatch":
        return object.__new__(cls)._check(vx=vx, vy=vy, vz=vz, quat=quat, vf=vf)

    def _check(self, **fields):
        for name, value in fields.items():
            v = vars(self)[name] = np.asarray(value, dtype=float)
            cols = _ROW_SHAPES.get(name, v.shape[1:])
            if v.shape[1:] != cols or not np.isfinite(v).all():
                raise DomainError(f"{name} must be finite" + (f" (N, {cols[0]})" if cols else ""))
        if "quat" in fields and (np.abs(row_dot(self.quat, self.quat) - 1) > 1e-6).any():
            raise DomainError("quat: rows must be unit quaternions")
        if (self.vz <= 0).any():
            raise DomainError(f"depth ratio must be positive, got {self.vz.min()}")
        return self

    def __getattr__(self, name):  # the rotation form not given when built
        given = vars(self)
        if name == "quat" and "v_r1" in given:
            given["quat"] = quats_from_6d(self.v_r1, self.v_r2)
        elif name in ("v_r1", "v_r2") and "quat" in given:
            given["v_r1"], given["v_r2"], _ = quats_to_matrices(self.quat).transpose(2, 0, 1)
        else:
            raise AttributeError(name)
        return given[name]


def apply_update_batch(state: PoseBatch, delta: DeltaBatch,
                       legacy: np.ndarray) -> PoseBatch:
    """Row-wise :func:`apply_update`; ``legacy[i]`` selects the approximate
    translation rule for row i. Both rules are computed for every row."""
    f = state.focal
    if (f <= 0).any():
        raise DomainError(f"focal length must be positive, got {f.min()}")
    f_new = np.exp(delta.vf) * f
    quat = quat_multiply(delta.quat, state.quat)
    return PoseBatch(quat, translation_update_batch(state.translation, f, delta.vx, delta.vy,
                                                    delta.vz, f_new, legacy), f_new)


def translation_update_batch(translation: np.ndarray, f, vx, vy, vz, f_new,
                             legacy=False) -> np.ndarray:
    """Row-wise :func:`apply_translation_update` of translations (N, 3) at focals f by unchecked
    components, the legacy rule where ``legacy`` (not computed if False); one row fits N rows."""
    x, y, z = translation.T
    if (z <= 0).any():
        raise DomainError(f"object depth must be positive, got {z.min()}")
    if np.any(f_new <= 0):
        raise DomainError(f"updated focal must be positive, got {np.min(f_new)}")
    z_new = vz * z
    x_new = (vx + f * x / z) * z_new / f_new
    y_new = (vy + f * y / z) * z_new / f_new
    if legacy is not False:
        x_new = np.where(legacy, (vx / f_new + x / z) * z_new, x_new)
        y_new = np.where(legacy, (vy / f_new + y / z) * z_new, y_new)
    out = np.empty(np.broadcast(x_new, y_new).shape + (3,))
    out[:, 0], out[:, 1], out[:, 2] = x_new, y_new, z_new
    return out


def oracle_terms(state: PoseBatch, target: PoseBatch) -> tuple:
    """Row-wise :func:`oracle_delta` as the unchecked arrays of :meth:`DeltaBatch.from_quat`."""
    x, y, z = state.translation.T
    xh, yh, zh = target.translation.T
    if (z <= 0).any() or (zh <= 0).any():
        raise DomainError("both states must have positive depth")
    f, fh = state.focal, target.focal
    return (fh * xh / zh - f * x / z, fh * yh / zh - f * y / z, zh / z,
            quat_multiply(target.quat, quat_conj(state.quat)), np.log(fh / f))


def init_state_batch(boxes: np.ndarray, intrinsics: CameraIntrinsics) -> PoseBatch:
    """Initial states of boxes (N, 4) given as x1, y1, x2, y2: identity rotation, depth
    1 m, the camera's focal and an x-y translation that projects onto the box center."""
    n = len(boxes)
    xc = 0.5 * (boxes[:, 0] + boxes[:, 2])
    yc = 0.5 * (boxes[:, 1] + boxes[:, 3])
    f = intrinsics.focal
    return PoseBatch(np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                     np.column_stack([(xc - intrinsics.cx) / f,
                                      (yc - intrinsics.cy) / f,
                                      np.ones(n)]),
                     np.full(n, float(f)))
