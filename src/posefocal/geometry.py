"""Pinhole camera model, rotations, bounding boxes and the crop protocol.

Conventions: quaternions are (w, x, y, z), continuous pixel coordinates with
no half-pixel offset, focal length in pixels with f_x = f_y, translations in
meters. Angles are radians unless a name carries a ``_deg`` suffix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DepthError, DomainError

_UNIT_TOL = 1e-9
_DEGENERATE_TOL = 1e-12


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2*y*y - 2*z*z, 2*x*y - 2*w*z, 2*x*z + 2*w*y],
        [2*x*y + 2*w*z, 1 - 2*x*x - 2*z*z, 2*y*z - 2*w*x],
        [2*x*z - 2*w*y, 2*y*z + 2*w*x, 1 - 2*x*x - 2*y*y],
    ])


def _matrix_to_quat(m: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the numerically largest pivot.
    t = np.trace(m)
    if t > 0:
        s = 0.5 / np.sqrt(t + 1.0)
        q = np.array([0.25 / s,
                      (m[2, 1] - m[1, 2]) * s,
                      (m[0, 2] - m[2, 0]) * s,
                      (m[1, 0] - m[0, 1]) * s])
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = 2.0 * np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        q = np.array([(m[2, 1] - m[1, 2]) / s,
                      0.25 * s,
                      (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] > m[2, 2]:
        s = 2.0 * np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        q = np.array([(m[0, 2] - m[2, 0]) / s,
                      (m[0, 1] + m[1, 0]) / s,
                      0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = 2.0 * np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        q = np.array([(m[1, 0] - m[0, 1]) / s,
                      (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s,
                      0.25 * s])
    return q / np.linalg.norm(q)


@dataclass(frozen=True)
class Rotation:
    """3D rotation stored as a unit quaternion (w, x, y, z).

    ``q`` and ``-q`` represent the same rotation.
    """

    quat: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=float)
        if q.shape != (4,):
            raise DomainError(f"quaternion must have 4 components, got shape {q.shape}")
        n = np.linalg.norm(q)
        if not np.isfinite(n) or n < _DEGENERATE_TOL:
            raise DegenerateInputError("quaternion norm is zero or non-finite")
        object.__setattr__(self, "quat", q / n)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Rotation":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise DomainError("rotation matrix must be 3x3")
        if np.abs(m @ m.T - np.eye(3)).max() > 1e-6 or np.linalg.det(m) < 0:
            raise DomainError("matrix is not a proper rotation")
        return cls(_matrix_to_quat(m))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        axis = np.asarray(axis, dtype=float)
        n = np.linalg.norm(axis)
        if n < _DEGENERATE_TOL:
            raise DegenerateInputError("rotation axis is a zero vector")
        axis = axis / n
        half = 0.5 * angle
        return cls(np.concatenate([[np.cos(half)], np.sin(half) * axis]))

    def as_matrix(self) -> np.ndarray:
        return _quat_to_matrix(self.quat)

    def inverse(self) -> "Rotation":
        w, x, y, z = self.quat
        return Rotation(np.array([w, -x, -y, -z]))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        """Composition: (self @ other) applies ``other`` first."""
        w1, x1, y1, z1 = self.quat
        w2, x2, y2, z2 = other.quat
        return Rotation(np.array([
            w1*w2 - x1*x2 - y1*y2 - z1*z2,
            w1*x2 + x1*w2 + y1*z2 - z1*y2,
            w1*y2 - x1*z2 + y1*w2 + z1*x2,
            w1*z2 + x1*y2 - y1*x2 + z1*w2,
        ]))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with a single focal length (f_x = f_y = f)."""

    focal: float
    cx: float = 0.0
    cy: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.focal) and self.focal > 0):
            raise DomainError(f"focal length must be positive, got {self.focal}")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned 2D box, corners (x1, y1) upper-left and (x2, y2) lower-right."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise DomainError(f"degenerate bbox {(self.x1, self.y1, self.x2, self.y2)}")

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2)])

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.x2 - self.x1, self.y2 - self.y1))

    def as_list(self) -> list:
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass(frozen=True)
class ParamState:
    """The refined quantity: rotation, translation (m) and focal length (px)."""

    rotation: Rotation
    translation: np.ndarray
    focal: float

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise DomainError("translation must be a finite 3-vector")
        object.__setattr__(self, "translation", t)
        if not (np.isfinite(self.focal) and self.focal > 0):
            raise DomainError(f"focal length must be positive, got {self.focal}")

    def to_dict(self) -> dict:
        return {
            "quat_wxyz": self.rotation.quat.tolist(),
            "t_m": self.translation.tolist(),
            "focal_px": float(self.focal),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ParamState":
        return cls(Rotation(np.asarray(d["quat_wxyz"], dtype=float)),
                   np.asarray(d["t_m"], dtype=float),
                   float(d["focal_px"]))


class ModelPoints:
    """3D points sampled on an object model, in the object frame (meters)."""

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise DomainError("model points must be a non-empty (N, 3) array")
        if not np.all(np.isfinite(pts)):
            raise DomainError("model points contain non-finite coordinates")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_json(cls, path: str | Path) -> "ModelPoints":
        """Load from a JSON array of [x, y, z] triples."""
        with open(path) as fh:
            data = json.load(fh)
        return cls(np.asarray(data, dtype=float))

    @classmethod
    def from_obj(cls, path: str | Path) -> "ModelPoints":
        """Load the vertex (``v``) records of an OBJ file; all else is ignored."""
        verts = []
        with open(path) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 4 and parts[0] == "v":
                    verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
        if not verts:
            raise DomainError(f"no vertex records found in {path}")
        return cls(np.asarray(verts))

    def subsample(self, n: int, seed: int = 0) -> "ModelPoints":
        """Deterministic subsample of at most ``n`` points."""
        if len(self) <= n:
            return self
        idx = np.random.default_rng(seed).choice(len(self), size=n, replace=False)
        return ModelPoints(self.points[np.sort(idx)])


def project_points(intrinsics: CameraIntrinsics, rotation: Rotation,
                   translation: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Project points (N, 3) or (3,) through the pinhole model.

    Returns pixel coordinates of the same leading shape. Raises
    :class:`DepthError` naming the first point with non-positive depth.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    cam = pts @ rotation.as_matrix().T + np.asarray(translation, dtype=float)
    bad = np.nonzero(cam[:, 2] <= 0)[0]
    if bad.size:
        raise DepthError(f"point {bad[0]} has non-positive depth {cam[bad[0], 2]:.6g}")
    uv = intrinsics.focal * cam[:, :2] / cam[:, 2:3] + np.array([intrinsics.cx, intrinsics.cy])
    return uv[0] if single else uv


def project_point(intrinsics: CameraIntrinsics, rotation: Rotation,
                  translation: np.ndarray, point) -> np.ndarray:
    """Project a single 3D point; see :func:`project_points`."""
    return project_points(intrinsics, rotation, translation, np.asarray(point, dtype=float))


def rotation_from_6d(v1, v2) -> Rotation:
    """Build a rotation from two 3-vectors by Gram-Schmidt orthogonalization.

    Column 1 is normalize(v1), column 2 the orthogonalized v2, column 3 their
    cross product.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n1 = np.linalg.norm(v1)
    if n1 < _DEGENERATE_TOL:
        raise DegenerateInputError("first 6D vector is (numerically) zero")
    e1 = v1 / n1
    w = v2 - (v2 @ e1) * e1
    nw = np.linalg.norm(w)
    if nw < _DEGENERATE_TOL:
        raise DegenerateInputError("6D vectors are (numerically) parallel")
    e2 = w / nw
    e3 = cross3(e1, e2)
    return Rotation.from_matrix(np.column_stack([e1, e2, e3]))


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors, written out (np.cross is ~15x slower here)."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def geodesic_distance(ra: Rotation, rb: Rotation) -> float:
    """Geodesic angle between two rotations, in [0, pi].

    Computed from the relative quaternion; equivalent to
    ||log(Ra^T Rb)||_F / sqrt(2) but stable near pi.
    """
    q_rel = (ra.inverse() @ rb).quat
    return float(2.0 * np.arctan2(np.linalg.norm(q_rel[1:]), abs(q_rel[0])))


def bbox_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def compute_crop(bbox: BBox, projected_center, aspect: float,
                 enlargement: float = 1.4) -> tuple[float, float]:
    """Crop size (w, h) around the projected object center.

    ``aspect`` is the input-image aspect ratio, ``enlargement`` the factor
    controlling how much context around the detection box is kept (default
    1.4, following DeepIM).
    """
    if aspect <= 0 or enlargement <= 0:
        raise DomainError("aspect ratio and enlargement must be positive")
    xc, yc = np.asarray(projected_center, dtype=float)
    x_dist = max(abs(bbox.x1 - xc), abs(bbox.x2 - xc))
    y_dist = max(abs(bbox.y1 - yc), abs(bbox.y2 - yc))
    w = max(x_dist, y_dist / aspect) * 2.0 * enlargement
    h = max(x_dist / aspect, y_dist) * 2.0 * enlargement
    return w, h


def adjust_intrinsics_for_crop(intrinsics: CameraIntrinsics, crop_origin,
                               resize_factor: float) -> CameraIntrinsics:
    """Intrinsics after cropping at ``crop_origin`` then resizing by ``resize_factor``.

    Cropping only moves the principal point; resizing scales both the
    principal point and the focal length.
    """
    if resize_factor <= 0:
        raise DomainError("resize factor must be positive")
    ox, oy = np.asarray(crop_origin, dtype=float)
    return CameraIntrinsics(
        focal=intrinsics.focal * resize_factor,
        cx=(intrinsics.cx - ox) * resize_factor,
        cy=(intrinsics.cy - oy) * resize_factor,
    )


# ---------------------------------------------------------------------------
# Batched kernels: row i of each array belongs to pose i
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoseBatch:
    """N poses as arrays: unit quaternions (N, 4), translations (N, 3) in
    meters and focal lengths (N,) in pixels. Row i is one :class:`ParamState`."""

    quat: np.ndarray
    translation: np.ndarray
    focal: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.translation)):
            raise DomainError("translation must be a finite 3-vector")
        bad = ~(np.isfinite(self.focal) & (self.focal > 0))
        if bad.any():
            raise DomainError(f"focal length must be positive, got {self.focal[bad][0]}")

    @classmethod
    def from_states(cls, states) -> "PoseBatch":
        return cls(np.array([s.rotation.quat for s in states]),
                   np.array([s.translation for s in states]),
                   np.array([s.focal for s in states], dtype=float))

    def __len__(self) -> int:
        return len(self.focal)

    def take(self, rows) -> "PoseBatch":
        return PoseBatch(self.quat[rows], self.translation[rows], self.focal[rows])

    def state(self, i: int) -> ParamState:
        return ParamState(Rotation(self.quat[i]), self.translation[i], float(self.focal[i]))

    def to_dicts(self) -> list[dict]:
        """Every row as :meth:`ParamState.to_dict` writes it."""
        return [{"quat_wxyz": q, "t_m": t, "focal_px": f} for q, t, f in
                zip(self.quat.tolist(), self.translation.tolist(), self.focal.tolist())]


def quat_unit(q: np.ndarray) -> np.ndarray:
    """Quaternions (N, 4) scaled to unit norm."""
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Inverse rotations of unit quaternions (N, 4)."""
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise composition a @ b (b applied first) of quaternions (N, 4),
    normalized as :class:`Rotation` normalizes."""
    w1, x1, y1, z1 = a.T
    w2, x2, y2, z2 = b.T
    return quat_unit(np.stack([
        w1*w2 - x1*x2 - y1*y2 - z1*z2,
        w1*x2 + x1*w2 + y1*z2 - z1*y2,
        w1*y2 - x1*z2 + y1*w2 + z1*x2,
        w1*z2 + x1*y2 - y1*x2 + z1*w2,
    ], axis=1))


def quats_to_matrices(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (N, 3, 3) of unit quaternions (N, 4)."""
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2*y*y - 2*z*z, 2*x*y - 2*w*z, 2*x*z + 2*w*y], axis=1),
        np.stack([2*x*y + 2*w*z, 1 - 2*x*x - 2*z*z, 2*y*z - 2*w*x], axis=1),
        np.stack([2*x*z - 2*w*y, 2*y*z + 2*w*x, 1 - 2*x*x - 2*y*y], axis=1),
    ], axis=1)


def matrices_to_quats(m: np.ndarray) -> np.ndarray:
    """Unit quaternions (N, 4) of rotation matrices (N, 3, 3), by the same
    per-row pivot choice as :func:`_matrix_to_quat`."""
    m00, m11, m22 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    t = m00 + m11 + m22
    d21, d02, d10 = m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]
    s01, s02, s12 = m[:, 0, 1] + m[:, 1, 0], m[:, 0, 2] + m[:, 2, 0], m[:, 1, 2] + m[:, 2, 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # unselected pivots
        s = 0.5 / np.sqrt(t + 1.0)
        by_trace = np.stack([0.25 / s, d21 * s, d02 * s, d10 * s], axis=1)
        s = 2.0 * np.sqrt(1.0 + m00 - m11 - m22)
        by_x = np.stack([d21 / s, 0.25 * s, s01 / s, s02 / s], axis=1)
        s = 2.0 * np.sqrt(1.0 + m11 - m00 - m22)
        by_y = np.stack([d02 / s, s01 / s, 0.25 * s, s12 / s], axis=1)
        s = 2.0 * np.sqrt(1.0 + m22 - m00 - m11)
        by_z = np.stack([d10 / s, s02 / s, s12 / s, 0.25 * s], axis=1)
    pivot_x = (m00 > m11) & (m00 > m22)
    q = np.where((t > 0)[:, None], by_trace,
                 np.where(pivot_x[:, None], by_x,
                          np.where((m11 > m22)[:, None], by_y, by_z)))
    return quat_unit(q)


def quats_from_6d(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Row-wise :func:`rotation_from_6d` of vector pairs (N, 3), as unit
    quaternions (N, 4), with the same checks."""
    n1 = np.linalg.norm(v1, axis=1, keepdims=True)
    if np.any(n1 < _DEGENERATE_TOL):
        raise DegenerateInputError("first 6D vector is (numerically) zero")
    e1 = v1 / n1
    w = v2 - np.sum(v2 * e1, axis=1, keepdims=True) * e1
    nw = np.linalg.norm(w, axis=1, keepdims=True)
    if np.any(nw < _DEGENERATE_TOL):
        raise DegenerateInputError("6D vectors are (numerically) parallel")
    e2 = w / nw
    m = np.stack([e1, e2, np.cross(e1, e2)], axis=2)
    err = np.abs(m @ m.transpose(0, 2, 1) - np.eye(3)).max(axis=(1, 2))
    if not (np.all(err <= 1e-6) and np.all(np.linalg.det(m) >= 0)):
        raise DomainError("matrix is not a proper rotation")
    return matrices_to_quats(m)


def quats_from_axis_angle(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`Rotation.from_axis_angle` of axes (N, 3) and angles (N,)."""
    n = np.linalg.norm(axis, axis=1, keepdims=True)
    if np.any(n < _DEGENERATE_TOL):
        raise DegenerateInputError("rotation axis is a zero vector")
    half = 0.5 * angle
    return quat_unit(np.column_stack([np.cos(half), np.sin(half)[:, None] * (axis / n)]))


def quat_axis_angle(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes (N, 3) and angles (N,) in [0, pi] of unit quaternions (N, 4);
    the axis is (1, 0, 0) for a rotation by less than 1e-15."""
    w, vec = q[:, 0], q[:, 1:]
    norm = np.linalg.norm(vec, axis=1)
    small = norm < 1e-15
    sign = np.sign(np.where(w != 0, w, 1.0))
    axis = np.where(small[:, None], np.array([1.0, 0.0, 0.0]),
                    vec / np.where(small, 1.0, norm)[:, None] * sign[:, None])
    return axis, np.where(small, 0.0, 2.0 * np.arctan2(norm, np.abs(w)))


def camera_points(poses: PoseBatch, points: np.ndarray) -> np.ndarray:
    """Model points (P, 3) in each pose's camera frame, shape (N, P, 3)."""
    return (points @ quats_to_matrices(poses.quat).transpose(0, 2, 1)
            + poses.translation[:, None, :])


def image_boxes(cam: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Boxes (N, 4) as x1, y1, x2, y2 around the projections of camera-frame
    points (N, P, 3), each side at least 1e-9 px; a row is NaN where a point
    has non-positive depth."""
    behind = np.any(cam[..., 2] <= 0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = intrinsics.focal * cam[..., :2] / cam[..., 2:3] \
            + np.array([intrinsics.cx, intrinsics.cy])
    lo, hi = uv.min(axis=1), uv.max(axis=1)
    hi = np.where(hi - lo < 1e-9, lo + 1e-9, hi)
    boxes = np.concatenate([lo, hi], axis=1)
    boxes[behind] = np.nan
    return boxes
