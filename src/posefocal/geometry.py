"""Pinhole camera model, rotations, bounding boxes and the crop protocol.

Conventions: quaternions are (w, x, y, z), continuous pixel coordinates with
no half-pixel offset, focal length in pixels with f_x = f_y, translations in
meters. Angles are radians unless a name carries a ``_deg`` suffix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DepthError, DomainError, require

_DEGENERATE_TOL = 1e-12
_PARALLEL_RTOL = 1e-9  # |w| against |v2 . e1|; see gram_schmidt_6d


# The one-pose path computes on Python floats, which round as NumPy scalars do. Dot products
# stay NumPy ``dot`` (BLAS's summation order); exp, log, arcsin and hypot stay NumPy calls.

def _matrix_to_quat(m) -> np.ndarray:
    # Shepperd's method on the rows of m: pick the numerically largest pivot.
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    t = m00 + m11 + m22
    if t > 0:
        s = 0.5 / math.sqrt(t + 1.0)
        q = [0.25 / s, (m21 - m12) * s, (m02 - m20) * s, (m10 - m01) * s]
    elif m00 > m11 and m00 > m22:
        s = 2.0 * math.sqrt(1.0 + m00 - m11 - m22)
        q = [(m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s]
    elif m11 > m22:
        s = 2.0 * math.sqrt(1.0 + m11 - m00 - m22)
        q = [(m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s]
    else:
        s = 2.0 * math.sqrt(1.0 + m22 - m00 - m11)
        q = [(m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s]
    q = np.array(q)
    return q / math.sqrt(q.dot(q))


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
        n = math.sqrt(q.dot(q))
        if not _DEGENERATE_TOL <= n < math.inf:
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
        return cls(_matrix_to_quat(m.tolist()))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        axis = np.asarray(axis, dtype=float)
        n = np.linalg.norm(axis)
        if n < _DEGENERATE_TOL:
            raise DegenerateInputError("rotation axis is a zero vector")
        half = 0.5 * angle
        return cls(np.concatenate([[np.cos(half)], np.sin(half) * (axis / n)]))

    def as_matrix(self) -> np.ndarray:
        w, x, y, z = self.quat.tolist()
        return np.array((
            (1 - 2*y*y - 2*z*z, 2*x*y - 2*w*z, 2*x*z + 2*w*y),
            (2*x*y + 2*w*z, 1 - 2*x*x - 2*z*z, 2*y*z - 2*w*x),
            (2*x*z - 2*w*y, 2*y*z + 2*w*x, 1 - 2*x*x - 2*y*y),
        ))

    def inverse(self) -> "Rotation":
        w, x, y, z = self.quat.tolist()
        return Rotation([w, -x, -y, -z])

    def __matmul__(self, other: "Rotation") -> "Rotation":
        """Composition: (self @ other) applies ``other`` first."""
        w1, x1, y1, z1 = self.quat.tolist()
        w2, x2, y2, z2 = other.quat.tolist()
        return Rotation([
            w1*w2 - x1*x2 - y1*y2 - z1*z2,
            w1*x2 + x1*w2 + y1*z2 - z1*y2,
            w1*y2 - x1*z2 + y1*w2 + z1*x2,
            w1*z2 + x1*y2 - y1*x2 + z1*w2,
        ])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with a single focal length (f_x = f_y = f)."""

    focal: float
    cx: float = 0.0
    cy: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.focal) and self.focal > 0):
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

    def as_list(self) -> list:
        return [self.x1, self.y1, self.x2, self.y2]


def check_boxes(box: np.ndarray, given=True) -> np.ndarray:
    """Boxes (N, 4), checked as BBox checks its corners in the rows ``given``: a ValueError
    where one is not a box."""
    require((box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3]) | np.logical_not(given))
    return box


@dataclass(frozen=True)
class ParamState:
    """The refined quantity: rotation, translation (m) and focal length (px)."""

    rotation: Rotation
    translation: np.ndarray
    focal: float

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,) or not all(map(math.isfinite, t.tolist())):
            raise DomainError("translation must be a finite 3-vector")
        object.__setattr__(self, "translation", t)
        if not (math.isfinite(self.focal) and self.focal > 0):
            raise DomainError(f"focal length must be positive, got {self.focal}")

    def to_dict(self) -> dict:
        return {
            "quat_wxyz": self.rotation.quat.tolist(),
            "t_m": self.translation.tolist(),
            "focal_px": float(self.focal),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ParamState":
        return cls(Rotation(d["quat_wxyz"]), d["t_m"], float(d["focal_px"]))


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
        """Load from a UTF-8 JSON array of [x, y, z] triples."""
        return cls(np.asarray(json.loads(Path(path).read_text("utf-8")), dtype=float))


def project_points(intrinsics: CameraIntrinsics, rotation: Rotation,
                   translation: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Project points (N, 3) or (3,) through the pinhole model.

    Returns pixel coordinates of the same leading shape. Raises
    :class:`DepthError` naming the first point with non-positive depth.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        return project_point(intrinsics, rotation, translation, pts)
    cam = pts @ rotation.as_matrix().T + np.asarray(translation, dtype=float)
    bad = np.nonzero(cam[:, 2] <= 0)[0]
    if bad.size:
        raise DepthError(f"point {bad[0]} has non-positive depth {cam[bad[0], 2]:.6g}")
    return intrinsics.focal * cam[:, :2] / cam[:, 2:3] + np.array([intrinsics.cx, intrinsics.cy])


def project_point(intrinsics: CameraIntrinsics, rotation: Rotation,
                  translation: np.ndarray, point) -> np.ndarray:
    """Project a single 3D point; see :func:`project_points`."""
    x, y, z = (rotation.as_matrix().dot(np.asarray(point, dtype=float)) + translation).tolist()
    if z <= 0:
        raise DepthError(f"point 0 has non-positive depth {z:.6g}")
    f = intrinsics.focal
    return np.array([f * x / z + intrinsics.cx, f * y / z + intrinsics.cy])


def rotation_from_6d(v1, v2) -> Rotation:
    """Build a rotation from two 3-vectors by Gram-Schmidt orthogonalization.

    Column 1 is normalize(v1), column 2 the orthogonalized v2, column 3 their
    cross product: orthonormal by construction, so no orthogonality check runs.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n1 = math.sqrt(v1.dot(v1))
    if n1 < _DEGENERATE_TOL:
        raise DegenerateInputError("first 6D vector is (numerically) zero")
    e1 = v1 / n1
    c = v2.dot(e1)
    w = v2 - c * e1
    nw = math.sqrt(w.dot(w))
    if not (math.isfinite(n1) and math.isfinite(nw)):
        raise DomainError("6D vector norm is not finite")
    if nw < _DEGENERATE_TOL or nw < _PARALLEL_RTOL * abs(c):
        raise DegenerateInputError("6D vectors are (numerically) parallel")
    (a0, a1, a2), (b0, b1, b2) = e1.tolist(), (w / nw).tolist()
    return Rotation(_matrix_to_quat(((a0, b0, a1 * b2 - a2 * b1),
                                     (a1, b1, a2 * b0 - a0 * b2),
                                     (a2, b2, a0 * b1 - a1 * b0))))


def geodesic_distance(ra: Rotation, rb: Rotation) -> float:
    """Geodesic angle between two rotations, in [0, pi].

    Computed from the relative quaternion; equivalent to
    ||log(Ra^T Rb)||_F / sqrt(2) but stable near pi.
    """
    q_rel = (ra.inverse() @ rb).quat
    return float(2.0 * np.arctan2(np.linalg.norm(q_rel[1:]), abs(q_rel[0])))


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
        if not np.isfinite(self.quat).all():
            raise DomainError("quaternions must be finite")
        if not np.isfinite(self.translation).all():
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


def pose_columns(quat, translation, focal) -> tuple:
    """The poses ParamState.from_dict reads, as PoseBatch columns, from the float columns
    (N, 4), (N, 3) and (N,) of its fields: a ValueError where a row is not a PoseBatch's or
    a quaternion's norm is not in [1e-12, inf), rows normalized as Rotation does, bit for bit."""
    norm = np.sqrt(row_dot(quat, quat))
    require((_DEGENERATE_TOL <= norm) & (norm < np.inf))
    poses = PoseBatch(quat / norm[:, None], translation, focal)
    return poses.quat, poses.translation, poses.focal


def quat_unit(q: np.ndarray) -> np.ndarray:
    """Quaternions (N, 4) scaled to unit norm, by ``np.linalg.norm``'s own formula."""
    return q / np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Inverse rotations of unit quaternions (N, 4)."""
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products; matmul rounds as the one-row ``a @ b`` does."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b of (N, 3) arrays, summed left to right as ``np.sum(a * b,
    axis=1)`` sums them; ``sqrt(dot3(a, a))`` is ``np.linalg.norm(a, axis=1)``."""
    p = a * b
    return (p[:, 0] + p[:, 1]) + p[:, 2]


def _quat_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton product a b of quaternions (N, 4), not normalized."""
    w1, x1, y1, z1 = a.T
    w2, x2, y2, z2 = b.T
    out = np.empty((max(len(a), len(b)), 4))
    np.subtract(w1*w2 - x1*x2 - y1*y2, z1*z2, out=out[:, 0])
    np.subtract(w1*x2 + x1*w2 + y1*z2, z1*y2, out=out[:, 1])
    np.add(w1*y2 - x1*z2 + y1*w2, z1*x2, out=out[:, 2])
    np.add(w1*z2 + x1*y2 - y1*x2, z1*w2, out=out[:, 3])
    return out


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise composition a @ b (b applied first), scaled to unit norm."""
    return quat_unit(_quat_product(a, b))


def relative_quats(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Row-wise ``(Rotation(qa).inverse() @ Rotation(qb)).quat`` of unit quaternions
    (N, 4), bit for bit: each norm is ``sqrt(q.q)``, as in :class:`Rotation`."""
    inv = quat_conj(qa)
    rel = _quat_product(inv / np.sqrt(row_dot(inv, inv))[:, None], qb)
    return rel / np.sqrt(row_dot(rel, rel))[:, None]


def geodesic_angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Row-wise :func:`geodesic_distance` between unit quaternions (N, 4), bit for bit."""
    rel = relative_quats(qa, qb)
    return 2.0 * np.arctan2(np.sqrt(row_dot(rel[:, 1:], rel[:, 1:])), np.abs(rel[:, 0]))


def quats_to_matrices(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (N, 3, 3) of unit quaternions (N, 4), each entry
    rounded as :meth:`Rotation.as_matrix` rounds it."""
    # the products (2 a) b of as_matrix: yy, xx, xx, zz, zz, yy, xy, xz, yz, wz, wy, wx
    p = (2 * q)[:, [2, 1, 1, 3, 3, 2, 1, 1, 2, 0, 0, 0]] \
        * q[:, [2, 1, 1, 3, 3, 2, 2, 3, 3, 3, 2, 1]]
    m = np.empty((len(q), 9))
    np.subtract(1 - p[:, :3], p[:, 3:6], out=m[:, ::4])
    m[:, [3, 2, 7]] = p[:, 6:9] + p[:, 9:]
    m[:, [1, 6, 5]] = p[:, 6:9] - p[:, 9:]
    return m.reshape(-1, 3, 3)


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


def gram_schmidt_6d(v1: np.ndarray, v2: np.ndarray) -> tuple:
    """Row-wise Gram-Schmidt of vector pairs (N, 3): the matrices (N, 3, 3) with
    columns e1 = v1 / n1, e2 = w / nw and e1 x e2, and the terms n1 = |v1|,
    c = v2 . e1 and nw = |w| of w = v2 - c e1, each (N, 1).

    The 6D decoders' domain rule: a (numerically) zero first vector, or a pair
    that is (numerically) parallel, nw < 1e-12 or nw < 1e-9 |c|, raises
    :class:`DegenerateInputError`; a non-finite norm raises :class:`DomainError`.
    """
    n1 = np.sqrt(dot3(v1, v1))[:, None]
    if np.any(n1 < _DEGENERATE_TOL):
        raise DegenerateInputError("first 6D vector is (numerically) zero")
    m = np.empty((len(v1), 3, 3))
    e1 = np.divide(v1, n1, out=m[:, :, 0])
    c = dot3(v2, e1)[:, None]
    w = v2 - c * e1
    nw = np.sqrt(dot3(w, w))[:, None]
    if not (np.all(np.isfinite(n1)) and np.all(np.isfinite(nw))):
        raise DomainError("6D vector norm is not finite")
    if np.any((nw < _DEGENERATE_TOL) | (nw < _PARALLEL_RTOL * np.abs(c))):
        raise DegenerateInputError("6D vectors are (numerically) parallel")
    np.divide(w, nw, out=m[:, :, 1])
    r1, r2 = m[:, [1, 2, 0], :2], m[:, [2, 0, 1], :2]  # as np.cross rounds it
    np.subtract(r1[..., 0] * r2[..., 1], r2[..., 0] * r1[..., 1], out=m[:, :, 2])
    return m, n1, c, nw


def quats_from_6d(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Row-wise :func:`rotation_from_6d` of vector pairs (N, 3), as unit
    quaternions (N, 4), with the same checks."""
    return matrices_to_quats(gram_schmidt_6d(v1, v2)[0])


def quats_from_axis_angle(axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`Rotation.from_axis_angle` of axes (N, 3) and angles (N,)."""
    n = np.sqrt(dot3(axis, axis))[:, None]
    if (n < _DEGENERATE_TOL).any():
        raise DegenerateInputError("rotation axis is a zero vector")
    half = 0.5 * angle
    return quat_unit(np.concatenate([np.cos(half)[:, None], np.sin(half)[:, None] * (axis / n)],
                                    axis=1))


def quat_axis_angle(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes (N, 3) and angles (N,) in [0, pi] of unit quaternions (N, 4);
    the axis is (1, 0, 0) for a rotation by less than 1e-15."""
    w, vec = q[:, 0], q[:, 1:]
    norm = np.sqrt(dot3(vec, vec))
    angle, small = 2.0 * np.arctan2(norm, np.abs(w)), norm < 1e-15
    norm[small] = 1.0  # rows set below; v / (|v| s) is v / |v| * s, bit for bit, for s = +-1
    axis = vec / (norm * np.sign(np.where(w != 0, w, 1.0)))[:, None]
    axis[small], angle[small] = (1.0, 0.0, 0.0), 0.0
    return axis, angle


def camera_points(poses: PoseBatch, points: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Model points, one cloud (P, 3) for every pose or one (N, P, 3) per pose, in each
    pose's camera frame, shape (N, P, 3), laid out (3, N, P) in memory, in ``out`` if given:
    each coordinate is one contiguous (N, P) block, one NumPy inner loop, not N strided rows."""
    out = np.empty((3, len(poses), points.shape[-2])) if out is None else out
    np.matmul(quats_to_matrices(poses.quat), points.swapaxes(-1, -2), out=out.transpose(1, 0, 2))
    out += poses.translation.T[:, :, None]  # plane by plane, faster than over the (N, P, 3) view
    return out.transpose(1, 2, 0)


def image_boxes(cam: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Boxes (N, 4) as x1, y1, x2, y2 around the projections of camera-frame
    points (N, P, 3), each side at least 1e-9 px; a row is NaN where a point
    has non-positive depth."""
    behind = (cam[..., 2] <= 0).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = intrinsics.focal * cam[..., :2] / cam[..., 2:3] + (intrinsics.cx, intrinsics.cy)
    lo, hi = uv.min(axis=1), uv.max(axis=1)
    boxes = np.concatenate([lo, np.where(hi - lo < 1e-9, lo + 1e-9, hi)], axis=1)
    boxes[behind] = np.nan
    return boxes
