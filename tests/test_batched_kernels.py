"""The campaign's batched kernels round exactly as the NumPy formulas they
replaced: each reference below is that formula (np.linalg.norm, np.sum,
np.cross, np.stack and (N, P, 3) temporaries), kept here, and every
comparison is bit for bit, NaN for NaN."""

import itertools

import numpy as np
import pytest

from posefocal.geometry import (CameraIntrinsics, PoseBatch, camera_points, dot3,
                                image_boxes, quat_axis_angle, quat_conj, quat_multiply,
                                quat_unit, quats_from_6d, quats_from_axis_angle,
                                quats_to_matrices, relative_quats, row_dot)
from posefocal.metrics import HISTOGRAM_EDGES, METRIC_FIELDS, GroundTruth, aggregate
from posefocal.update_rules import translation_update_batch

INTR = CameraIntrinsics(600.0, 4.0, -2.0)


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


# ---------------------------------------------------------------------------
# Reference formulas
# ---------------------------------------------------------------------------

def ref_quats_to_matrices(q):
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2*y*y - 2*z*z, 2*x*y - 2*w*z, 2*x*z + 2*w*y], axis=1),
        np.stack([2*x*y + 2*w*z, 1 - 2*x*x - 2*z*z, 2*y*z - 2*w*x], axis=1),
        np.stack([2*x*z - 2*w*y, 2*y*z + 2*w*x, 1 - 2*x*x - 2*y*y], axis=1),
    ], axis=1)


def ref_matrices_to_quats(m):
    m00, m11, m22 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    t = m00 + m11 + m22
    d21, d02, d10 = m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]
    s01, s02, s12 = m[:, 0, 1] + m[:, 1, 0], m[:, 0, 2] + m[:, 2, 0], m[:, 1, 2] + m[:, 2, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 0.5 / np.sqrt(t + 1.0)
        by_trace = np.stack([0.25 / s, d21 * s, d02 * s, d10 * s], axis=1)
        s = 2.0 * np.sqrt(1.0 + m00 - m11 - m22)
        by_x = np.stack([d21 / s, 0.25 * s, s01 / s, s02 / s], axis=1)
        s = 2.0 * np.sqrt(1.0 + m11 - m00 - m22)
        by_y = np.stack([d02 / s, s01 / s, 0.25 * s, s12 / s], axis=1)
        s = 2.0 * np.sqrt(1.0 + m22 - m00 - m11)
        by_z = np.stack([d10 / s, s02 / s, s12 / s, 0.25 * s], axis=1)
    q = np.where((t > 0)[:, None], by_trace,
                 np.where(((m00 > m11) & (m00 > m22))[:, None], by_x,
                          np.where((m11 > m22)[:, None], by_y, by_z)))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def ref_pivots(m):
    """Which Shepperd branch each row of ``ref_matrices_to_quats`` takes."""
    m00, m11, m22 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    return np.where(m00 + m11 + m22 > 0, 0,
                    np.where((m00 > m11) & (m00 > m22), 1, np.where(m11 > m22, 2, 3)))


def ref_quats_from_6d(v1, v2):
    n1 = np.linalg.norm(v1, axis=1, keepdims=True)
    e1 = v1 / n1
    c = np.sum(v2 * e1, axis=1, keepdims=True)
    w = v2 - c * e1
    e2 = w / np.linalg.norm(w, axis=1, keepdims=True)
    return ref_matrices_to_quats(np.stack([e1, e2, np.cross(e1, e2)], axis=2))


def ref_camera_points(poses, points):
    return (points @ ref_quats_to_matrices(poses.quat).transpose(0, 2, 1)
            + poses.translation[:, None, :])


def ref_row_norms(a):
    """Each row's norm as one pose's is rounded: np.linalg.norm of a 1-D row, sqrt(r.r)."""
    return np.array([np.linalg.norm(r) for r in a])


def ref_relative_quats(qa, qb):
    """Each row's qa^-1 qb as ``Rotation.inverse() @`` rounds it, unit norms by rows."""
    inv = quat_conj(qa)
    w1, x1, y1, z1 = (inv / ref_row_norms(inv)[:, None]).T
    w2, x2, y2, z2 = qb.T
    q = np.stack([w1*w2 - x1*x2 - y1*y2 - z1*z2, w1*x2 + x1*w2 + y1*z2 - z1*y2,
                  w1*y2 - x1*z2 + y1*w2 + z1*x2, w1*z2 + x1*y2 - y1*x2 + z1*w2], axis=1)
    return q / ref_row_norms(q)[:, None]


def ref_score(pred, gt, points, box_gt, img_diag, intrinsics, iou):
    """``GroundTruth.score`` as first written, ground-truth half included, but for
    its vector norms, which are rounded as the one-pose metrics round them."""
    t_norm = ref_row_norms(gt.translation)
    cam_hat = ref_camera_points(gt, points)
    uv_hat = gt.focal[:, None, None] * cam_hat[..., :2] / cam_hat[..., 2:3]
    diag = np.hypot(box_gt[:, 2] - box_gt[:, 0], box_gt[:, 3] - box_gt[:, 1])
    area_gt = (box_gt[:, 2] - box_gt[:, 0]) * (box_gt[:, 3] - box_gt[:, 1])
    cam = ref_camera_points(pred, points)
    behind = np.any(cam[..., 2] <= 0, axis=1)
    avg = np.linalg.norm(cam - cam_hat, axis=2).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = pred.focal[:, None, None] * cam[..., :2] / cam[..., 2:3]
        e_proj = np.linalg.norm(uv - uv_hat, axis=2).mean(axis=1) / diag
    e_proj[behind] = np.inf
    out = {
        "e_rot": 2.0 * np.arcsin(np.minimum(1.0, ref_row_norms(
            ref_relative_quats(pred.quat, gt.quat)[:, 1:]))),
        "e_trans": ref_row_norms(pred.translation - gt.translation) / t_norm,
        "e_pose": diag / img_diag * avg / t_norm,
        "e_focal": np.abs(gt.focal - pred.focal) / gt.focal,
        "e_proj": e_proj,
    }
    if iou:
        box = image_boxes(cam, intrinsics)
        iw = np.minimum(box_gt[:, 2], box[:, 2]) - np.maximum(box_gt[:, 0], box[:, 0])
        ih = np.minimum(box_gt[:, 3], box[:, 3]) - np.maximum(box_gt[:, 1], box[:, 1])
        inter = iw * ih
        area = (box[:, 2] - box[:, 0]) * (box[:, 3] - box[:, 1])
        with np.errstate(invalid="ignore"):
            out["iou"] = np.where((iw > 0) & (ih > 0), inter / (area_gt + area - inter), 0.0)
        out["iou"][behind] = np.nan
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def random_quats(rng, n, pivot=None):
    """Unit quaternions; ``pivot`` 0-3 makes w, x, y or z the dominant part,
    which puts the rotation on that Shepperd branch."""
    q = rng.standard_normal((n, 4))
    if pivot is not None:
        q[:, pivot] = np.sign(q[:, pivot]) * (np.abs(q[:, pivot]) + 10.0)
    return quat_unit(q)


def random_poses(rng, n, behind=0):
    t = np.column_stack([rng.uniform(-0.4, 0.4, (n, 2)), rng.uniform(0.6, 3.0, n)])
    t[:behind, 2] = rng.uniform(-0.5, 0.08, behind)  # some points behind the camera
    return PoseBatch(random_quats(rng, n), t, rng.uniform(200.0, 1000.0, n))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestRotationKernels:
    @pytest.mark.parametrize("pivot", [0, 1, 2, 3])
    def test_quats_from_6d_on_each_pivot(self, pivot):
        rng = np.random.default_rng(10 + pivot)
        m = ref_quats_to_matrices(random_quats(rng, 3000, pivot))
        m = m[ref_pivots(m) == pivot]
        assert len(m) > 2500
        scale = rng.uniform(0.01, 100.0, (len(m), 1))
        v1 = m[:, :, 0] * scale + 1e-4 * rng.standard_normal((len(m), 3))
        v2 = m[:, :, 1] * scale[::-1] + 1e-4 * rng.standard_normal((len(m), 3))
        assert same(quats_from_6d(v1, v2), ref_quats_from_6d(v1, v2))

    def test_quats_from_6d_on_near_parallel_pairs(self):
        rng = np.random.default_rng(3)
        v1 = rng.standard_normal((4000, 3))
        perp = np.cross(v1, rng.standard_normal((4000, 3)))
        perp *= np.linalg.norm(v1, axis=1, keepdims=True) / np.linalg.norm(perp, axis=1,
                                                                           keepdims=True)
        sin = 10.0 ** rng.uniform(-8.0, -3.0, (4000, 1))  # above the 1e-9 rule
        v2 = v1 * rng.choice([-1.0, 1.0], (4000, 1)) * rng.uniform(0.5, 5.0, (4000, 1)) \
            + sin * perp
        assert same(quats_from_6d(v1, v2), ref_quats_from_6d(v1, v2))

    def test_quats_to_matrices(self):
        rng = np.random.default_rng(4)
        q = np.concatenate([random_quats(rng, 1000, p) for p in (None, 0, 1, 2, 3)])
        q[::7, 0] = 0.0  # exact half turns
        assert same(quats_to_matrices(q), ref_quats_to_matrices(q))

    def test_axis_angle_kernels(self):
        rng = np.random.default_rng(5)
        axis = rng.standard_normal((3000, 3)) * 10.0 ** rng.uniform(-6, 6, (3000, 1))
        angle = rng.uniform(-4.0, 4.0, 3000)
        n = np.linalg.norm(axis, axis=1, keepdims=True)
        want = quat_unit(np.column_stack([np.cos(0.5 * angle),
                                          np.sin(0.5 * angle)[:, None] * (axis / n)]))
        assert same(quats_from_axis_angle(axis, angle), want)
        assert same(quat_axis_angle(want)[1], np.where(
            np.linalg.norm(want[:, 1:], axis=1) < 1e-15, 0.0,
            2.0 * np.arctan2(np.linalg.norm(want[:, 1:], axis=1), np.abs(want[:, 0]))))
        assert same(np.sqrt(dot3(axis, axis)), np.linalg.norm(axis, axis=1))


def component_major(cam):
    """Whether each coordinate cam[..., c] of a cloud (N, P, k) is one C-contiguous block."""
    return all(cam[..., c].flags.c_contiguous for c in range(cam.shape[-1]))


def odd_layouts(cloud):
    """The same values as ``cloud`` in three memory layouts that matmul reads by strides:
    Fortran order, reversed (negative) strides and a view sliced out of a larger array."""
    wide = np.zeros((*cloud.shape[:-1], 5))
    wide[..., 1:4] = cloud
    return {"fortran": np.asfortranarray(cloud), "reversed": cloud[..., ::-1].copy()[..., ::-1],
            "sliced": wide[..., 1:4]}


class TestCameraPoints:
    @pytest.mark.parametrize("n, p", [(1, 1), (7, 100), (120, 100), (33, 257)])
    def test_matches_reference(self, n, p):
        rng = np.random.default_rng(n * p)
        poses = random_poses(rng, n)
        points = rng.uniform(-0.3, 0.3, (p, 3))
        want = ref_camera_points(poses, points)
        assert same(got := camera_points(poses, points), want) and component_major(got)
        buf = np.full((3, n, p), np.nan)
        got = camera_points(poses, points, buf)
        assert same(got, want) and np.shares_memory(got, buf) and component_major(got)
        # one cloud per pose: the shared cloud repeated, and n clouds of their own
        assert same(camera_points(poses, np.broadcast_to(points, (n, p, 3))), want)
        clouds = rng.uniform(-0.3, 0.3, (n, p, 3))
        want = np.concatenate([ref_camera_points(poses.take([i]), c)
                               for i, c in enumerate(clouds)])
        assert same(got := camera_points(poses, clouds), want) and component_major(got)
        got = camera_points(poses, clouds, buf)
        assert same(got, want) and np.shares_memory(got, buf) and component_major(got)

    @pytest.mark.parametrize("n, p", [(1, 1), (7, 100), (120, 100)])
    def test_odd_layouts_keep_their_bits(self, n, p):
        rng = np.random.default_rng(3 * n + p)
        poses = random_poses(rng, n)
        points, clouds = rng.uniform(-0.3, 0.3, (p, 3)), rng.uniform(-0.3, 0.3, (n, p, 3))
        want_shared = ref_camera_points(poses, points)
        want_rows = np.concatenate([ref_camera_points(poses.take([i]), c)
                                    for i, c in enumerate(clouds)])
        for cloud, want in ((points, want_shared), (clouds, want_rows)):
            for layout, odd in odd_layouts(cloud).items():
                assert same(odd, cloud) and (p == 1 or not odd.flags.c_contiguous), layout
                got = camera_points(poses, odd)
                assert same(got, want) and component_major(got), layout


class TestGroundTruthScore:
    @pytest.mark.parametrize("n, p, behind", [(1, 5, 0), (1, 5, 1), (60, 100, 9),
                                              (120, 100, 20), (25, 333, 25)])
    def test_matches_reference(self, n, p, behind):
        rng = np.random.default_rng(7 * n + p)
        points = rng.uniform(-0.1, 0.1, (p, 3))
        gt = random_poses(rng, n)
        cam_hat = ref_camera_points(gt, points)
        box_gt = image_boxes(cam_hat, INTR)
        truth = GroundTruth(gt, points, box_gt, 800.0)
        assert truth.uv_hat.shape == (n, p, 2) and component_major(truth.uv_hat)
        assert same(truth.uv_hat, gt.focal[:, None, None] * cam_hat[..., :2] / cam_hat[..., 2:3])
        for step in range(3):  # the buffers are reused across calls
            pred = random_poses(rng, n, behind=behind if step != 1 else 0)
            for iou in (True, False):
                got = truth.score(pred, INTR if iou else None)
                want = ref_score(pred, gt, points, box_gt, 800.0, INTR, iou)
                assert got.keys() == want.keys()
                for key in want:
                    assert same(got[key], want[key]), (step, iou, key)
            if behind and step != 1:  # the case covers rows behind the camera
                assert np.isinf(got["e_proj"][:behind]).any()


# ---------------------------------------------------------------------------
# The kernels against their former forms, kept here verbatim: every element is
# made by the same operations in the same order, so the bits agree, signed zeros
# and results that overflow or underflow included
# ---------------------------------------------------------------------------

def bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def former_quat_unit(q):
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def former_quat_product(a, b):
    w1, x1, y1, z1 = a.T
    w2, x2, y2, z2 = b.T
    return np.stack([
        w1*w2 - x1*x2 - y1*y2 - z1*z2,
        w1*x2 + x1*w2 + y1*z2 - z1*y2,
        w1*y2 - x1*z2 + y1*w2 + z1*x2,
        w1*z2 + x1*y2 - y1*x2 + z1*w2,
    ], axis=1)


def former_relative_quats(qa, qb):
    inv = qa * np.array([1.0, -1.0, -1.0, -1.0])
    rel = former_quat_product(inv / np.sqrt(row_dot(inv, inv))[:, None], qb)
    return rel / np.sqrt(row_dot(rel, rel))[:, None]


def former_quats_from_axis_angle(axis, angle):
    n = np.sqrt(dot3(axis, axis))[:, None]
    half = 0.5 * angle
    return former_quat_unit(np.column_stack([np.cos(half), np.sin(half)[:, None] * (axis / n)]))


def former_quat_axis_angle(q):
    w, vec = q[:, 0], q[:, 1:]
    norm = np.sqrt(dot3(vec, vec))
    small = norm < 1e-15
    sign = np.sign(np.where(w != 0, w, 1.0))
    axis = np.where(small[:, None], np.array([1.0, 0.0, 0.0]),
                    vec / np.where(small, 1.0, norm)[:, None] * sign[:, None])
    return axis, np.where(small, 0.0, 2.0 * np.arctan2(norm, np.abs(w)))


def former_translation_update_batch(translation, f, vx, vy, vz, f_new, legacy=False):
    x, y, z = translation.T
    z_new = vz * z
    x_new = (vx + f * x / z) * z_new / f_new
    y_new = (vy + f * y / z) * z_new / f_new
    if legacy is not False:
        x_new = np.where(legacy, (vx / f_new + x / z) * z_new, x_new)
        y_new = np.where(legacy, (vy / f_new + y / z) * z_new, y_new)
    return np.column_stack(np.broadcast_arrays(x_new, y_new, z_new))


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160, 1e160, 1e300, -1e300]


def quat_corpus(rng):
    """Unit quaternions of every pivot, rows with w = +-0, rows whose vector part is
    below 1e-15 (zero with either sign, subnormal, 1e-16), and unnormalized rows of
    extreme or zero magnitude, whose norms overflow or underflow."""
    q = np.concatenate([random_quats(rng, 400, p) for p in (None, 0, 1, 2, 3)])
    q[:100:3, 0] = 0.0
    q[1:100:3, 0] = -0.0
    tiny = [[1.0, 0.0, 0.0, 0.0], [-1.0, -0.0, 0.0, -0.0], [1.0, 1e-16, 0.0, 0.0],
            [-1.0, 0.0, 5e-324, 0.0], [0.0, 1e-16, -1e-16, 0.0], [-0.0, 0.0, 0.0, 0.0],
            [1.0, 3e-16, -4e-16, 5e-16], [1.0, 1e-15, 0.0, 0.0]]
    extreme = rng.choice(EXTREMES, (200, 4))
    return np.concatenate([q, tiny, extreme, rng.standard_normal((50, 4)) * 1e200])


class TestFormerForms:
    def test_quat_unit_and_products(self):
        rng = np.random.default_rng(11)
        a, b = quat_corpus(rng), quat_corpus(rng)[::-1]
        with np.errstate(all="ignore"):
            assert bits(quat_unit(a)) == bits(former_quat_unit(a))
            assert bits(quat_multiply(a, b)) == bits(former_quat_unit(former_quat_product(a, b)))
            assert bits(relative_quats(a, b)) == bits(former_relative_quats(a, b))
            # one row against N, either way round
            assert bits(quat_multiply(a[:1], b)) == \
                bits(former_quat_unit(former_quat_product(a[:1], b)))
            assert bits(quat_multiply(a, b[:1])) == \
                bits(former_quat_unit(former_quat_product(a, b[:1])))
        unit = random_quats(rng, 120)  # no warning on unit rows
        assert bits(quat_multiply(unit, unit[::-1])) == \
            bits(former_quat_unit(former_quat_product(unit, unit[::-1])))

    def test_quats_from_axis_angle(self):
        rng = np.random.default_rng(12)
        axis = rng.standard_normal((3000, 3)) * 10.0 ** rng.uniform(-6, 6, (3000, 1))
        axis[::5, 1] = -0.0
        angle = rng.uniform(-4.0, 4.0, 3000)
        angle[:4] = 0.0, -0.0, np.pi, -2 * np.pi
        assert bits(quats_from_axis_angle(axis, angle)) == \
            bits(former_quats_from_axis_angle(axis, angle))
        axis = rng.choice([1e-12, -1e-10, 1e150, -1e200, 1e300, 3.0], (500, 3))
        angle = rng.choice([0.0, -0.0, 1e-300, 5e-324, 1e300, 7.0], 500)
        with np.errstate(all="ignore"):
            assert bits(quats_from_axis_angle(axis, angle)) == \
                bits(former_quats_from_axis_angle(axis, angle))

    def test_quat_axis_angle(self):
        q = quat_corpus(np.random.default_rng(13))
        with np.errstate(all="ignore"):
            small = np.sqrt(dot3(q[:, 1:], q[:, 1:])) < 1e-15
            got, want = quat_axis_angle(q), former_quat_axis_angle(q)
        assert small.sum() > 7 and (q[:, 0] == 0).sum() > 60  # the cases are reached
        assert bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])
        unit = q[:2000]  # none of it warns
        for got, want in zip(quat_axis_angle(unit), former_quat_axis_angle(unit)):
            assert bits(got) == bits(want)

    @pytest.mark.parametrize("k", [1, 6, 120])
    def test_translation_update_batch(self, k):
        """A (1, 3) or (K, 3) translation, each component a scalar or a (K,) array, and
        legacy False, all True or a mixed mask, with signed zeros and extreme values."""
        rng = np.random.default_rng(k)
        t = np.column_stack([rng.uniform(-0.5, 0.5, (k, 2)), rng.uniform(0.3, 3.0, k)])
        t[::2, 0] = -0.0
        parts = {"f": rng.uniform(200.0, 1000.0, k), "vx": rng.normal(0.0, 50.0, k),
                 "vy": rng.normal(0.0, 50.0, k), "vz": np.exp(rng.normal(0.0, 0.3, k)),
                 "f_new": rng.uniform(200.0, 1000.0, k)}
        parts["vx"][::3] = -0.0
        masks = (False, True, np.ones(k, bool), np.arange(k) % 2 == 0)
        for translation in (t, t[:1]):
            for scalar in itertools.product((False, True), repeat=len(parts)):
                args = [float(v[0]) if s else v for s, v in zip(scalar, parts.values())]
                for legacy in masks:
                    got = translation_update_batch(translation, *args, legacy=legacy)
                    want = former_translation_update_batch(translation, *args, legacy=legacy)
                    assert bits(got) == bits(want), (len(translation), scalar, legacy)
        extreme = [rng.choice(EXTREMES, k) for _ in parts]
        extreme[0], extreme[4] = np.abs(extreme[0]) + 1e-300, np.abs(extreme[4]) + 1e-300
        t = np.column_stack([rng.choice(EXTREMES, (k, 2)), rng.choice([1e-300, 1e300, 2.0], k)])
        with np.errstate(all="ignore"):
            for legacy in masks:
                assert bits(translation_update_batch(t, *extreme, legacy=legacy)) == \
                    bits(former_translation_update_batch(t, *extreme, legacy=legacy))

    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_aggregate_histograms(self, n):
        """The counts are np.histogram's of the finite values: every edge hit exactly,
        values below the first and past the last edge, +-inf and NaN."""
        rng = np.random.default_rng(n)
        columns = {}
        for f in METRIC_FIELDS:
            edges = HISTOGRAM_EDGES[f]
            pool = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                   np.nextafter(edges, np.inf), [-1.0, -0.0, 0.0, 5.0],
                                   [np.inf, -np.inf, np.nan], rng.uniform(0, edges[-1], 20)])
            columns[f] = rng.choice(pool, n)
        for f, hist in aggregate(columns)["histograms"].items():
            column = columns[f]
            counts = np.histogram(column[np.isfinite(column)], bins=HISTOGRAM_EDGES[f])[0]
            assert hist["counts"] == counts.tolist()
            assert hist["overflow"] == n - int(counts.sum())
