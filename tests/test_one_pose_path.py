"""The one-pose path on Python floats, and the metrics of each pair in a batch, round
exactly as the one-pose NumPy formulas they replaced: each reference below is that
NumPy formula, kept here, and every comparison is bit for bit."""

import numpy as np
import pytest

from posefocal.geometry import (CameraIntrinsics, ModelPoints, ParamState, PoseBatch,
                                Rotation, project_point, project_points,
                                rotation_from_6d)
from posefocal.metrics import evaluate_pair
from posefocal.update_rules import DeltaTheta, apply_update, oracle_delta

N = 2000


# ---------------------------------------------------------------------------
# Reference formulas: NumPy scalars, np.linalg.norm, separate matmuls
# ---------------------------------------------------------------------------

def ref_unit(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q)


def ref_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2*y*y - 2*z*z, 2*x*y - 2*w*z, 2*x*z + 2*w*y],
        [2*x*y + 2*w*z, 1 - 2*x*x - 2*z*z, 2*y*z - 2*w*x],
        [2*x*z - 2*w*y, 2*y*z + 2*w*x, 1 - 2*x*x - 2*y*y],
    ])


def ref_inverse(q):
    w, x, y, z = q
    return ref_unit(np.array([w, -x, -y, -z]))


def ref_compose(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return ref_unit(np.array([
        w1*w2 - x1*x2 - y1*y2 - z1*z2,
        w1*x2 + x1*w2 + y1*z2 - z1*y2,
        w1*y2 - x1*z2 + y1*w2 + z1*x2,
        w1*z2 + x1*y2 - y1*x2 + z1*w2,
    ]))


def ref_pivot(m):
    """Which Shepperd branch ``ref_matrix_to_quat`` takes."""
    if np.trace(m) > 0:
        return "trace"
    if m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        return "x"
    return "y" if m[1, 1] > m[2, 2] else "z"


def ref_matrix_to_quat(m):
    pivot = ref_pivot(m)
    if pivot == "trace":
        s = 0.5 / np.sqrt(np.trace(m) + 1.0)
        q = np.array([0.25 / s, (m[2, 1] - m[1, 2]) * s, (m[0, 2] - m[2, 0]) * s,
                      (m[1, 0] - m[0, 1]) * s])
    elif pivot == "x":
        s = 2.0 * np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif pivot == "y":
        s = 2.0 * np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = 2.0 * np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    return ref_unit(ref_unit(q))  # Shepperd's normalization, then Rotation's


def ref_gram_schmidt(v1, v2):
    e1 = v1 / np.linalg.norm(v1)
    w = v2 - (v2 @ e1) * e1
    e2 = w / np.linalg.norm(w)
    e3 = np.array([e1[1] * e2[2] - e1[2] * e2[1],
                   e1[2] * e2[0] - e1[0] * e2[2],
                   e1[0] * e2[1] - e1[1] * e2[0]])
    return np.column_stack([e1, e2, e3])


def ref_apply_update(state, delta, legacy):
    f = state.focal
    f_new = float(np.exp(delta.vf) * f)
    quat = ref_compose(ref_matrix_to_quat(ref_gram_schmidt(delta.v_r1, delta.v_r2)),
                       state.rotation.quat)
    x, y, z = state.translation
    z_new = delta.vz * z
    if legacy:
        t = [(delta.vx / f_new + x / z) * z_new, (delta.vy / f_new + y / z) * z_new, z_new]
    else:
        t = [(delta.vx + f * x / z) * z_new / f_new, (delta.vy + f * y / z) * z_new / f_new,
             z_new]
    return quat, np.array(t), f_new


def ref_oracle_delta(state, target):
    x, y, z = state.translation
    xh, yh, zh = target.translation
    f, fh = state.focal, target.focal
    r_rel = ref_matrix(ref_compose(target.rotation.quat, ref_inverse(state.rotation.quat)))
    return (fh * xh / zh - f * x / z, fh * yh / zh - f * y / z, zh / z,
            r_rel[:, 0], r_rel[:, 1], float(np.log(fh / f)))


def ref_metrics(pred, gt, pts, bbox_gt, img_diag):
    q_rel = ref_compose(ref_inverse(pred.rotation.quat), gt.rotation.quat)
    norm = np.linalg.norm(gt.translation)
    cam = pts @ ref_matrix(pred.rotation.quat).T + pred.translation
    cam_hat = pts @ ref_matrix(gt.rotation.quat).T + gt.translation
    diag = float(np.hypot(bbox_gt[2] - bbox_gt[0], bbox_gt[3] - bbox_gt[1]))
    if np.any(cam[:, 2] <= 0):
        e_proj = np.inf
    else:
        uv = pred.focal * cam[:, :2] / cam[:, 2:3]
        uv_hat = gt.focal * cam_hat[:, :2] / cam_hat[:, 2:3]
        e_proj = float(np.linalg.norm(uv - uv_hat, axis=1).mean() / diag)
    return {
        "e_rot": float(2.0 * np.arcsin(min(1.0, np.linalg.norm(q_rel[1:])))),
        "e_trans": float(np.linalg.norm(pred.translation - gt.translation) / norm),
        "e_pose": float(diag / img_diag
                        * np.linalg.norm(cam - cam_hat, axis=1).mean() / norm),
        "e_focal": abs(gt.focal - pred.focal) / gt.focal,
        "e_proj": e_proj,
    }


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def random_quats(rng, n):
    """Unnormalized quaternions over many scales, plus near half-turns about
    each axis, so that Shepperd takes each of its four pivots."""
    q = rng.standard_normal((n, 4)) * rng.uniform(1e-3, 1e3, (n, 1))
    k = n // 8
    for axis in range(3):
        q[(axis + 1) * k:(axis + 2) * k] = np.eye(4)[axis + 1] + rng.normal(0, 1e-3, (k, 4))
    return q


def random_state(rng, q):
    return ParamState(Rotation(q), np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                             rng.uniform(0.3, 3.0)]),
                      rng.uniform(200.0, 1000.0))


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(90210)


class TestBitIdentity:
    def test_rotation_construction_inverse_composition_matrix(self, rng):
        qs = random_quats(rng, N)
        rots = [Rotation(q) for q in qs]
        for q, r, r2 in zip(qs, rots, rots[1:] + rots[:1]):
            assert bits(r.quat) == bits(ref_unit(q))
            assert bits(r.inverse().quat) == bits(ref_inverse(r.quat))
            assert bits((r @ r2).quat) == bits(ref_compose(r.quat, r2.quat))
            assert bits(r.as_matrix()) == bits(ref_matrix(r.quat))
            m = r.as_matrix()
            assert bits(Rotation.from_matrix(m).quat) == bits(ref_matrix_to_quat(m))

    def test_rotation_from_6d_on_every_pivot(self, rng):
        pivots = set()
        for q in random_quats(rng, N):
            m = Rotation(q).as_matrix()
            v1 = m[:, 0] * rng.uniform(0.1, 10.0) + rng.normal(0, 0.1, 3)
            v2 = m[:, 1] * rng.uniform(0.1, 10.0) + rng.normal(0, 0.1, 3)
            ref = ref_gram_schmidt(v1, v2)
            pivots.add(ref_pivot(ref))
            assert bits(rotation_from_6d(v1, v2).quat) == bits(ref_matrix_to_quat(ref))
        assert pivots == {"trace", "x", "y", "z"}

    @pytest.mark.parametrize("legacy", [False, True])
    def test_apply_update(self, rng, legacy):
        for q in random_quats(rng, N):
            state = random_state(rng, q)
            delta = DeltaTheta(rng.normal(0, 30), rng.normal(0, 30),
                               float(np.exp(rng.normal(0, 0.3))), rng.standard_normal(3),
                               rng.standard_normal(3), rng.normal(0, 0.3))
            out = apply_update(state, delta, legacy=legacy)
            assert bits(out.rotation.quat, out.translation, out.focal) \
                == bits(*ref_apply_update(state, delta, legacy))

    def test_oracle_delta(self, rng):
        qs = random_quats(rng, N)
        for q, qh in zip(qs, qs[::-1]):
            state, target = random_state(rng, q), random_state(rng, qh)
            d = oracle_delta(state, target)
            assert bits(d.vx, d.vy, d.vz, d.v_r1, d.v_r2, d.vf) \
                == bits(*ref_oracle_delta(state, target))

    def test_project_point_and_points(self, rng):
        for q in random_quats(rng, N // 4):
            state = random_state(rng, q)
            intr = CameraIntrinsics(state.focal, rng.normal(0, 50), rng.normal(0, 50))
            pts = rng.uniform(-0.1, 0.1, (5, 3))

            def ref(pts):  # a (1, 3) array for one point, as the matmul was
                cam = pts @ ref_matrix(state.rotation.quat).T + state.translation
                return intr.focal * cam[:, :2] / cam[:, 2:3] + np.array([intr.cx, intr.cy])

            assert bits(project_points(intr, state.rotation, state.translation, pts)) \
                == bits(ref(pts))
            for p in pts:
                assert bits(project_point(intr, state.rotation, state.translation, p)) \
                    == bits(project_points(intr, state.rotation, state.translation, p)) \
                    == bits(ref(p[None]))

    def test_errors_and_evaluate_pair(self, rng):
        """All N pairs scored at once by evaluate_pair, with no predicted box."""
        cloud = ModelPoints(rng.uniform(-0.1, 0.1, (30, 3)))
        half_turns = [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.6, -0.8, 0.0]]
        qs = random_quats(rng, N)
        preds, gts = [], []
        for i, (q, qh) in enumerate(zip(qs, qs[::-1])):
            pred, gt = random_state(rng, q), random_state(rng, qh)
            if i % 10 == 0:  # an exact half-turn away from the ground truth
                pred = ParamState(Rotation(half_turns[i % 3]) @ gt.rotation, pred.translation,
                                  pred.focal)
            if i % 10 == 1:  # the prediction behind the camera
                pred = ParamState(pred.rotation, pred.translation * [1, 1, -1], pred.focal)
            preds.append(pred)
            gts.append(gt)
        boxes = [[0.0, 0.0, 60.0 + i % 7, 80.0] for i in range(N)]
        got = evaluate_pair({"pred": PoseBatch.from_states(preds),
                             "gt": PoseBatch.from_states(gts), "points": [cloud.points] * N,
                             "bbox_gt": np.array(boxes), "img_diag": np.full(N, 800.0),
                             "bbox_pred": np.full((N, 4), np.nan)})
        assert np.isnan(got.pop("iou")).all()
        kinds = set()
        for i in range(N):
            ref = ref_metrics(preds[i], gts[i], cloud.points, boxes[i], 800.0)
            kinds.add((ref["e_proj"] == np.inf, ref["e_rot"] > 3.14159))
            assert bits(*(got[f][i] for f in ref)) == bits(*ref.values())
        assert kinds >= {(True, False), (False, True), (False, False)}
