"""Geometry: projection, rotations, boxes, and the crop protocol."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posefocal.errors import DegenerateInputError, DepthError, DomainError
from posefocal.geometry import (BBox, CameraIntrinsics, ModelPoints,
                                ParamState, PoseBatch, Rotation,
                                adjust_intrinsics_for_crop,
                                compute_crop, geodesic_angles, geodesic_distance,
                                project_point, project_points,
                                quats_from_6d, quats_to_matrices,
                                rotation_from_6d)
from posefocal.losses import rotation_6d_jacobian
from posefocal.metrics import GroundTruth

F600 = CameraIntrinsics(600.0, 0.0, 0.0)
IDENT = Rotation.identity()


def random_rotation(rng):
    return Rotation(rng.standard_normal(4))


quat_strategy = st.tuples(*[st.floats(-1, 1) for _ in range(4)]).filter(
    lambda q: sum(v * v for v in q) > 1e-4)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

class TestProjectPoint:
    def test_optical_axis_point_hits_principal_point(self):
        uv = project_point(F600, IDENT, np.zeros(3), np.array([0, 0, 1.0]))
        assert np.allclose(uv, (0.0, 0.0))

    def test_direct_arithmetic(self):
        uv = project_point(F600, IDENT, np.zeros(3), np.array([0.1, 0.2, 1.0]))
        assert np.allclose(uv, (60.0, 120.0))

    def test_point_behind_camera_raises(self):
        with pytest.raises(DepthError):
            project_point(F600, IDENT, np.zeros(3), np.array([0.1, 0.2, -1.0]))

    def test_error_identifies_offending_point(self):
        pts = np.array([[0, 0, 1.0], [0, 0, -1.0]])
        with pytest.raises(DepthError, match="1"):
            project_points(F600, IDENT, np.zeros(3), pts)

    def test_scale_consistency_with_crop_adjustment(self):
        rng = np.random.default_rng(0)
        intr = CameraIntrinsics(600.0, 320.0, 240.0)
        for _ in range(20):
            p = rng.uniform(-0.3, 0.3, 3) + np.array([0, 0, 1.5])
            s = rng.uniform(0.2, 3.0)
            scaled = adjust_intrinsics_for_crop(intr, (0.0, 0.0), s)
            uv = np.asarray(project_point(intr, IDENT, np.zeros(3), p))
            uv_s = np.asarray(project_point(scaled, IDENT, np.zeros(3), p))
            assert np.allclose(uv * s, uv_s)


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

class TestRotation6D:
    def test_orthonormal_basis_is_identity(self):
        r = rotation_from_6d([1, 0, 0], [0, 1, 0])
        assert np.allclose(r.as_matrix(), np.eye(3))

    def test_gram_schmidt_removes_scale_and_shear(self):
        r = rotation_from_6d([2, 0, 0], [1, 1, 0])
        assert np.allclose(r.as_matrix(), np.eye(3))

    def test_zero_first_vector_raises(self):
        with pytest.raises(DegenerateInputError):
            rotation_from_6d([0, 0, 0], [0, 1, 0])

    def test_parallel_vectors_raise(self):
        with pytest.raises(DegenerateInputError):
            rotation_from_6d([1, 1, 0], [2, 2, 0])

    def test_output_is_special_orthogonal(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v1, v2 = rng.standard_normal((2, 3))
            m = rotation_from_6d(v1, v2).as_matrix()
            assert np.allclose(m.T @ m, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(m) - 1.0) < 1e-9

    def test_matrix_quaternion_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = random_rotation(rng)
            back = Rotation.from_matrix(r.as_matrix())
            assert np.allclose(back.as_matrix(), r.as_matrix(), atol=1e-12)


class TestBatchedRotations:
    def test_6d_matches_scalar_on_every_pivot(self):
        rng = np.random.default_rng(14)
        rots = [random_rotation(rng) for _ in range(200)]
        # half-turns about each axis select the x, y and z pivots
        rots += [Rotation.from_axis_angle(axis, np.pi) @ Rotation.from_axis_angle(
            rng.standard_normal(3), 1e-3) for axis in np.eye(3)]
        mats = np.array([r.as_matrix() for r in rots])
        v1 = mats[:, :, 0] * rng.uniform(0.5, 2.0, (len(rots), 1))
        v2 = mats[:, :, 1] + 0.3 * mats[:, :, 0]
        got = quats_to_matrices(quats_from_6d(v1, v2))
        want = np.array([rotation_from_6d(a, b).as_matrix() for a, b in zip(v1, v2)])
        assert np.abs(got - want).max() <= 1e-12

    def test_6d_rejects_parallel_vectors(self):
        with pytest.raises(DegenerateInputError):
            quats_from_6d(np.array([[1.0, 0, 0], [1.0, 0, 0]]),
                          np.array([[0.0, 1, 0], [2.0, 0, 0]]))


def _outcome(decode, v1, v2):
    try:
        decode(v1, v2)
    except DomainError as exc:
        return type(exc)
    return None


class TestSixDDomainRule:
    """The three 6D decoders accept and reject the same pairs."""

    DECODERS = (rotation_from_6d,
                lambda a, b: quats_from_6d(a[None], b[None]),
                lambda a, b: rotation_6d_jacobian(a[None], b[None]))

    def outcomes(self, v1, v2):
        return {_outcome(decode, v1, v2) for decode in self.DECODERS}

    def test_near_parallel_pairs_on_both_sides_of_the_threshold(self):
        rng = np.random.default_rng(21)
        for sin in np.geomspace(1e-12, 1e-6, 400):
            v1, u = rng.standard_normal((2, 3))
            e1 = v1 / np.linalg.norm(v1)
            perp = np.cross(e1, u)
            v2 = rng.uniform(0.5, 2.0) * (e1 + sin * perp / np.linalg.norm(perp))
            got = self.outcomes(v1, v2)
            assert len(got) == 1, (sin, got)
            if sin < 3e-10:
                assert got == {DegenerateInputError}, sin
            elif sin > 3e-9:
                assert got == {None}, sin

    @pytest.mark.parametrize("v1, v2", [([np.nan, 0, 0], [0, 1, 0]),
                                        ([1, 0, 0], [0, np.inf, 0]),
                                        ([1e200, 1e200, 0], [0, 0, 1])],
                             ids=["nan", "inf", "overflow"])
    def test_non_finite_norms_are_domain_errors(self, v1, v2):
        with np.errstate(invalid="ignore", over="ignore"):
            got = self.outcomes(np.array(v1, float), np.array(v2, float))
        assert got == {DomainError}


class TestGeodesicDistance:
    def test_identical_rotations(self):
        rng = np.random.default_rng(3)
        r = random_rotation(rng)
        assert geodesic_distance(r, r) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn(self):
        rb = Rotation.from_axis_angle([0, 0, 1], np.pi / 2)
        assert geodesic_distance(IDENT, rb) == pytest.approx(np.pi / 2)

    def test_antipodal(self):
        rb = Rotation.from_axis_angle([0, 1, 0], np.pi)
        assert geodesic_distance(IDENT, rb) == pytest.approx(np.pi)

    def test_exact_half_turns(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            ra = random_rotation(rng)
            flip = Rotation.from_axis_angle(rng.standard_normal(3), np.pi)
            assert geodesic_distance(ra, ra @ flip) == pytest.approx(
                np.pi, abs=1e-12)

    @given(quat_strategy, quat_strategy)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, qa, qb):
        ra, rb = Rotation(np.array(qa)), Rotation(np.array(qb))
        assert geodesic_distance(ra, rb) == pytest.approx(
            geodesic_distance(rb, ra), abs=1e-9)

    @given(quat_strategy, quat_strategy, quat_strategy)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, qa, qb, qc):
        ra, rb, rc = (Rotation(np.array(q)) for q in (qa, qb, qc))
        assert geodesic_distance(ra, rc) <= (
            geodesic_distance(ra, rb) + geodesic_distance(rb, rc) + 1e-9)

    def test_batched_angles_are_bit_identical(self):
        rng = np.random.default_rng(21)
        n = 10_000
        ra = [random_rotation(rng) for _ in range(n)]
        rb = [random_rotation(rng) for _ in range(n)]
        for i in range(0, n, 10):
            rb[i] = Rotation(-ra[i].quat)  # sign-flipped copy: angle 0
            rb[i + 1] = ra[i + 1]  # exact duplicate
            rb[i + 2] = Rotation(ra[i + 2].quat + 1e-7 * rng.standard_normal(4))
            rb[i + 3] = ra[i + 3] @ Rotation.from_axis_angle(rng.standard_normal(3), np.pi)
        qa = np.stack([r.quat for r in ra])
        qb = np.stack([r.quat for r in rb])
        want = np.array([geodesic_distance(a, b) for a, b in zip(ra, rb)])
        got = geodesic_angles(qa, qb)
        assert np.array_equal(got, want), np.abs(got - want).max()
        assert want[::10].max() < 1e-7 and want[1::10].max() < 1e-7


# ---------------------------------------------------------------------------
# Bounding boxes and crop
# ---------------------------------------------------------------------------

def bbox_iou(a: BBox, b: BBox) -> float:
    """The IoU of predicted box b with ground-truth box a, as GroundTruth scores it."""
    pose = PoseBatch(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]),
                     np.array([600.0]))
    truth = GroundTruth(pose, np.zeros((1, 3)), np.array([a.as_list()]), 800.0)
    return float(truth.score(pose, bbox_pred=np.array([b.as_list()]))["iou"][0])


class TestBBoxIoU:
    def test_identical(self):
        b = BBox(0, 0, 2, 2)
        assert bbox_iou(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bbox_iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_hand_evaluated_overlap(self):
        assert bbox_iou(BBox(0, 0, 2, 2), BBox(1, 0, 3, 2)) == pytest.approx(1 / 3)

    @given(st.tuples(*[st.floats(-10, 10) for _ in range(8)]))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_symmetry(self, coords):
        x1, y1, w1, h1, x2, y2, w2, h2 = coords
        try:
            a = BBox(x1, y1, x1 + abs(w1) + 0.1, y1 + abs(h1) + 0.1)
            b = BBox(x2, y2, x2 + abs(w2) + 0.1, y2 + abs(h2) + 0.1)
        except DomainError:
            return
        iou = bbox_iou(a, b)
        assert 0.0 <= iou <= 1.0
        assert iou == pytest.approx(bbox_iou(b, a))

    def test_invalid_box_rejected(self):
        with pytest.raises(DomainError):
            BBox(2, 0, 1, 1)


class TestComputeCrop:
    def test_hand_evaluated_crop(self):
        w, h = compute_crop(BBox(100, 100, 300, 200), (200.0, 150.0),
                            aspect=4 / 3, enlargement=1.4)
        assert w == pytest.approx(280.0)
        assert h == pytest.approx(210.0)

    def test_symmetric_square(self):
        d = 17.0
        w, h = compute_crop(BBox(-d, -d, d, d), (0.0, 0.0),
                            aspect=1.0, enlargement=1.0)
        assert w == pytest.approx(2 * d)
        assert h == pytest.approx(2 * d)

    @given(st.floats(0.1, 3.0), st.floats(0.05, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_enlargement(self, lam, extra):
        box = BBox(10, 20, 110, 90)
        w1, h1 = compute_crop(box, (40.0, 50.0), aspect=4 / 3, enlargement=lam)
        w2, h2 = compute_crop(box, (40.0, 50.0), aspect=4 / 3,
                              enlargement=lam + extra)
        assert w1 < w2 and h1 < h2


class TestAdjustIntrinsics:
    def test_identity_transform(self):
        intr = CameraIntrinsics(600.0, 320.0, 240.0)
        out = adjust_intrinsics_for_crop(intr, (0.0, 0.0), 1.0)
        assert (out.focal, out.cx, out.cy) == (600.0, 320.0, 240.0)

    def test_focal_scales(self):
        out = adjust_intrinsics_for_crop(CameraIntrinsics(600.0, 0, 0),
                                         (0.0, 0.0), 0.5)
        assert out.focal == pytest.approx(300.0)

    def test_principal_point_shift(self):
        out = adjust_intrinsics_for_crop(CameraIntrinsics(600.0, 320.0, 240.0),
                                         (50.0, 20.0), 1.0)
        assert (out.cx, out.cy) == (270.0, 220.0)


# ---------------------------------------------------------------------------
# Model points I/O
# ---------------------------------------------------------------------------

class TestModelPoints:
    def test_from_json(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[0, 0, 0], [0.1, -0.2, 0.3]]))
        pts = ModelPoints.from_json(path)
        assert pts.points.shape == (2, 3)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ModelPoints(np.zeros((0, 3)))


class TestParamState:
    def test_serialization_round_trip(self):
        state = ParamState(Rotation.from_axis_angle([0, 1, 0], 0.3),
                           np.array([0.1, -0.2, 1.5]), 640.0)
        back = ParamState.from_dict(state.to_dict())
        assert np.allclose(back.rotation.quat, state.rotation.quat)
        assert np.allclose(back.translation, state.translation)
        assert back.focal == state.focal
