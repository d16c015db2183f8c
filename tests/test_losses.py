"""Losses: Huber focal term, reprojection terms, disentangled pose loss,
analytic gradients."""

import numpy as np
import pytest

from posefocal.geometry import ModelPoints, ParamState, Rotation
from posefocal.losses import (GRAD_LABELS, LossWeights,
                              disentangled_pose_loss,
                              disentangled_reprojection_loss, gradient_check,
                              huber_log_focal, point_matching_distance,
                              reprojection_loss, rotation_6d_jacobian,
                              smoothness_margins, total_loss)
from posefocal.update_rules import DeltaTheta, apply_update, oracle_delta

ORIGIN_POINT = ModelPoints(np.zeros((1, 3)))


def make_state(x=0.0, y=0.0, z=1.0, f=600.0, rot=None):
    return ParamState(rot or Rotation.identity(), np.array([x, y, z]), f)


def make_delta(vx=0.0, vy=0.0, vz=1.0, vf=0.0, v_r1=(1, 0, 0), v_r2=(0, 1, 0)):
    return DeltaTheta(vx, vy, vz, np.array(v_r1, float), np.array(v_r2, float), vf)


def random_case(rng, n_points=20):
    pts = ModelPoints(rng.uniform(-0.1, 0.1, size=(n_points, 3)))
    state = make_state(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                       rng.uniform(0.8, 2.5), rng.uniform(300, 900),
                       Rotation(rng.standard_normal(4)))
    gt = make_state(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                    rng.uniform(0.8, 2.5), rng.uniform(300, 900),
                    Rotation(rng.standard_normal(4)))
    hat = oracle_delta(state, gt)
    delta = DeltaTheta(hat.vx + rng.normal(0, 5), hat.vy + rng.normal(0, 5),
                       hat.vz * np.exp(rng.normal(0, 0.05)),
                       hat.v_r1 + rng.normal(0, 0.05, 3),
                       hat.v_r2 + rng.normal(0, 0.05, 3),
                       hat.vf + rng.normal(0, 0.05))
    return state, delta, gt, pts


# ---------------------------------------------------------------------------
# Huber focal term
# ---------------------------------------------------------------------------

class TestHuberLogFocal:
    def test_equal_focals(self):
        assert huber_log_focal(600.0, 600.0) == 0.0

    def test_quadratic_branch(self):
        assert huber_log_focal(2 * 660.0, 660.0) == pytest.approx(
            0.5 * np.log(2) ** 2)
        assert huber_log_focal(2 * 660.0, 660.0) == pytest.approx(0.24023,
                                                                  abs=1e-5)

    def test_linear_branch(self):
        assert huber_log_focal(np.exp(3) * 500.0, 500.0) == pytest.approx(2.5)

    def test_symmetry_in_log_space(self):
        assert huber_log_focal(300.0, 600.0) == pytest.approx(
            huber_log_focal(1200.0, 600.0))


# ---------------------------------------------------------------------------
# Reprojection terms
# ---------------------------------------------------------------------------

class TestReprojectionLoss:
    def test_identical_parameters(self):
        pts = ModelPoints(np.random.default_rng(0).uniform(-0.1, 0.1, (10, 3)))
        state = make_state(0.1, -0.1, 1.5)
        assert reprojection_loss(state, state, pts) == pytest.approx(0.0)

    def test_on_axis_point_is_focal_invariant(self):
        pred = make_state(z=1.0, f=600.0)
        gt = make_state(z=1.0, f=660.0)
        assert reprojection_loss(pred, gt, ORIGIN_POINT) == pytest.approx(0.0)

    def test_hand_evaluated_focal_error(self):
        pts = ModelPoints(np.array([[0.1, 0.0, 0.0]]))
        pred = make_state(z=1.0, f=600.0)
        gt = make_state(z=1.0, f=660.0)
        assert reprojection_loss(pred, gt, pts) == pytest.approx(6.0)

    def test_unnormalized_sum_over_points(self):
        pts1 = ModelPoints(np.array([[0.1, 0.0, 0.0]]))
        pts2 = ModelPoints(np.array([[0.1, 0.0, 0.0]] * 4))
        pred, gt = make_state(f=600.0), make_state(f=660.0)
        assert reprojection_loss(pred, gt, pts2) == pytest.approx(
            4 * reprojection_loss(pred, gt, pts1))


class TestDisentangledReprojection:
    def test_identical_parameters(self):
        pts = ModelPoints(np.random.default_rng(1).uniform(-0.1, 0.1, (10, 3)))
        state = make_state(0.05, 0.0, 2.0)
        assert disentangled_reprojection_loss(state, state, pts) == pytest.approx(0.0)

    def test_pose_error_only(self):
        pts = ModelPoints(np.random.default_rng(2).uniform(-0.1, 0.1, (10, 3)))
        gt = make_state(0.0, 0.0, 1.5, f=600.0)
        pred = make_state(0.1, 0.0, 1.5, f=600.0)
        expected = 0.5 * reprojection_loss(pred, gt, pts)
        assert disentangled_reprojection_loss(pred, gt, pts) == pytest.approx(expected)

    def test_focal_error_only(self):
        pts = ModelPoints(np.random.default_rng(3).uniform(-0.1, 0.1, (10, 3)))
        gt = make_state(0.0, 0.0, 1.5, f=600.0)
        pred = make_state(0.0, 0.0, 1.5, f=750.0)
        expected = 0.5 * reprojection_loss(pred, gt, pts)
        assert disentangled_reprojection_loss(pred, gt, pts) == pytest.approx(expected)


class TestPointMatchingDistance:
    def test_identical_poses(self):
        pts = ModelPoints(np.random.default_rng(4).uniform(-0.1, 0.1, (10, 3)))
        state = make_state(0.1, 0.2, 1.0)
        assert point_matching_distance(state, state, pts) == pytest.approx(0.0)

    def test_pure_translation_is_point_independent(self):
        for seed in range(3):
            pts = ModelPoints(np.random.default_rng(seed).uniform(-1, 1, (7, 3)))
            a = make_state(0.1, 0.0, 1.0)
            b = make_state(0.0, 0.0, 1.0)
            assert point_matching_distance(a, b, pts) == pytest.approx(0.1)

    def test_hand_evaluated_rotation(self):
        pts = ModelPoints(np.array([[1.0, 0.0, 0.0]]))
        a = make_state(z=1.0, rot=Rotation.from_axis_angle([0, 0, 1], np.pi / 2))
        b = make_state(z=1.0)
        assert point_matching_distance(a, b, pts) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Disentangled pose loss
# ---------------------------------------------------------------------------

class TestDisentangledPoseLoss:
    def test_oracle_delta_reaches_zero(self):
        rng = np.random.default_rng(5)
        state, _, gt, pts = random_case(rng)
        loss = disentangled_pose_loss(state, oracle_delta(state, gt), gt, pts)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_isolates_depth_error(self):
        rng = np.random.default_rng(6)
        state, _, gt, pts = random_case(rng)
        hat = oracle_delta(state, gt)
        wrong_z = DeltaTheta(hat.vx, hat.vy, hat.vz * 1.3, hat.v_r1, hat.v_r2,
                             hat.vf)
        state_z = apply_update(state, wrong_z)
        loss = disentangled_pose_loss(state, wrong_z, gt, pts)
        assert loss == pytest.approx(
            point_matching_distance(state_z, gt, pts), abs=1e-9)

    def test_depth_term_hand_case(self):
        state = make_state(z=1.0)
        gt = make_state(z=2.0)
        pts = ModelPoints(np.random.default_rng(7).uniform(-0.1, 0.1, (5, 3)))
        no_change = DeltaTheta(0.0, 0.0, 1.0, np.array([1., 0, 0]),
                               np.array([0., 1, 0]), 0.0)
        loss = disentangled_pose_loss(state, no_change, gt, pts)
        assert loss == pytest.approx(
            point_matching_distance(make_state(z=1.0), make_state(z=2.0), pts),
            abs=1e-9)


# ---------------------------------------------------------------------------
# Total loss
# ---------------------------------------------------------------------------

class TestTotalLoss:
    def test_oracle_delta_gives_zero(self):
        rng = np.random.default_rng(8)
        state, _, gt, pts = random_case(rng)
        br = total_loss(state, oracle_delta(state, gt), gt, pts)
        assert br.total == pytest.approx(0.0, abs=1e-9)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(9)
        w = LossWeights()
        for _ in range(20):
            state, delta, gt, pts = random_case(rng)
            br = total_loss(state, delta, gt, pts, w)
            assert br.total == pytest.approx(
                br.pose + w.alpha * (w.beta * br.huber + br.reprojection),
                abs=1e-9)

    def test_terms_non_negative(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            state, delta, gt, pts = random_case(rng)
            br = total_loss(state, delta, gt, pts)
            assert br.pose >= 0 and br.huber >= 0 and br.reprojection >= 0

    def test_default_weights(self):
        w = LossWeights()
        assert w.alpha == pytest.approx(1e-2)
        assert w.beta == pytest.approx(1.0)


class TestDisentanglement:
    def _perturb_vf(self, delta, h):
        return DeltaTheta(delta.vx, delta.vy, delta.vz, delta.v_r1,
                          delta.v_r2, delta.vf + h)

    def _perturb_rot(self, delta, h):
        return DeltaTheta(delta.vx, delta.vy, delta.vz, delta.v_r1 + h,
                          delta.v_r2 - h, delta.vf)

    def test_focal_perturbation_leaves_pose_terms_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            state, delta, gt, pts = random_case(rng)
            a = total_loss(state, delta, gt, pts)
            b = total_loss(state, self._perturb_vf(delta, 0.2), gt, pts)
            assert abs(a.pose - b.pose) <= 1e-12
            # the reprojection pose half is vf-independent; only the focal
            # half moves
            focal_shift = abs(a.reprojection - b.reprojection)
            direct = abs(total_loss(state, delta, gt, pts).grad_reprojection[9])
            assert focal_shift == pytest.approx(
                abs(a.reprojection - b.reprojection))
            assert direct >= 0

    def test_rotation_perturbation_leaves_huber_unchanged(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            state, delta, gt, pts = random_case(rng)
            a = total_loss(state, delta, gt, pts)
            b = total_loss(state, self._perturb_rot(delta, 0.1), gt, pts)
            assert abs(a.huber - b.huber) <= 1e-12


class TestSmoothnessMargins:
    @pytest.mark.parametrize("vf", [1.25, 0.75])
    def test_huber_margin(self, vf):
        # equal focals make the Huber residual vf itself
        state = make_state(f=600.0)
        margins = smoothness_margins(state, make_delta(vf=vf), state, ORIGIN_POINT)
        assert margins["huber"] == 0.25

    def test_pixel_margin_is_focal_family(self):
        # the pose half puts the point 65 px from the ground truth in x and
        # y; the focal half's residuals cross zero where f_new = 650
        state = make_state(f=600.0)
        gt = make_state(x=0.1, y=0.1, f=650.0)
        margins = smoothness_margins(state, make_delta(vf=np.log(1.1)), gt,
                                     ORIGIN_POINT)
        assert margins["pixel"] == pytest.approx(660.0 - 650.0, rel=1e-12)

    def test_metric_margin_is_smallest_depth_residual(self):
        # oracle: vx 60, vy 90, vz 2. The x-y term misses by 0.4 m in x and
        # y, the cyclic rotation moves the point by (0.3, -0.1, -0.2), and
        # the 10 % depth error moves it by 0.1 * (0.2, 0.3, 2.0).
        state = make_state(z=1.0, f=600.0)
        gt = make_state(x=0.2, y=0.3, z=2.0, f=600.0)
        delta = make_delta(vx=180.0, vy=210.0, vz=2.2, v_r1=(0, 1, 0),
                           v_r2=(0, 0, 1))
        pts = ModelPoints(np.array([[0.1, 0.2, 0.4]]))
        margins = smoothness_margins(state, delta, gt, pts)
        assert margins["metric"] == pytest.approx(0.02, abs=1e-12)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

class TestGradients:
    def test_rotation_6d_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-7
        for _ in range(20):
            v1, v2 = rng.standard_normal((2, 3))
            r, dr = rotation_6d_jacobian(v1, v2)
            flat = np.concatenate([v1, v2])
            for j in range(6):
                dp = flat.copy()
                dm = flat.copy()
                dp[j] += h
                dm[j] -= h
                rp, _ = rotation_6d_jacobian(dp[:3], dp[3:])
                rm, _ = rotation_6d_jacobian(dm[:3], dm[3:])
                num = (rp - rm) / (2 * h)
                assert np.allclose(dr[:, :, j], num, atol=1e-5)

    def test_huber_only_quadratic_branch(self):
        state = make_state(f=600.0)
        gt = make_state(f=660.0)
        delta = make_delta(vf=0.02)
        w = LossWeights(alpha=1.0, beta=1.0)
        rep = gradient_check(state, delta, gt, ORIGIN_POINT, w, step=1e-6)
        assert rep["per_component"]["v_f"] <= 1e-6

    def test_random_smooth_configurations(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 30:
            state, delta, gt, pts = random_case(rng)
            rep = gradient_check(state, delta, gt, pts)
            if not rep["smooth"]:
                continue
            assert rep["max_rel_err"] <= 1e-5, rep["per_component"]
            checked += 1

    def test_kink_point_flagged_non_smooth(self):
        state = make_state(f=600.0)
        gt = make_state(f=600.0)
        # vf sits exactly at the Huber transition point
        delta = make_delta(vf=LossWeights().huber_delta)
        rep = gradient_check(state, delta, gt, ORIGIN_POINT)
        assert not rep["smooth"]

    def test_grad_labels_cover_ten_components(self):
        assert len(GRAD_LABELS) == 10
