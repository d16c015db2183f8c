"""Losses: Huber focal term, reprojection terms, disentangled pose loss,
analytic gradients."""

import re
from dataclasses import replace

import numpy as np
import pytest

from posefocal import losses
from posefocal.errors import DepthError, DomainError
from posefocal.geometry import ModelPoints, ParamState, Rotation, row_dot
from posefocal.losses import (GRAD_LABELS, LossWeights, _evaluate,
                              disentangled_pose_loss,
                              disentangled_reprojection_loss, gradient_check,
                              huber_log_focal, point_matching_distance,
                              reprojection_loss, rotation_6d_jacobian,
                              smoothness_margins, total_loss)
from posefocal.update_rules import (DeltaBatch, DeltaTheta, apply_update, oracle_delta,
                                    translation_update_batch)

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

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["f", "f_hat"])
    def test_rejects_focal_that_is_not_finite_and_positive(self, bad, which):
        with pytest.raises(DomainError, match="finite and positive"):
            huber_log_focal(**{"f": 600.0, "f_hat": 600.0, which: bad})


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

    @pytest.mark.parametrize("component", ["xy", "depth", "rotation"])
    def test_isolates_component_error(self, component):
        # One component off the oracle: its term is the point-matching
        # distance of the full update, and the other two terms vanish.
        rng = np.random.default_rng(6)
        state, _, gt, pts = random_case(rng)
        hat = oracle_delta(state, gt)
        moved = {"xy": dict(vx=hat.vx + 7.0, vy=hat.vy - 4.0),
                 "depth": dict(vz=hat.vz * 1.3),
                 "rotation": dict(v_r1=hat.v_r1 + [0.1, -0.05, 0.02],
                                  v_r2=hat.v_r2 + [-0.03, 0.08, 0.05])}[component]
        wrong = replace(hat, **moved)
        loss = disentangled_pose_loss(state, wrong, gt, pts)
        expected = point_matching_distance(apply_update(state, wrong), gt, pts)
        assert expected > 1e-3
        assert loss == pytest.approx(expected, abs=1e-9)

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

    @pytest.mark.parametrize("field, value", [
        ("alpha", np.nan), ("alpha", -1.0), ("beta", np.inf), ("beta", np.nan),
        ("huber_delta", np.nan), ("huber_delta", 0.0), ("huber_delta", np.inf)])
    def test_invalid_weight_names_field(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            LossWeights(**{field: value})


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
            (r,), (dr,) = rotation_6d_jacobian(v1[None], v2[None])
            flat = np.concatenate([v1, v2])
            for j in range(6):
                dp = flat.copy()
                dm = flat.copy()
                dp[j] += h
                dm[j] -= h
                (rp,), _ = rotation_6d_jacobian(dp[None, :3], dp[None, 3:])
                (rm,), _ = rotation_6d_jacobian(dm[None, :3], dm[None, 3:])
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

    @pytest.mark.parametrize("step, vf, message", [
        (1e-300, 0.0, "step 1e-300 leaves v_x = 5.0 unchanged"),  # moves 0.0, not 5.0
        (1e-6, 1e300, "step 1e-06 leaves v_f = 1e+300 unchanged"),  # moves 5.0, not 1e300
    ])
    def test_rejects_step_that_leaves_a_component_unchanged(self, step, vf, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            gradient_check(make_state(f=600.0), make_delta(vx=5.0, vf=vf),
                           make_state(f=660.0), ORIGIN_POINT, step=step)

    def test_grad_labels_cover_ten_components(self):
        assert len(GRAD_LABELS) == 10


class TestRowWiseEvaluation:
    """Row k of a K-row evaluation is the one-row loss of row k's update."""

    FIELDS = ("total", "pose", "huber", "reprojection",
              "grad_total", "grad_pose", "grad_huber", "grad_reprojection")

    def test_rows_match_one_row_total_loss(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            state, _, gt, pts = random_case(rng)
            deltas = [random_case(rng)[1] for _ in range(21)]
            batch = DeltaBatch([d.vx for d in deltas], [d.vy for d in deltas],
                               [d.vz for d in deltas], [d.v_r1 for d in deltas],
                               [d.v_r2 for d in deltas], [d.vf for d in deltas])
            rows, _ = _evaluate(state, batch, gt, pts, LossWeights())
            for k, delta in enumerate(deltas):
                one = total_loss(state, delta, gt, pts)
                for field in self.FIELDS:
                    np.testing.assert_allclose(getattr(rows, field)[k],
                                               getattr(one, field),
                                               rtol=1e-12, atol=0, err_msg=field)

    def test_numeric_gradient_is_central_differences_of_total_loss(self):
        rng = np.random.default_rng(16)
        h = 1e-6
        for _ in range(5):
            state, delta, gt, pts = random_case(rng)
            flat = np.concatenate([[delta.vx, delta.vy, delta.vz], delta.v_r1,
                                   delta.v_r2, [delta.vf]])
            expected = []
            for i in range(10):
                moved = []
                for sign in (1, -1):
                    c = flat.copy()
                    c[i] += sign * h
                    moved.append(total_loss(state, DeltaTheta(
                        c[0], c[1], c[2], c[3:6], c[6:9], c[9]), gt, pts).total)
                expected.append((moved[0] - moved[1]) / (2 * h))
            numeric = gradient_check(state, delta, gt, pts, step=h)["numeric"]
            np.testing.assert_allclose([numeric[k] for k in GRAD_LABELS], expected,
                                       rtol=0, atol=1e-8)


def four_update_evaluate(state, delta, gt, points, weights):
    """The loss pass as it was with one translation update per term: the reprojection
    pose half's update and its vz-derivative, then the x-y and the depth term's."""
    pts, f_hat, k = points.points, gt.focal, len(delta.vx)
    rotated = losses._rotated_points(state, delta, points)
    r = delta.vf + float(np.log(state.focal) - np.log(f_hat))
    huber, dh = losses._huber(r, weights.huber_delta)
    grad_huber = np.zeros((k, 10))
    grad_huber[:, 9] = dh
    t = state.translation[None]
    t_pose = translation_update_batch(t, state.focal, delta.vx, delta.vy, delta.vz, f_hat)
    dt_dvz = translation_update_batch(t, state.focal, delta.vx, delta.vy, np.ones(k), f_hat)
    cam = rotated[0] + t_pose[:, None, :]
    cam_hat = pts @ gt.rotation.as_matrix().T + gt.translation

    (x, y, z), (xh, yh, zh) = state.translation.tolist(), gt.translation.tolist()
    f = state.focal
    grad_pose = np.zeros((k, 10))
    vz, vx, vy = zh / z, f_hat * xh / zh - f * x / z, f_hat * yh / zh - f * y / z
    t1 = translation_update_batch(t, f, delta.vx, delta.vy, vz, f_hat)
    diff1 = t1 - gt.translation
    grad_pose[:, :2] = np.sign(diff1[:, :2]) * t1[:, 2:] / f_hat
    t2 = translation_update_batch(t, f, vx, vy, delta.vz, f_hat)
    diff2 = t2 - gt.translation
    grad_pose[:, 2] = row_dot(np.sign(diff2), t2 / delta.vz[:, None])
    diff3 = rotated[0] - pts @ gt.rotation.as_matrix().T
    grad_pose[:, 3:9] = np.einsum("kni,kjni->kj", np.sign(diff3), rotated[1]) / len(points)
    pose = np.abs(diff1).sum(axis=1) + np.abs(diff2).sum(axis=1) \
        + np.abs(diff3).mean(axis=1).sum(axis=1)

    depth = cam[..., 2:]
    uv = f_hat * cam[..., :2] / depth
    uv_hat = f_hat * cam_hat[:, :2] / cam_hat[:, 2:3]
    diff_a = uv - uv_hat
    sgn = np.sign(diff_a)
    gq = np.concatenate([sgn * f_hat / depth, -(sgn * uv).sum(axis=2, keepdims=True) / depth],
                        axis=2)
    grad_reproj = np.zeros((k, 10))
    gq_sum = gq.sum(axis=1)
    grad_reproj[:, :2] = gq_sum[:, :2] * t_pose[:, 2:] / f_hat
    grad_reproj[:, 2] = row_dot(gq_sum, dt_dvz)
    grad_reproj[:, 3:9] = np.einsum("kni,kjni->kj", gq, rotated[1])
    f_new = np.exp(delta.vf) * state.focal
    uv_f = f_new[:, None, None] * cam_hat[:, :2] / cam_hat[:, 2:3]
    diff_b = uv_f - uv_hat
    grad_reproj[:, 9] = (np.sign(diff_b) * uv_f).sum(axis=(1, 2))
    reproj = 0.5 * (np.abs(diff_a).sum(axis=(1, 2)) + np.abs(diff_b).sum(axis=(1, 2)))
    grad_reproj *= 0.5
    a, b = weights.alpha, weights.beta
    return (pose + a * (b * huber + reproj), pose, huber, reproj,
            grad_pose + a * (b * grad_huber + grad_reproj), grad_pose, grad_huber,
            grad_reproj), (diff_a, f_new - f_hat, (diff1, diff2, diff3), r)


def test_one_update_per_pass_matches_the_four_update_form():
    """The 21-row pass that gradient_check makes, with its translation updates stacked
    into two calls, against the former four calls: every field and residual, bit for bit."""
    rng = np.random.default_rng(27)
    steps = np.zeros((21, 10))
    steps[1::2], steps[2::2] = 1e-6 * np.eye(10), -1e-6 * np.eye(10)
    for _ in range(10):
        state, delta, gt, pts = random_case(rng)
        rows = losses._rows(delta, steps)
        weights = LossWeights(alpha=rng.uniform(0, 1), beta=rng.uniform(0, 2))
        breakdown, residuals = _evaluate(state, rows, gt, pts, weights)
        former, former_residuals = four_update_evaluate(state, rows, gt, pts, weights)
        for new, old in zip((*vars(breakdown).values(), *residuals[:2], *residuals[2],
                             residuals[3]),
                            (*former, *former_residuals[:2], *former_residuals[2],
                             former_residuals[3])):
            assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


class TestDomainErrors:
    """The messages of a loss pass outside the loss's domain. The x-y and depth terms
    apply the oracle's depth ratio and centre shift, each checked as a DeltaBatch
    component, in that order; the first case is a ground truth at non-positive depth
    whose cloud still lies in front of the camera, which only those checks catch."""

    FRONT = ModelPoints(np.random.default_rng(0).uniform([-0.1, -0.1, 0.1], [0.1, 0.1, 0.2],
                                                         (8, 3)))

    @pytest.mark.parametrize("state_t, gt_t, error, message", [
        ((0, 0, 1), (0, 0, -0.05), DomainError, "depth ratio must be positive, got -0.05"),
        ((0, 0, 1), (0, 0, 0.0), DomainError, "depth ratio must be positive, got 0.0"),
        ((0, 0, 1), (0, 0, -0.0), DomainError, "depth ratio must be positive, got -0.0"),
        ((0, 0, 3), (0, 0, -1e-300), DomainError,
         "depth ratio must be positive, got -3.3333333333333334e-301"),
        ((0, 0, 1e-10), (0, 0, 1e300), DomainError, "vz must be finite"),
        ((0, 0, 1), (1e300, 0, 1e-10), DomainError, "vx must be finite"),
        ((0, 0, 1), (0, -1e300, 1e-10), DomainError, "vy must be finite"),
        ((0, 0, -1), (0, 0, 1), DomainError, "object depth must be positive, got -1.0"),
        ((0, 0, 1), (0, 0, -0.5), DepthError,
         "updated or ground-truth pose puts a model point behind the camera"),
        # a ground truth whose projection overflows: the oracle's check, not the overflow
        ((0, 0, 1), (1e306, 0, 1.5), DomainError, "vx must be finite"),
    ])
    def test_message(self, state_t, gt_t, error, message):
        state, gt = make_state(*state_t), make_state(*gt_t)
        for loss in (total_loss, smoothness_margins, gradient_check):
            with pytest.raises(DomainError) as exc:
                loss(state, make_delta(), gt, self.FRONT)
            assert (type(exc.value), str(exc.value)) == (error, message), loss.__name__
