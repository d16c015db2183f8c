"""Closed-loop refinement simulator with oracle, noisy, and clamped
predictors."""

from dataclasses import replace

import numpy as np
import pytest

from posefocal.errors import DomainError
from posefocal.geometry import (CameraIntrinsics, ModelPoints, ParamState,
                                PoseBatch, Rotation, geodesic_distance,
                                project_point, rotation_from_6d)
from posefocal.metrics import EvalPair, evaluate_pair
from posefocal.sampling import UniformRanges, sample_pose_uniform
from posefocal.simulator import (VZ_FLOOR, ClampBounds, NoiseScales,
                                 OraclePredictor, TrialConfig,
                                 projected_bbox, run_experiment,
                                 run_refinement)
from posefocal.update_rules import (DeltaBatch, DeltaTheta, apply_update,
                                    init_state, oracle_delta,
                                    oracle_delta_batch)

POINTS = ModelPoints(np.random.default_rng(0).uniform(-0.1, 0.1, (50, 3)))
INTR = CameraIntrinsics(600.0, 0.0, 0.0)
IMG_DIAG = 800.0


def make_target(rng):
    return ParamState(Rotation(rng.standard_normal(4)),
                      np.array([rng.uniform(-0.2, 0.2),
                                rng.uniform(-0.2, 0.2),
                                rng.uniform(0.9, 1.8)]),
                      rng.uniform(450.0, 800.0))


def run_one(config, target):
    bbox = projected_bbox(target, POINTS, INTR)
    return run_refinement(config, target, bbox, POINTS, INTR, IMG_DIAG)


def batch(state, n=1):
    """``n`` copies of one state as a PoseBatch."""
    return PoseBatch.from_states([state]).take(np.zeros(n, dtype=int))


def first_row(delta: DeltaBatch) -> DeltaTheta:
    return DeltaTheta(delta.vx[0], delta.vy[0], delta.vz[0], delta.v_r1[0],
                      delta.v_r2[0], delta.vf[0])


class TestOraclePredictor:
    def test_single_oracle_step_converges(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            target = make_target(rng)
            result = run_one(TrialConfig(iterations=1), target)
            final = result.trajectory[-1]
            assert final.e_rot <= 1e-9
            assert final.e_trans <= 1e-9
            assert final.e_focal <= 1e-9
            assert result.converged

    def test_trajectory_length_is_iterations_plus_one(self):
        rng = np.random.default_rng(2)
        result = run_one(TrialConfig(iterations=7), make_target(rng))
        assert len(result.trajectory) == 8

    def test_noisy_oracle_with_zero_noise_is_oracle(self):
        rng = np.random.default_rng(3)
        target = make_target(rng)
        noiseless = OraclePredictor(noise=NoiseScales(0.0, 0.0, 0.0, 0.0, 0.0))
        result = run_one(TrialConfig(iterations=1, predictor=noiseless), target)
        assert result.trajectory[-1].e_trans <= 1e-9

    def test_noisy_focal_component_std(self):
        rng = np.random.default_rng(4)
        state = make_target(rng)
        target = make_target(rng)
        predictor = OraclePredictor(noise=NoiseScales())
        base = oracle_delta(state, target).vf
        normals = np.stack([np.random.default_rng(i).standard_normal(8)
                            for i in range(20000)])
        draws = predictor(batch(state, 20000), batch(target, 20000), 1,
                          normals).vf
        assert (draws - base).std() == pytest.approx(0.15, rel=0.03)

    def test_clamp_bounds_respected(self):
        rng = np.random.default_rng(5)
        predictor = OraclePredictor(
            clamp=ClampBounds(20.0, 0.1, 5.0, 0.05), noise=NoiseScales())
        for i in range(50):
            state, target = make_target(rng), make_target(rng)
            delta = first_row(predictor(
                batch(state), batch(target), 1,
                np.random.default_rng(i).standard_normal((1, 8))))
            assert abs(delta.vx) <= 20.0 + 1e-12
            assert abs(delta.vy) <= 20.0 + 1e-12
            assert abs(np.log(delta.vz)) <= 0.1 + 1e-12
            assert abs(delta.vf) <= 0.05 + 1e-12
            angle = geodesic_distance(
                rotation_from_6d(delta.v_r1, delta.v_r2), Rotation.identity())
            assert angle <= np.deg2rad(5.0) + 1e-9

    def test_clamped_oracle_long_run_converges_monotonically(self):
        rng = np.random.default_rng(6)
        config = TrialConfig(iterations=55,
                             predictor=OraclePredictor(
                                 clamp=ClampBounds(20.0, 0.1, 5.0, 0.05)))
        for _ in range(5):
            target = make_target(rng)
            result = run_one(config, target)
            e_pose = [rec.e_pose for rec in result.trajectory]
            assert all(b <= a + 1e-12 for a, b in zip(e_pose, e_pose[1:]))
            assert e_pose[-1] <= 1e-6

    def test_exact_rule_center_residual_beats_legacy_each_step(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            state, target = make_target(rng), make_target(rng)
            delta = oracle_delta(state, target)
            assert abs(delta.vf) > 0
            target_center = target.focal * target.translation[:2] \
                / target.translation[2]
            residuals = {}
            for legacy in (False, True):
                out = apply_update(state, delta, legacy=legacy)
                center = out.focal * out.translation[:2] / out.translation[2]
                residuals[legacy] = np.linalg.norm(center - target_center)
            assert residuals[False] < residuals[True]


class TestRunRefinement:
    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        target = make_target(rng)
        config = TrialConfig(iterations=10, seed=99,
                             predictor=OraclePredictor(noise=NoiseScales()))
        a = run_one(config, target)
        b = run_one(config, target)
        for ra, rb in zip(a.trajectory, b.trajectory):
            assert ra == rb
        assert np.array_equal(a.final_state.translation,
                              b.final_state.translation)

    def test_focal_stays_positive_under_hostile_predictor(self):
        def hostile(state, target, k, draws):
            n = len(state)
            return DeltaBatch(np.zeros(n), np.zeros(n), np.ones(n),
                              np.tile([1.0, 0, 0], (n, 1)),
                              np.tile([0.0, 1, 0], (n, 1)), np.full(n, -30.0))

        rng = np.random.default_rng(9)
        target = make_target(rng)
        config = TrialConfig(iterations=3, predictor=hostile)
        result = run_one(config, target)
        assert result.final_state.focal > 0

    def test_invalid_prediction_aborts_with_iteration_index(self):
        def broken(state, target, k, draws):
            if k == 2:
                return DeltaBatch([np.nan], [0.0], [1.0], [[1.0, 0, 0]],
                                  [[0.0, 1, 0]], [0.0])
            return oracle_delta_batch(state, target)

        rng = np.random.default_rng(10)
        config = TrialConfig(iterations=5, predictor=broken)
        with pytest.raises(DomainError, match="iteration 2"):
            run_one(config, make_target(rng))

    def test_projected_center_moves_by_prediction(self):
        rng = np.random.default_rng(11)
        target = make_target(rng)
        bbox = projected_bbox(target, POINTS, INTR)
        state = init_state(bbox, INTR)
        predictor = OraclePredictor(noise=NoiseScales())
        delta = first_row(predictor(batch(state), batch(target), 1,
                                    np.random.default_rng(0).standard_normal((1, 8))))
        before = np.asarray(project_point(
            CameraIntrinsics(state.focal, 0, 0), Rotation.identity(),
            state.translation, np.zeros(3)))
        out = apply_update(state, delta)
        after = np.asarray(project_point(
            CameraIntrinsics(out.focal, 0, 0), Rotation.identity(),
            out.translation, np.zeros(3)))
        assert np.allclose(after - before, [delta.vx, delta.vy], atol=1e-9)


class TestRunExperiment:
    def make_targets(self, n, seed):
        ranges = UniformRanges(z_range=(0.9, 1.5), f_range=(400.0, 900.0),
                               xy_box=0.3)
        return sample_pose_uniform(ranges, n, seed)

    def test_single_trial_reduces_to_run_refinement(self):
        targets = self.make_targets(1, 0)
        config = TrialConfig(iterations=5, predictor=OraclePredictor(noise=NoiseScales()),
                             seed=0)
        report = run_experiment(targets, config, POINTS, INTR, IMG_DIAG,
                                variants=("exact",), seed=3)
        bbox = projected_bbox(targets.state(0), POINTS, INTR)
        single = run_refinement(
            TrialConfig(iterations=5, predictor=OraclePredictor(noise=NoiseScales()), seed=3),
            targets.state(0), bbox, POINTS, INTR, IMG_DIAG)
        assert report["variants"]["exact"]["summary"]["medians"]["e_trans"] \
            == pytest.approx(single.trajectory[-1].e_trans)

    def test_paired_arms_share_randomness(self):
        targets = self.make_targets(10, 1)
        config = TrialConfig(iterations=8, predictor=OraclePredictor(noise=NoiseScales()))
        report = run_experiment(targets, config, POINTS, INTR, IMG_DIAG,
                                seed=7, keep_trajectories=True)
        exact = report["variants"]["exact"]["trajectories"]
        legacy = report["variants"]["legacy"]["trajectories"]
        # identical focal and rotation trajectories: those update rules are
        # shared
        for te, tl in zip(exact, legacy):
            for re_, rl in zip(te, tl):
                assert re_["e_focal"] == rl["e_focal"]
                assert re_["e_rot"] == rl["e_rot"]

    def test_report_is_deterministic(self):
        targets = self.make_targets(5, 2)
        config = TrialConfig(iterations=5, predictor=OraclePredictor(noise=NoiseScales()))
        a = run_experiment(targets, config, POINTS, INTR, IMG_DIAG, seed=11)
        b = run_experiment(targets, config, POINTS, INTR, IMG_DIAG, seed=11)
        assert a == b

    def test_empty_targets_rejected(self):
        config = TrialConfig(iterations=5)
        with pytest.raises(DomainError):
            run_experiment([], config, POINTS, INTR, IMG_DIAG)

    def test_unknown_variant_rejected(self):
        config = TrialConfig(iterations=5)
        with pytest.raises(DomainError, match="unknown update rule 'Legacy'"):
            run_experiment(self.make_targets(2, 3), config, POINTS, INTR, IMG_DIAG,
                           variants=("exact", "Legacy"))

    @pytest.mark.parametrize("img_diag", [0.0, -800.0])
    def test_nonpositive_image_diagonal_rejected(self, img_diag):
        targets = self.make_targets(2, 4)
        config = TrialConfig(iterations=5)
        with pytest.raises(DomainError, match="image diagonal"):
            run_experiment(targets, config, POINTS, INTR, img_diag)
        with pytest.raises(DomainError, match="image diagonal"):
            run_refinement(config, targets.state(0),
                           projected_bbox(targets.state(0), POINTS, INTR),
                           POINTS, INTR, img_diag)


def reference_trial(predictor, target, legacy, seed, iterations):
    """One trial, one arm, step by step through the scalar functions, with
    the noise drawn call by call from ``default_rng(seed)``."""
    bbox = projected_bbox(target, POINTS, INTR)
    rng = np.random.default_rng(seed)

    def measure(state):
        try:
            bbox_pred = projected_bbox(state, POINTS, INTR)
        except DomainError:
            bbox_pred = None
        return evaluate_pair(EvalPair(pred=state, gt=target, points=POINTS,
                                      bbox_gt=bbox, img_diag=IMG_DIAG,
                                      bbox_pred=bbox_pred)).to_dict()

    state = init_state(bbox, INTR)
    trajectory = [measure(state)]
    for _ in range(iterations):
        delta = oracle_delta(state, target)
        ns, cl = predictor.noise, predictor.clamp
        if ns is not None:
            axis = rng.standard_normal(3)
            axis /= max(np.linalg.norm(axis), 1e-15)
            angle = rng.normal(0.0, np.deg2rad(ns.sigma_rot_deg))
            mat = (Rotation.from_axis_angle(axis, angle)
                   @ rotation_from_6d(delta.v_r1, delta.v_r2)).as_matrix()
            delta = DeltaTheta(
                vx=delta.vx + rng.normal(0.0, ns.sigma_x_px),
                vy=delta.vy + rng.normal(0.0, ns.sigma_y_px),
                vz=delta.vz * float(np.exp(rng.normal(0.0, ns.sigma_z_log))),
                v_r1=mat[:, 0], v_r2=mat[:, 1],
                vf=delta.vf + rng.normal(0.0, ns.sigma_f_log))
        if cl is not None:
            r_u = rotation_from_6d(delta.v_r1, delta.v_r2)
            w, vec = r_u.quat[0], r_u.quat[1:]
            norm = np.linalg.norm(vec)
            max_angle = np.deg2rad(cl.max_angle_deg)
            if 2.0 * np.arctan2(norm, abs(w)) > max_angle:
                r_u = Rotation.from_axis_angle(
                    vec / norm * np.sign(w if w != 0 else 1.0), max_angle)
            mat = r_u.as_matrix()
            delta = DeltaTheta(
                vx=float(np.clip(delta.vx, -cl.max_px, cl.max_px)),
                vy=float(np.clip(delta.vy, -cl.max_px, cl.max_px)),
                vz=float(np.exp(np.clip(np.log(delta.vz), -cl.max_log_depth,
                                        cl.max_log_depth))),
                v_r1=mat[:, 0], v_r2=mat[:, 1],
                vf=float(np.clip(delta.vf, -cl.max_log_focal, cl.max_log_focal)))
        if delta.vz < VZ_FLOOR:
            delta = replace(delta, vz=VZ_FLOOR)
        state = apply_update(state, delta, legacy=legacy)
        trajectory.append(measure(state))
    return trajectory


@pytest.mark.parametrize("noise", [NoiseScales(),
                                   NoiseScales(sigma_y_px=0.0, sigma_z_log=0.0)])
def test_campaign_matches_scalar_reference(noise):
    """Every trajectory value of a noisy, clamped paired campaign equals the
    step-by-step scalar reference to 1e-12 relative; a zero noise scale
    still uses up its draw."""
    ranges = UniformRanges(z_range=(0.8, 1.2), f_range=(200.0, 1000.0),
                           xy_box=0.8)
    targets = sample_pose_uniform(ranges, 24, 4)
    predictor = OraclePredictor(noise=noise, clamp=ClampBounds(20.0, 0.1, 5.0, 0.02))
    config = TrialConfig(iterations=10, predictor=predictor)
    report = run_experiment(targets, config, POINTS, INTR, IMG_DIAG, seed=5,
                            keep_trajectories=True)
    for rule in ("exact", "legacy"):
        got = report["variants"][rule]["trajectories"]
        for i in range(len(targets)):
            want = reference_trial(predictor, targets.state(i), rule == "legacy",
                                   5 + i, 10)
            for rec_got, rec_want in zip(got[i], want, strict=True):
                assert rec_got.keys() == rec_want.keys()
                for key, value in rec_want.items():
                    if value is None:
                        assert rec_got[key] is None
                    else:
                        assert rec_got[key] == pytest.approx(value, rel=1e-12, abs=0.0)
