"""Closed-loop refinement simulator with oracle, noisy, and clamped
predictors."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from posefocal import geometry, simulator, update_rules
from posefocal.errors import DomainError
from posefocal.geometry import (CameraIntrinsics, ModelPoints, ParamState,
                                PoseBatch, Rotation, geodesic_distance,
                                project_point, quats_to_matrices, rotation_from_6d)
from posefocal.metrics import METRIC_FIELDS, lower_median
from posefocal.sampling import UniformRanges, sample_pose_uniform
from posefocal.simulator import (VZ_FLOOR, ClampBounds, NoiseScales,
                                 OraclePredictor, projected_bbox,
                                 run_experiment, run_refinement)
from posefocal.update_rules import (DeltaBatch, DeltaTheta, apply_update,
                                    init_state, oracle_delta)

from test_metrics import EvalPair, scalar_evaluate_pair

POINTS = ModelPoints(np.random.default_rng(0).uniform(-0.1, 0.1, (50, 3)))
INTR = CameraIntrinsics(600.0, 0.0, 0.0)
IMG_DIAG = 800.0


def make_target(rng):
    return ParamState(Rotation(rng.standard_normal(4)),
                      np.array([rng.uniform(-0.2, 0.2),
                                rng.uniform(-0.2, 0.2),
                                rng.uniform(0.9, 1.8)]),
                      rng.uniform(450.0, 800.0))


def run_one(target, **settings):
    bbox = projected_bbox(target, POINTS, INTR)
    return run_refinement(target, bbox, POINTS, INTR, IMG_DIAG, **settings)


def batch(state, n=1):
    """``n`` copies of one state as a PoseBatch."""
    return PoseBatch.from_states([state]).take(np.zeros(n, dtype=int))


def first_row(delta: DeltaBatch) -> DeltaTheta:
    rot = quats_to_matrices(delta.quat[:1])[0]
    return DeltaTheta(delta.vx[0], delta.vy[0], delta.vz[0], rot[:, 0], rot[:, 1],
                      delta.vf[0])


class TestOraclePredictor:
    def test_single_oracle_step_converges(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            target = make_target(rng)
            result = run_one(target, iterations=1)
            final = result.trajectory[-1]
            assert final["e_rot"] <= 1e-9
            assert final["e_trans"] <= 1e-9
            assert final["e_focal"] <= 1e-9
            assert result.converged

    def test_trajectory_length_is_iterations_plus_one(self):
        rng = np.random.default_rng(2)
        result = run_one(make_target(rng), iterations=7)
        assert len(result.trajectory) == 8

    def test_noisy_oracle_with_zero_noise_is_oracle(self):
        rng = np.random.default_rng(3)
        target = make_target(rng)
        noiseless = OraclePredictor(noise=NoiseScales(0.0, 0.0, 0.0, 0.0, 0.0))
        result = run_one(target, iterations=1, predictor=noiseless)
        assert result.trajectory[-1]["e_trans"] <= 1e-9

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
        settings = dict(iterations=55, predictor=OraclePredictor(
            clamp=ClampBounds(20.0, 0.1, 5.0, 0.05)))
        for _ in range(5):
            target = make_target(rng)
            result = run_one(target, **settings)
            e_pose = [rec["e_pose"] for rec in result.trajectory]
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


class TestScalesAndBounds:
    """Every field of NoiseScales and ClampBounds must be finite and in range;
    the error names the class and the field."""

    @pytest.mark.parametrize("field", ["sigma_x_px", "sigma_y_px", "sigma_z_log",
                                       "sigma_rot_deg", "sigma_f_log"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_noise_scale_rejected(self, field, value):
        with pytest.raises(DomainError,
                           match=rf"^NoiseScales\.{field} must be finite and non-negative"):
            NoiseScales(**{field: value})

    @pytest.mark.parametrize("field", ["max_px", "max_log_depth", "max_angle_deg",
                                       "max_log_focal"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_clamp_bound_rejected(self, field, value):
        with pytest.raises(DomainError,
                           match=rf"^ClampBounds\.{field} must be finite and positive"):
            ClampBounds(**{field: value})

    def test_edges_accepted(self):
        assert NoiseScales(0.0, 0.0, 0.0, 0.0, 0.0).sigma_f_log == 0.0
        assert ClampBounds(5e-324, 1e300, 1.0, 1.0).max_px == 5e-324


class TestRunRefinement:
    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        target = make_target(rng)
        settings = dict(iterations=10, seed=99,
                        predictor=OraclePredictor(noise=NoiseScales()))
        a = run_one(target, **settings)
        b = run_one(target, **settings)
        for ra, rb in zip(a.trajectory, b.trajectory):
            assert ra == rb
        assert np.array_equal(a.final_state.translation,
                              b.final_state.translation)

    def test_focal_stays_positive_under_hostile_predictor(self):
        def hostile(state, target, k, draws):
            n = len(state)
            return DeltaBatch(np.zeros(n), np.zeros(n), np.ones(n),
                              np.tile([1.0, 0, 0, 0], (n, 1)), np.full(n, -30.0))

        rng = np.random.default_rng(9)
        target = make_target(rng)
        result = run_one(target, iterations=3, predictor=hostile)
        assert result.final_state.focal > 0

    def test_invalid_prediction_aborts_with_iteration_index(self):
        def broken(state, target, k, draws):
            if k == 2:
                return DeltaBatch([np.nan], [0.0], [1.0], [[1.0, 0, 0, 0]], [0.0])
            return OraclePredictor()(state, target, k, draws)

        rng = np.random.default_rng(10)
        with pytest.raises(DomainError, match="iteration 2"):
            run_one(make_target(rng), iterations=5, predictor=broken)

    @pytest.mark.parametrize("short", ["update", "field"])
    def test_prediction_with_too_few_rows_aborts_with_iteration_index(self, short):
        """One row for N: too short as a whole, or in one field, at iteration 3."""
        def one_row(state, target, k, draws):
            delta = OraclePredictor()(state, target, k, draws)
            if k < 3:
                return delta
            if short == "update":
                return DeltaBatch(delta.vx[:1], delta.vy[:1], delta.vz[:1], delta.quat[:1],
                                  delta.vf[:1])
            return DeltaBatch(delta.vx, delta.vy, delta.vz, delta.quat, delta.vf[:1])

        targets = sample_pose_uniform(UniformRanges(z_range=(0.9, 1.5)), 4, 0)
        message = {"update": "update has 1 rows, state has 8",
                   "field": r"vf has shape \(1,\), not one row per row of vx \(8,\)"}[short]
        with pytest.raises(DomainError, match=f"^trial aborted at iteration 3: {message}$"):
            run_experiment(targets, POINTS, INTR, IMG_DIAG, predictor=one_row, iterations=5)

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
        predictor = OraclePredictor(noise=NoiseScales())
        report = run_experiment(targets, POINTS, INTR, IMG_DIAG, predictor=predictor,
                                iterations=5, variants=("exact",), seed=3)
        bbox = projected_bbox(targets.state(0), POINTS, INTR)
        single = run_refinement(targets.state(0), bbox, POINTS, INTR, IMG_DIAG,
                                predictor=predictor, iterations=5, seed=3)
        assert report["variants"]["exact"]["summary"]["medians"]["e_trans"] \
            == pytest.approx(single.trajectory[-1]["e_trans"])

    def test_paired_arms_share_randomness(self):
        targets = self.make_targets(10, 1)
        report = run_experiment(targets, POINTS, INTR, IMG_DIAG,
                                predictor=OraclePredictor(noise=NoiseScales()),
                                iterations=8, seed=7, keep_trajectories=True)
        exact = report["variants"]["exact"]["trajectories"]
        legacy = report["variants"]["legacy"]["trajectories"]
        # identical focal and rotation trajectories: those update rules are
        # shared
        for te, tl in zip(exact, legacy):
            for re_, rl in zip(te, tl):
                assert re_["e_focal"] == rl["e_focal"]
                assert re_["e_rot"] == rl["e_rot"]

    @pytest.mark.parametrize("n", [1, 2, 7, 10])
    def test_per_iteration_medians_are_each_arms_lower_medians(self, n):
        """Each per-iteration median is lower_median of its arm's column, taken here one
        column at a time. The cloud reaches 1.5 m behind its origin, so it starts behind
        the camera of the initial state at 1 m depth: e_proj is inf on rows, then on some."""
        deep = ModelPoints(np.random.default_rng(n).uniform([-0.1, -0.1, -1.5],
                                                            [0.1, 0.1, 0.1], (30, 3)))
        ranges = UniformRanges(z_range=(1.8, 2.4), f_range=(400.0, 900.0), xy_box=0.3)
        report = run_experiment(sample_pose_uniform(ranges, n, n), deep, INTR, IMG_DIAG,
                                predictor=OraclePredictor(NoiseScales(), ClampBounds()),
                                iterations=8, seed=n, keep_trajectories=True)
        inf_proj = []
        for entry in report["variants"].values():
            for k, medians in enumerate(entry["per_iteration_medians"]):
                assert medians["iteration"] == k
                for f in METRIC_FIELDS:
                    column = [trial[k][f] for trial in entry["trajectories"]]
                    assert len(column) == n
                    want = lower_median(column)
                    assert type(medians[f"median_{f}"]) is float
                    assert medians[f"median_{f}"] == want, (k, f)
                    inf_proj += [math.isinf(v) for v in column] if f == "e_proj" else []
        assert any(inf_proj) and not all(inf_proj)

    def test_report_is_deterministic(self):
        targets = self.make_targets(5, 2)
        settings = dict(predictor=OraclePredictor(noise=NoiseScales()), iterations=5,
                        seed=11)
        a = run_experiment(targets, POINTS, INTR, IMG_DIAG, **settings)
        b = run_experiment(targets, POINTS, INTR, IMG_DIAG, **settings)
        assert a == b

    def test_empty_targets_rejected(self):
        with pytest.raises(DomainError):
            run_experiment([], POINTS, INTR, IMG_DIAG, iterations=5)

    def test_unknown_variant_rejected(self):
        targets = self.make_targets(2, 3)
        with pytest.raises(DomainError, match="unknown update rule 'Legacy'"):
            run_experiment(targets, POINTS, INTR, IMG_DIAG,
                           iterations=5, variants=("exact", "Legacy"))
        with pytest.raises(DomainError, match="unknown update rule 'Legacy'"):
            run_refinement(targets.state(0),
                           projected_bbox(targets.state(0), POINTS, INTR),
                           POINTS, INTR, IMG_DIAG, update_rule="Legacy")

    @pytest.mark.parametrize("variants, name", [(("exact", "exact"), "exact"),
                                                (("legacy", "exact", "legacy"), "legacy")])
    def test_duplicate_variant_rejected(self, variants, name):
        """A repeated arm would run twice yet keep one report entry."""
        with pytest.raises(DomainError, match=f"duplicate update rule '{name}'"):
            run_experiment(self.make_targets(2, 3), POINTS, INTR, IMG_DIAG,
                           iterations=5, variants=variants)

    def test_final_iou_alone_gives_the_same_report(self):
        """Without trajectories the IoU is scored at the last iteration only;
        the report is the one kept trajectories give, minus them. Small
        objects under noise leave some final boxes off the ground truth."""
        points = ModelPoints(np.random.default_rng(0).uniform(-0.02, 0.02, (50, 3)))
        settings = dict(predictor=OraclePredictor(noise=NoiseScales(), clamp=ClampBounds()),
                        iterations=6, seed=5)
        targets = sample_pose_uniform(UniformRanges(z_range=(0.8, 1.2), f_range=(200.0, 1000.0),
                                                    xy_box=0.8), 20, 4)
        short = run_experiment(targets, points, INTR, IMG_DIAG, **settings)
        full = run_experiment(targets, points, INTR, IMG_DIAG, keep_trajectories=True,
                              **settings)
        for rule, entry in full["variants"].items():
            final = [trial[-1]["iou"] for trial in entry.pop("trajectories")]
            assert 0.0 in final and max(final) > 0.5
            assert short["variants"][rule]["summary"]["accuracies"]["acc_det_0.5"] \
                == entry["summary"]["accuracies"]["acc_det_0.5"] \
                == sum(v > 0.5 for v in final) / len(final)
        assert short == full

    @pytest.mark.parametrize("img_diag", [0.0, -800.0, float("nan"), float("inf")])
    def test_nonpositive_image_diagonal_rejected(self, img_diag):
        targets = self.make_targets(2, 4)
        with pytest.raises(DomainError, match="image diagonal"):
            run_experiment(targets, POINTS, INTR, img_diag, iterations=5)
        with pytest.raises(DomainError, match="image diagonal"):
            run_refinement(targets.state(0),
                           projected_bbox(targets.state(0), POINTS, INTR),
                           POINTS, INTR, img_diag, iterations=5)

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_iteration_count_below_one_rejected(self, iterations):
        targets = self.make_targets(2, 5)
        with pytest.raises(DomainError, match="iteration count must be at least 1"):
            run_experiment(targets, POINTS, INTR, IMG_DIAG, iterations=iterations)
        with pytest.raises(DomainError, match="iteration count must be at least 1"):
            run_refinement(targets.state(0),
                           projected_bbox(targets.state(0), POINTS, INTR),
                           POINTS, INTR, IMG_DIAG, iterations=iterations)


def campaign_draws(n, seed, iterations=4):
    """(n, iterations, 8): the draws a campaign of ``n`` trials at ``seed`` hands its
    predictor for each trial, recorded call by call."""
    seen, oracle = [], OraclePredictor()

    def predictor(state, target, k, draws):
        seen.append(draws.copy())
        return oracle(state, target, k, draws)

    ranges = UniformRanges(z_range=(0.9, 1.5), f_range=(400.0, 900.0), xy_box=0.3)
    run_experiment(sample_pose_uniform(ranges, n, 0), POINTS, INTR, IMG_DIAG,
                   predictor=predictor, iterations=iterations, variants=("exact",), seed=seed)
    return np.stack(seen, axis=1)


class TestNoiseStreams:
    """Trial i of a campaign at seed s reads the i-th block of one draw from child 1 of
    SeedSequence(s): no draw is shared between trials or between seeds."""

    def test_no_two_trials_of_a_campaign_share_draws(self):
        draws = campaign_draws(60, 0)
        assert np.unique(draws).size == draws.size

    @pytest.mark.parametrize("seed", [0, 1, 41])
    def test_no_trial_shares_draws_with_the_next_seed(self, seed):
        assert np.intersect1d(campaign_draws(60, seed), campaign_draws(60, seed + 1)).size == 0

    def test_trial_draws_do_not_depend_on_the_trial_count(self):
        draws = campaign_draws(60, 3)
        for n in (1, 7):
            assert np.array_equal(campaign_draws(n, 3), draws[:n])


def reference_trial(predictor, target, legacy, seed, trial, iterations):
    """One trial, one arm, step by step through the scalar functions, with
    the noise drawn call by call from child 1 of ``SeedSequence(seed)``, past
    the ``iterations * 8`` normals of each trial before ``trial``."""
    bbox = projected_bbox(target, POINTS, INTR)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    rng.standard_normal(trial * iterations * 8)

    def measure(state):
        try:
            bbox_pred = projected_bbox(state, POINTS, INTR)
        except DomainError:
            bbox_pred = None
        return scalar_evaluate_pair(EvalPair(pred=state, gt=target, points=POINTS,
                                             bbox_gt=bbox, img_diag=IMG_DIAG,
                                             bbox_pred=bbox_pred))

    xc, yc = 0.5 * (bbox.x1 + bbox.x2), 0.5 * (bbox.y1 + bbox.y2)
    state = ParamState(Rotation.identity(), np.array([(xc - INTR.cx) / INTR.focal,
                                                      (yc - INTR.cy) / INTR.focal, 1.0]),
                       INTR.focal)
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
    report = run_experiment(targets, POINTS, INTR, IMG_DIAG, predictor=predictor,
                            iterations=10, seed=5, keep_trajectories=True)
    for rule in ("exact", "legacy"):
        got = report["variants"][rule]["trajectories"]
        for i in range(len(targets)):
            want = reference_trial(predictor, targets.state(i), rule == "legacy",
                                   5, i, 10)
            for rec_got, rec_want in zip(got[i], want, strict=True):
                assert rec_got.keys() == rec_want.keys()
                for key, value in rec_want.items():
                    if value is None:
                        assert rec_got[key] is None
                    else:
                        assert rec_got[key] == pytest.approx(value, rel=1e-12, abs=0.0)


def six_d_predictor(vz):
    """An outside predictor that emits a 6D pair (the identity rotation), no
    shift and no focal change, and depth ratio ``vz``, for every row."""
    def predict(state, target, k, draws):
        n = len(state)
        quat = geometry.quats_from_6d(np.tile([1.0, 0, 0], (n, 1)), np.tile([0.0, 1, 0], (n, 1)))
        return DeltaBatch(np.zeros(n), np.zeros(n), np.full(n, vz), quat, np.zeros(n))
    return predict


class TestOneDecodeAndOneCheckPerIteration:
    ITERATIONS = 6

    def run(self, monkeypatch, predictor):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for module in (geometry, simulator, update_rules):
            for name in ("quats_from_6d", "matrices_to_quats"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(DeltaBatch, "__post_init__",
                            counting("check", DeltaBatch.__post_init__))
        targets = sample_pose_uniform(UniformRanges(z_range=(0.9, 1.5)), 8, 0)
        run_experiment(targets, POINTS, INTR, IMG_DIAG, predictor=predictor,
                       iterations=self.ITERATIONS, seed=1)
        return calls

    def test_oracle_keeps_its_rotation_a_quaternion(self, monkeypatch):
        calls = self.run(monkeypatch, OraclePredictor(noise=NoiseScales(),
                                                      clamp=ClampBounds()))
        assert calls == Counter(check=self.ITERATIONS)

    def test_outside_6d_pair_is_decoded_once(self, monkeypatch):
        calls = self.run(monkeypatch, six_d_predictor(1.0))
        assert calls == Counter(check=self.ITERATIONS, quats_from_6d=self.ITERATIONS,
                                matrices_to_quats=self.ITERATIONS)


@pytest.mark.parametrize("rule", ["exact", "legacy"])
def test_depth_ratio_floor_scales_each_step(rule):
    """A collapsing depth ratio moves the depth by exactly VZ_FLOOR per step."""
    depths, predict = [], six_d_predictor(1e-300)

    def recording(state, target, k, draws):
        depths.append(state.translation[0, 2])
        return predict(state, target, k, draws)

    result = run_one(make_target(np.random.default_rng(12)), iterations=4,
                     predictor=recording, update_rule=rule)
    depths.append(result.final_state.translation[2])
    assert depths[0] == 1.0
    for before, after in zip(depths, depths[1:]):
        assert after == VZ_FLOOR * before


@pytest.mark.parametrize("predictor", [
    OraclePredictor(), OraclePredictor(noise=NoiseScales()),
    OraclePredictor(noise=NoiseScales(), clamp=ClampBounds(20.0, 0.1, 5.0, 0.02))],
    ids=["oracle", "noisy", "noisy-clamped"])
def test_negated_target_quaternions_give_the_same_report(predictor):
    """q and -q are one rotation: the report does not depend on the sign."""
    targets = sample_pose_uniform(UniformRanges(z_range=(0.8, 1.2), f_range=(200.0, 1000.0),
                                                xy_box=0.8), 24, 4)
    negated = PoseBatch(-targets.quat, targets.translation, targets.focal)
    settings = dict(predictor=predictor, iterations=10, seed=5, keep_trajectories=True)
    assert json.dumps(run_experiment(negated, POINTS, INTR, IMG_DIAG, **settings)) \
        == json.dumps(run_experiment(targets, POINTS, INTR, IMG_DIAG, **settings))
