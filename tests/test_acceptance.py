"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured figure and its budget."""

import json
import time

import numpy as np
import scipy.linalg
from click.testing import CliRunner

from posefocal.geometry import (BBox, CameraIntrinsics, ModelPoints,
                                ParamState, Rotation, project_point)
from posefocal.losses import (LossWeights, gradient_check, reprojection_loss,
                              total_loss)
from posefocal.metrics import EvalPair, err_pose, err_rot, err_trans
from posefocal.sampling import (BinghamParams, UniformRanges, fit_bingham,
                                fit_translation_focal, sample_bingham,
                                sample_pose_uniform, sample_rotation_uniform)
from posefocal.simulator import (ClampBounds, NoiseScales, TrialConfig,
                                 OraclePredictor, run_experiment)
from posefocal.update_rules import (DeltaTheta, apply_update, oracle_delta)

from test_sampling import make_record


def report(name: str, passed: bool, detail: str):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def random_state(rng):
    return ParamState(Rotation(rng.standard_normal(4)),
                      np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                rng.uniform(0.3, 3.0)]),
                      rng.uniform(200.0, 1000.0))


def random_delta(rng):
    return DeltaTheta(rng.normal(0, 30), rng.normal(0, 30),
                      float(np.exp(rng.normal(0, 0.3))),
                      rng.standard_normal(3), rng.standard_normal(3),
                      rng.normal(0, 0.3))


def test_oracle_inversion():
    """10^4 (state, target) pairs invert within 1e-9 in under 5 s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        state, target = random_state(rng), random_state(rng)
        out = apply_update(state, oracle_delta(state, target))
        worst = max(worst,
                    float(np.abs(out.translation - target.translation).max()),
                    abs(out.focal - target.focal),
                    float(np.abs(out.rotation.as_matrix()
                                 - target.rotation.as_matrix()).max()))
    elapsed = time.perf_counter() - start
    report("oracle inversion",
           worst <= 1e-9 and elapsed < 5.0,
           f"max component error {worst:.3e} (tol 1e-9), "
           f"{elapsed:.2f}s (budget 5s) over 10^4 pairs")


def test_pixel_displacement_identity():
    """Exact rule moves the projected center by (v_x, v_y) within 1e-9 on
    10^4 random steps; the legacy rule's carried center term is scaled by
    exactly f_k/f_{k+1} = 1/1.1 when the focal grows by 1.1. Under 5 s."""
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    worst_exact = 0.0
    worst_legacy = 0.0
    ratio = 1.1
    for _ in range(10_000):
        state = random_state(rng)
        delta = random_delta(rng)

        center = lambda s: np.asarray(project_point(
            CameraIntrinsics(s.focal, 0.0, 0.0), Rotation.identity(),
            s.translation, np.zeros(3)))
        out = apply_update(state, delta)
        moved = center(out) - center(state)
        worst_exact = max(worst_exact,
                          float(np.abs(moved - [delta.vx, delta.vy]).max()))

        step_up = DeltaTheta(delta.vx, delta.vy, delta.vz, delta.v_r1,
                             delta.v_r2, float(np.log(ratio)))
        legacy = apply_update(state, step_up, legacy=True)
        carried = center(legacy) - np.array([step_up.vx, step_up.vy])
        # the legacy rule carries the old center scaled by f'/f = 1.1; the
        # exact rule's carried term is therefore legacy's times 1/1.1
        worst_legacy = max(worst_legacy,
                           float(np.abs(carried / ratio - center(state)).max()))
    elapsed = time.perf_counter() - start
    report("pixel-displacement identity",
           worst_exact <= 1e-9 and worst_legacy <= 1e-9 and elapsed < 5.0,
           f"exact-rule residual {worst_exact:.3e}, legacy 1/1.1-scaling "
           f"residual {worst_legacy:.3e} (tol 1e-9), {elapsed:.2f}s "
           f"(budget 5s) over 10^4 steps")


def smooth_case(rng):
    pts = ModelPoints(rng.uniform(-0.1, 0.1, size=(20, 3)))
    state, gt = random_state(rng), random_state(rng)
    hat = oracle_delta(state, gt)
    delta = DeltaTheta(hat.vx + rng.normal(0, 5), hat.vy + rng.normal(0, 5),
                       hat.vz * float(np.exp(rng.normal(0, 0.05))),
                       hat.v_r1 + rng.normal(0, 0.05, 3),
                       hat.v_r2 + rng.normal(0, 0.05, 3),
                       hat.vf + rng.normal(0, 0.05))
    return state, delta, gt, pts


def test_gradient_correctness():
    """Analytic total-loss gradients match central finite differences
    (h=1e-6) at 100 random smooth points within 1e-5 relative, under 10 s."""
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 100:
        state, delta, gt, pts = smooth_case(rng)
        rep = gradient_check(state, delta, gt, pts, LossWeights(), step=1e-6)
        if not rep["smooth"]:
            continue
        worst = max(worst, rep["max_rel_err"])
        checked += 1
    elapsed = time.perf_counter() - start
    report("gradient correctness",
           worst <= 1e-5 and elapsed < 10.0,
           f"max relative error {worst:.3e} (tol 1e-5) at 100 smooth points, "
           f"{elapsed:.2f}s (budget 10s)")


def modest_case(rng):
    """A case at ordinary scene scale so 1e-12 absolute comparisons are
    well above float rounding of the loss values."""
    pts = ModelPoints(rng.uniform(-0.05, 0.05, size=(10, 3)))
    state = ParamState(Rotation(rng.standard_normal(4)),
                       np.array([rng.uniform(-0.1, 0.1),
                                 rng.uniform(-0.1, 0.1),
                                 rng.uniform(0.8, 1.5)]),
                       rng.uniform(500.0, 700.0))
    gt = ParamState(Rotation(rng.standard_normal(4)),
                    np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                              rng.uniform(0.8, 1.5)]),
                    rng.uniform(500.0, 700.0))
    hat = oracle_delta(state, gt)
    delta = DeltaTheta(hat.vx + rng.normal(0, 2), hat.vy + rng.normal(0, 2),
                       hat.vz * float(np.exp(rng.normal(0, 0.05))),
                       hat.v_r1 + rng.normal(0, 0.05, 3),
                       hat.v_r2 + rng.normal(0, 0.05, 3),
                       hat.vf + rng.normal(0, 0.05))
    return state, delta, gt, pts


def test_disentanglement():
    """Perturbing v_f leaves the point-matching loss and the reprojection
    pose half unchanged to 1e-12; perturbing the rotation leaves the Huber
    term and the reprojection focal half unchanged to 1e-12."""
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(50):
        state, delta, gt, pts = modest_case(rng)
        br = total_loss(state, delta, gt, pts)

        def focal_half(d):
            pred = ParamState(gt.rotation, gt.translation,
                              float(np.exp(d.vf) * state.focal))
            return reprojection_loss(pred, gt, pts)

        def pose_half(d, breakdown):
            return 2.0 * breakdown.reprojection - focal_half(d)

        bumped_f = DeltaTheta(delta.vx, delta.vy, delta.vz, delta.v_r1,
                              delta.v_r2, delta.vf + 0.2)
        br_f = total_loss(state, bumped_f, gt, pts)
        worst = max(worst, abs(br_f.pose - br.pose),
                    abs(pose_half(bumped_f, br_f) - pose_half(delta, br)))

        bumped_r = DeltaTheta(delta.vx, delta.vy, delta.vz,
                              delta.v_r1 + 0.1, delta.v_r2 - 0.1, delta.vf)
        br_r = total_loss(state, bumped_r, gt, pts)
        worst = max(worst, abs(br_r.huber - br.huber),
                    abs((2 * br_r.reprojection - pose_half_direct(state, bumped_r, gt, pts))
                        - (2 * br.reprojection - pose_half_direct(state, delta, gt, pts))))
    report("loss disentanglement", worst <= 1e-12,
           f"max cross-term leakage {worst:.3e} (tol 1e-12) over 50 cases")


def pose_half_direct(state, delta, gt, pts):
    """Reprojection pose half rebuilt from public operations: predicted
    rotation, translation updated with the ground-truth focal."""
    from posefocal.update_rules import (apply_rotation_update,
                                        apply_translation_update)
    rot = apply_rotation_update(state.rotation, delta.v_r1, delta.v_r2)
    t = apply_translation_update(state, delta, f_new=gt.focal)
    return reprojection_loss(ParamState(rot, t, gt.focal), gt, pts)


def test_distribution_round_trips():
    """Bingham refit on 10^5 of its own samples recovers each z_i within
    15%; Gaussian fits recover means within 1% and covariances within 5% at
    n=10^4. Under 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2028)
    m, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    true = BinghamParams(m, np.array([-10.0, -5.0, -2.0, 0.0]))
    quats = sample_bingham(true, 100_000, rng)
    fitted = fit_bingham(quats)
    z_rel = float(np.abs((fitted.z[:3] - true.z[:3]) / true.z[:3]).max())

    mean_xy = np.array([0.3, 0.5])
    cov_xy = np.array([[0.0025, 0.002], [0.002, 0.004]])
    mean_zf = np.array([np.log(1.5), np.log(600.0)])
    cov_zf = np.array([[0.02, 0.008], [0.008, 0.015]])
    chol_xy, chol_zf = np.linalg.cholesky(cov_xy), np.linalg.cholesky(cov_zf)
    records = []
    for _ in range(10_000):
        xy = mean_xy + chol_xy @ rng.standard_normal(2)
        zf = np.exp(mean_zf + chol_zf @ rng.standard_normal(2))
        records.append(make_record(Rotation(rng.standard_normal(4)),
                                   [xy[0], xy[1], zf[0]], zf[1]))
    fit_xy, fit_zf = fit_translation_focal(records)
    mean_rel = max(float(np.abs((fit_xy.mean - mean_xy) / mean_xy).max()),
                   float(np.abs((fit_zf.mean - mean_zf) / mean_zf).max()))
    cov_rel = max(float(np.abs((fit_xy.cov - cov_xy) / cov_xy).max()),
                  float(np.abs((fit_zf.cov - cov_zf) / cov_zf).max()))
    elapsed = time.perf_counter() - start
    report("distribution round-trips",
           z_rel <= 0.15 and mean_rel <= 0.01 and cov_rel <= 0.05
           and elapsed < 60.0,
           f"Bingham z rel err {z_rel:.3f} (tol 0.15) at n=10^5; Gaussian "
           f"mean rel err {mean_rel:.4f} (tol 0.01), cov rel err "
           f"{cov_rel:.4f} (tol 0.05) at n=10^4; {elapsed:.1f}s (budget 60s)")


def test_haar_uniformity():
    """Rotation-angle K-S statistic against the Haar density (1-cos t)/pi
    is at most 0.01 at n=10^5."""
    rng = np.random.default_rng(2029)
    quats = sample_rotation_uniform(100_000, rng)
    angles = np.sort(2 * np.arccos(np.clip(np.abs(quats[:, 0]), 0.0, 1.0)))
    cdf = (angles - np.sin(angles)) / np.pi
    n = len(angles)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    ks = float(max(np.abs(upper - cdf).max(), np.abs(cdf - lower).max()))
    report("Haar uniformity", ks <= 0.01,
           f"K-S statistic {ks:.4f} (tol 0.01) at n=10^5")


def test_update_rule_ablation():
    """Paired campaign, 1000 trials, clamped-noisy oracle at the refiner's
    training noise scales, K=15: medians of the final focal and translation
    errors under the exact rule do not exceed the legacy rule's. Under 2 min.

    The target distribution uses laterally offset objects and a tight
    per-step focal cap so the focal length is still being adjusted at every
    iteration -- the regime where the two translation rules actually differ.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    points = ModelPoints(rng.uniform(-0.1, 0.1, size=(100, 3)))
    intrinsics = CameraIntrinsics(600.0, 0.0, 0.0)
    clamp = ClampBounds(max_px=20.0, max_log_depth=0.1, max_angle_deg=5.0,
                        max_log_focal=0.02)
    ranges = UniformRanges(z_range=(0.8, 1.2), f_range=(200.0, 1000.0),
                           xy_box=0.8)
    targets = sample_pose_uniform(ranges, 1000, seed=0)
    config = TrialConfig(iterations=15,
                         predictor=OraclePredictor(clamp=clamp,
                                                   noise=NoiseScales()))
    rep = run_experiment(targets, config, points, intrinsics,
                         img_diag=800.0, seed=0)
    med_exact = rep["variants"]["exact"]["summary"]["medians"]
    med_legacy = rep["variants"]["legacy"]["summary"]["medians"]
    elapsed = time.perf_counter() - start
    ok = (med_exact["e_focal"] <= med_legacy["e_focal"]
          and med_exact["e_trans"] <= med_legacy["e_trans"]
          and elapsed < 120.0)
    report("update-rule ablation", ok,
           f"median e_f exact {med_exact['e_focal']:.5f} vs legacy "
           f"{med_legacy['e_focal']:.5f}; median e_t exact "
           f"{med_exact['e_trans']:.5f} vs legacy {med_legacy['e_trans']:.5f}; "
           f"1000 paired trials, K=15, {elapsed:.1f}s (budget 120s)")


def test_metric_oracle_equivalence():
    """err_rot matches the matrix-log rotation distance within 1e-7 on 100
    random pairs; with equal rotations err_pose equals
    (d_bbox/d_img) * e_t to 1e-12 for arbitrary point clouds."""
    rng = np.random.default_rng(2030)
    bbox = BBox(0, 0, 60, 80)
    worst_rot = 0.0
    worst_pose = 0.0
    for _ in range(100):
        a, b = random_state(rng), random_state(rng)
        pts = ModelPoints(rng.uniform(-1.0, 1.0, size=(rng.integers(1, 30), 3)))
        pair = EvalPair(pred=a, gt=b, points=pts, bbox_gt=bbox, img_diag=800.0)
        rel = a.rotation.as_matrix().T @ b.rotation.as_matrix()
        brute = float(np.linalg.norm(scipy.linalg.logm(rel), "fro") / np.sqrt(2))
        worst_rot = max(worst_rot, abs(err_rot(pair) - brute))

        shared = Rotation(rng.standard_normal(4))
        p = ParamState(shared, a.translation, a.focal)
        g = ParamState(shared, b.translation, b.focal)
        pair_eq = EvalPair(pred=p, gt=g, points=pts, bbox_gt=bbox,
                           img_diag=800.0)
        expected = bbox.diagonal / 800.0 * err_trans(pair_eq)
        worst_pose = max(worst_pose, abs(err_pose(pair_eq) - expected))
    report("metric oracle equivalence",
           worst_rot <= 1e-7 and worst_pose <= 1e-12,
           f"err_rot vs matrix log {worst_rot:.3e} (tol 1e-7); "
           f"err_pose identity residual {worst_pose:.3e} (tol 1e-12)")


def test_cli_determinism(tmp_path, monkeypatch):
    """Every CLI command rerun with an identical seed produces byte-identical
    output files."""
    from posefocal.cli import main as cli_main

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    runner = CliRunner()
    rng = np.random.default_rng(2031)
    ann = tmp_path / "ann.jsonl"
    with open(ann, "w") as fh:
        for _ in range(100):
            rec = make_record(
                Rotation(rng.standard_normal(4) + np.array([2.0, 0, 0, 0])),
                [rng.normal(0, 0.1), rng.normal(0, 0.1),
                 float(np.exp(rng.normal(0.3, 0.15)))],
                float(np.exp(rng.normal(6.3, 0.2))))
            fh.write(json.dumps(rec.to_dict()) + "\n")
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "n_trials": 5, "iterations": 15, "seed": 3,
        "predictor": {"noise": {}, "clamp": {}},
        "targets": {"kind": "uniform", "z_range": [0.9, 1.5],
                    "f_range": [400, 900], "xy_box": 0.3},
        "model_points": {"count": 40, "extent": 0.2, "seed": 1}}))
    pairs = tmp_path / "pairs.jsonl"
    state = {"quat_wxyz": [1, 0, 0, 0], "t_m": [0.1, -0.1, 1.5],
             "focal_px": 600.0}
    pairs.write_text(json.dumps(
        {"model_points": {"cube": [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]]}})
        + "\n" + json.dumps({"pred": state, "gt": state, "points": "cube",
                             "bbox_gt": [0, 0, 60, 80], "img_diag": 800.0})
        + "\n")

    commands = {
        "fit-param": ["fit-dist", str(ann), "--kind", "parametric"],
        "fit-nonparam": ["fit-dist", str(ann), "--kind", "nonparametric"],
        "simulate": ["simulate", "--config", str(sim_cfg)],
        "evaluate": ["evaluate", str(pairs)],
        "gradcheck": ["gradcheck", "--seed", "4", "-n", "10"],
    }
    outputs = {}
    mismatches = []
    for rerun in ("first", "second"):
        for name, args in commands.items():
            out = tmp_path / f"{name}_{rerun}.json"
            res = runner.invoke(cli_main, args + ["--out", str(out)])
            assert res.exit_code == 0, f"{name}: {res.output}"
            outputs.setdefault(name, []).append(out.read_bytes())
        # sample reads a fit-dist output; use the same file both times since
        # the manifest records the input path
        dist = tmp_path / "fit-param_first.json"
        out = tmp_path / f"sample_{rerun}.jsonl"
        res = runner.invoke(cli_main, ["sample", str(dist), "-n", "30",
                                       "--seed", "6", "--out", str(out)])
        assert res.exit_code == 0, res.output
        outputs.setdefault("sample", []).append(out.read_bytes())
    for name, (first, second) in outputs.items():
        if first != second:
            mismatches.append(name)
    report("CLI determinism", not mismatches,
           "byte-identical reruns for " + ", ".join(outputs)
           + (f"; mismatches: {mismatches}" if mismatches else ""))
