"""Seeded input files for the three benchmark workloads.

Inputs are drawn with the standard library's ``random.Random`` so that
making them imports neither NumPy nor ``posefocal``: the benchmark times the
program's import as part of set-up, and its own input generation stays out
of that figure and out of the process's peak resident set.

Each workload gets its own stream, ``Random(f"{workload}:{seed}")`` (string
seeds are hashed with SHA-512, so streams are stable across Python builds).
Every ``make_*`` function writes its files into ``workdir`` and returns the
workload's operations as (name, CLI argument vector) pairs, with paths
relative to ``workdir`` so that run manifests do not depend on where the
checkout lives.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload pass; ``FULL`` is timed, ``SMOKE`` is for tests."""

    sim_trials: int
    annotations: int
    samples_parametric: int
    samples_nonparametric: int
    eval_pairs: int
    gradcheck_points: int


# ablation: 60 paired trials keep the summed-median translation check at
# about 4.6 standard deviations from failing (40 seeds measured), while one
# pass stays near 1.5 s. datagen: 150 records keep the O(n^2) delta
# selection near the other three commands' share. score: evaluate and
# gradcheck each take about half a pass.
FULL = Sizes(sim_trials=60, annotations=150, samples_parametric=10000,
             samples_nonparametric=2500, eval_pairs=1400, gradcheck_points=12)
SMOKE = Sizes(sim_trials=30, annotations=30, samples_parametric=400,
              samples_nonparametric=150, eval_pairs=80, gradcheck_points=3)

# Refinement regime of the update-rule ablation: the per-step focal cap keeps
# the focal length moving at every iteration, where the two rules differ.
SIM_ITERATIONS = 15
SIM_Z_RANGE = (0.8, 1.2)
SIM_F_RANGE = (200.0, 1000.0)
SIM_XY_BOX = 0.8
SIM_CLAMP = {"max_px": 20.0, "max_log_depth": 0.1, "max_angle_deg": 5.0,
             "max_log_focal": 0.02}
SIM_FOCAL_INIT = 600.0
SIM_IMG_DIAG = 800.0
SIM_POINTS = 100
SIM_EXTENT = 0.2

# Annotations of upright objects: any yaw, a few degrees of pitch and roll.
# 6 degrees puts the fitted concentrations near -200, on the 96-node
# quadrature grid and well inside the fit's -900 clamp.
ANN_TILT_DEG = 6.0
ANN_LOG_Z = (math.log(2.0), 0.3)
ANN_LOG_F = (math.log(700.0), 0.25)
ANN_IMG_WH = (1280.0, 960.0)

# Scoring pairs: one shared point cloud, a fifth of the predictions flipped
# by 180 degrees about the object's up axis (plus small noise).
EVAL_POINTS = 50
EVAL_EXTENT = 0.3
EVAL_IMG_DIAG = math.hypot(*ANN_IMG_WH)
EVAL_FLIP_SHARE = 0.2
# Exact half-turns, drawn from a fixed stream that does not depend on the
# workload seed. Exact flips are where `geometry.geodesic_distance` loses up
# to 3e-8 rad, so these pairs expose that fault in every run.
EXACT_FLIPS = 64
EXACT_FLIP_STREAM = "score:exact-flips"


def _qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return [w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2]


def _axis_angle(axis, angle):
    n = math.sqrt(sum(c * c for c in axis))
    s = math.sin(0.5 * angle) / n
    return [math.cos(0.5 * angle)] + [s * c for c in axis]


def _random_axis(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        if sum(c * c for c in v) > 1e-12:
            return v


def _haar_quat(rng):
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    return [a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2),
            b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3)]


def _quat_matrix(q):
    n = math.sqrt(sum(c * c for c in q))
    w, x, y, z = (c / n for c in q)
    return [[1 - 2 * y * y - 2 * z * z, 2 * x * y - 2 * w * z, 2 * x * z + 2 * w * y],
            [2 * x * y + 2 * w * z, 1 - 2 * x * x - 2 * z * z, 2 * y * z - 2 * w * x],
            [2 * x * z - 2 * w * y, 2 * y * z + 2 * w * x, 1 - 2 * x * x - 2 * y * y]]


def _projected_box(q, t, f, points):
    """Box around the pinhole projections (principal point at the origin),
    or None when a point is not in front of the camera."""
    m = _quat_matrix(q)
    us, vs = [], []
    for p in points:
        c = [sum(m[i][j] * p[j] for j in range(3)) + t[i] for i in range(3)]
        if c[2] <= 0:
            return None
        us.append(f * c[0] / c[2])
        vs.append(f * c[1] / c[2])
    return [min(us), min(vs), max(us), max(vs)]


def _cube_points(rng, n, extent):
    h = extent / 2.0
    return [[rng.uniform(-h, h) for _ in range(3)] for _ in range(n)]


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


Ops = list[tuple[str, list[str]]]


def make_ablation(workdir: Path, seed: int, sizes: Sizes) -> Ops:
    rng = random.Random(f"ablation:{seed}")
    targets = [{"quat_wxyz": _haar_quat(rng),
                "t_m": [rng.uniform(-SIM_XY_BOX / 2, SIM_XY_BOX / 2),
                        rng.uniform(-SIM_XY_BOX / 2, SIM_XY_BOX / 2),
                        rng.uniform(*SIM_Z_RANGE)],
                "focal_px": rng.uniform(*SIM_F_RANGE)}
               for _ in range(sizes.sim_trials)]
    _write_jsonl(workdir / "targets.jsonl", targets)
    _write_json(workdir / "points.json", _cube_points(rng, SIM_POINTS, SIM_EXTENT))
    _write_json(workdir / "sim.json", {
        "n_trials": sizes.sim_trials, "iterations": SIM_ITERATIONS, "seed": seed,
        "update_rules": ["exact", "legacy"],
        "predictor": {"noise": {}, "clamp": SIM_CLAMP},
        "targets": {"kind": "file", "path": "targets.jsonl"},
        "model_points": {"path": "points.json"},
        "focal_init": SIM_FOCAL_INIT, "img_diag": SIM_IMG_DIAG,
    })
    return [("simulate",
             ["simulate", "--config", "sim.json", "--out", "report.json"])]


def _annotation(rng):
    tilt = math.radians(ANN_TILT_DEG)
    q = _qmul(_axis_angle((0, 1, 0), rng.uniform(0.0, 2 * math.pi)),
              _qmul(_axis_angle((1, 0, 0), rng.gauss(0.0, tilt)),
                    _axis_angle((0, 0, 1), rng.gauss(0.0, tilt))))
    z = math.exp(rng.gauss(*ANN_LOG_Z))
    f = math.exp(rng.gauss(*ANN_LOG_F))
    x, y = rng.gauss(0.0, 0.3), rng.gauss(0.1, 0.1)
    w, h = ANN_IMG_WH
    u, v = f * x / z + w / 2, f * y / z + h / 2
    half = 0.25 * f / z
    return {"quat_wxyz": q, "t_m": [x, y, z], "f_px": f, "img_wh": [w, h],
            "bbox": [u - half, v - 0.75 * half, u + half, v + 0.75 * half]}


def make_datagen(workdir: Path, seed: int, sizes: Sizes) -> Ops:
    rng = random.Random(f"datagen:{seed}")
    _write_jsonl(workdir / "annotations.jsonl",
                 [_annotation(rng) for _ in range(sizes.annotations)])
    return [
        ("fit_dist_parametric",
         ["fit-dist", "annotations.jsonl", "--kind", "parametric",
          "--out", "dist_parametric.json"]),
        ("fit_dist_nonparametric",
         ["fit-dist", "annotations.jsonl", "--kind", "nonparametric",
          "--out", "dist_nonparametric.json"]),
        ("sample_parametric",
         ["sample", "dist_parametric.json", "-n", str(sizes.samples_parametric),
          "--seed", str(seed), "--out", "poses_parametric.jsonl"]),
        ("sample_nonparametric",
         ["sample", "dist_nonparametric.json", "-n",
          str(sizes.samples_nonparametric), "--seed", str(seed),
          "--out", "poses_nonparametric.jsonl"]),
    ]


def _eval_pair(rng, points, flip, exact):
    q_gt = _haar_quat(rng)
    t_gt = [rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2), rng.uniform(2.0, 5.0)]
    f_gt = rng.uniform(400.0, 1400.0)
    if exact:
        q_pred = _qmul(q_gt, _axis_angle(_random_axis(rng), math.pi))
    else:
        turn = _axis_angle((0, 1, 0), math.pi) if flip else [1.0, 0.0, 0.0, 0.0]
        noise = _axis_angle(_random_axis(rng), rng.gauss(0.0, math.radians(4.0)))
        q_pred = _qmul(_qmul(q_gt, turn), noise)
    t_pred = [t_gt[0] + rng.gauss(0.0, 0.02), t_gt[1] + rng.gauss(0.0, 0.02),
              t_gt[2] * math.exp(rng.gauss(0.0, 0.05))]
    f_pred = f_gt * math.exp(rng.gauss(0.0, 0.1))
    pair = {"pred": {"quat_wxyz": q_pred, "t_m": t_pred, "focal_px": f_pred},
            "gt": {"quat_wxyz": q_gt, "t_m": t_gt, "focal_px": f_gt},
            "points": "object",
            "bbox_gt": _projected_box(q_gt, t_gt, f_gt, points),
            "img_diag": EVAL_IMG_DIAG}
    box = _projected_box(q_pred, t_pred, f_pred, points)
    if box is not None:
        pair["bbox_pred"] = box
    return pair


def make_score(workdir: Path, seed: int, sizes: Sizes) -> Ops:
    rng = random.Random(f"score:{seed}")
    points = _cube_points(rng, EVAL_POINTS, EVAL_EXTENT)
    fixed = random.Random(EXACT_FLIP_STREAM)
    rows = [{"model_points": {"object": points}}]
    rows += [_eval_pair(fixed, points, flip=True, exact=True)
             for _ in range(EXACT_FLIPS)]
    rows += [_eval_pair(rng, points, flip=rng.random() < EVAL_FLIP_SHARE,
                        exact=False)
             for _ in range(sizes.eval_pairs - EXACT_FLIPS)]
    _write_jsonl(workdir / "pairs.jsonl", rows)
    return [
        ("evaluate", ["evaluate", "pairs.jsonl", "--out", "eval.json"]),
        ("gradcheck", ["gradcheck", "--seed", str(seed),
                       "-n", str(sizes.gradcheck_points), "--out", "grad.json"]),
    ]


MAKERS = {"ablation": make_ablation, "datagen": make_datagen, "score": make_score}
