"""Output checks for the benchmark workloads.

Each check compares a program output with a computation made here, apart
from the program, or with a property the method must have. None compares
with a stored copy of an earlier output. Checks run after the timed passes;
every timed pass must also write the same bytes as the checked pass.

A check records a failure as ``"<check>: <detail>"`` under its operation.
Two checks fail today because of faults in the program. A failure counts
as one of those known faults only where it has the fault's own signature
(``Findings.known``); it makes its operation count as failed without making
the run incorrect. Any other failure, and any exception a check raises,
makes the run incorrect.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, special

from bench_inputs import SIM_FOCAL_INIT, Sizes

# 2*atan2(|v|, |w|) meets this near pi; the arcsin form does not.
ROT_ATOL = 1e-12
# Signature of the known geodesic_distance fault (2*arcsin(|v|)): rounding
# in |v| near 1 costs up to about 2*sqrt(2*eps) = 4e-8 rad, and only where
# the angle is within about 1e-3 rad of pi (the error is about 1e-15 rad
# divided by the distance to pi). A larger error, or one elsewhere, is not
# that fault.
ROT_FAULT_MAX = 1e-7
ROT_FAULT_NEAR_PI = 1e-3
# Same formula, different operation order: a few ulps.
RTOL = 1e-9
# The 96-node quadrature grid reproduces the moments to about 8e-7, but
# fit_bingham stops on least_squares' default gtol, which leaves the fitted
# moments up to about 2e-4 (relative) from the scatter's eigenvalues,
# depending on the seed (seeds 0-99: median 2.7e-5, largest 2.1e-4). Each
# run records the error it saw. Tighten to 1e-5 once the fit converges.
MOMENT_RTOL = 1e-3
# Sample moments may lie this many standard errors from the fitted ones.
N_SE = 5.0

HIST_BINS = {"e_rot": (math.pi, 18), "e_trans": (1.0, 20), "e_pose": (0.5, 20),
             "e_focal": (1.0, 20), "e_proj": (0.5, 20)}
FIELDS = ("e_rot", "e_trans", "e_pose", "e_focal", "e_proj")


class Findings:
    """Failed checks per operation: ``by_op`` makes the run incorrect,
    ``known`` (failures with a known fault's signature) does not."""

    def __init__(self, ops):
        self.by_op = {op: [] for op in ops}
        self.known = {op: [] for op in ops}
        self.notes = {}

    def check(self, op: str, name: str, ok, detail: str = ""):
        if not ok:
            self.by_op[op].append(f"{name}: {detail}")

    def known_fault(self, op: str, name: str, ok, detail: str = ""):
        if not ok:
            self.known[op].append(f"{name}: {detail}")

    def run(self, op: str, check, workdir: Path, sizes: Sizes, stdout: str):
        """Run ``op``'s checks; a check that raises is a failed check."""
        try:
            check(workdir, sizes, self, stdout)
        except Exception as exc:  # missing or malformed output
            self.check(op, "check_raised", False, f"{type(exc).__name__}: {exc}")

    def tally(self, passes, warm, ops):
        """(attempted, failed, correct, reasons) over the timed passes.

        An operation fails if it raised (in its pass or in the checked
        warm-up pass), if its output bytes differ from the checked pass, or
        if a check on the checked output failed. Only known faults leave the
        run correct.
        """
        attempted = failed = 0
        reasons = set()
        correct = True
        for p in passes:
            for name, _ in ops:
                attempted += 1
                broken = []
                error = p["errors"][name] or warm["errors"][name]
                if error:
                    broken.append(f"error: {error}")
                if p["digests"][name] != warm["digests"][name] or None in p["digests"][name]:
                    broken.append("bytes: output differs from the checked pass")
                problems = self.by_op[name] + self.known[name] + broken
                if problems:
                    failed += 1
                    correct &= not (broken or self.by_op[name])
                    reasons.update(f"{name}: {x}" for x in problems)
        return attempted, failed, correct, sorted(reasons)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_jsonl(path: Path):
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]
    return [r for r in rows if "manifest" not in r]


def _unit(q):
    q = np.asarray(q, dtype=float)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def _quat_matrices(q):
    """Rotation matrices (N, 3, 3) of unit quaternions (N, 4), w first."""
    w, x, y, z = np.moveaxis(_unit(q), -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], -2)


def _rotation_angle(qa, qb):
    """Geodesic angle 2*atan2(|v|, |w|) of the relative quaternion conj(qa) qb."""
    a, b = _unit(qa), _unit(qb)
    w = np.sum(a * b, axis=-1)
    v = (a[..., :1] * b[..., 1:] - b[..., :1] * a[..., 1:]
         - np.cross(a[..., 1:], b[..., 1:]))
    return 2.0 * np.arctan2(np.linalg.norm(v, axis=-1), np.abs(w))


def _lower_median(values) -> float:
    v = sorted(values)
    return float(v[(len(v) + 1) // 2 - 1])


def _close(a, b, rtol=RTOL, atol=1e-12) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------

def iteration0_errors(targets, points, img_diag):
    """Errors of the standard start state against each target.

    The start state has identity rotation, the initial focal length, depth
    1 m, and x-y on the centre of the box around the target's projection
    (made with the initial focal length).
    """
    q = np.array([t["quat_wxyz"] for t in targets])
    t = np.array([t["t_m"] for t in targets])
    f = np.array([t["focal_px"] for t in targets])
    pts = np.asarray(points, dtype=float)
    f0 = SIM_FOCAL_INIT
    cam = np.einsum("tij,nj->tni", _quat_matrices(q), pts) + t[:, None, :]
    uv_box = f0 * cam[..., :2] / cam[..., 2:3]
    lo, hi = uv_box.min(axis=1), uv_box.max(axis=1)
    diag = np.hypot(*(hi - lo).T)
    centre = 0.5 * (lo + hi)
    t0 = np.column_stack([centre / f0, np.ones(len(t))])
    cam0 = pts[None, :, :] + t0[:, None, :]
    t_norm = np.linalg.norm(t, axis=1)
    uv0 = f0 * cam0[..., :2] / cam0[..., 2:3]
    uv = f[:, None, None] * cam[..., :2] / cam[..., 2:3]
    return {
        "e_rot": _rotation_angle(np.array([1.0, 0.0, 0.0, 0.0]), q),
        "e_trans": np.linalg.norm(t0 - t, axis=1) / t_norm,
        "e_pose": diag / img_diag
        * np.linalg.norm(cam0 - cam, axis=2).mean(axis=1) / t_norm,
        "e_focal": np.abs(f - f0) / f,
        "e_proj": np.linalg.norm(uv0 - uv, axis=2).mean(axis=1) / diag,
    }


def check_simulate(workdir: Path, sizes: Sizes, found: Findings, stdout: str):
    op = "simulate"
    cfg = _read_json(workdir / "sim.json")
    report = _read_json(workdir / "report.json")["report"]
    targets = _read_jsonl(workdir / "targets.jsonl")
    points = _read_json(workdir / "points.json")
    found.check(op, "finite", _all_finite(report), "non-finite value in report")
    found.check(op, "trials", report["n_trials"] == sizes.sim_trials,
                f"{report['n_trials']} trials")
    variants = report["variants"]
    found.check(op, "arms", sorted(variants) == ["exact", "legacy"], str(sorted(variants)))
    own0 = iteration0_errors(targets, points, cfg["img_diag"])
    for rule, entry in variants.items():
        per = entry["per_iteration_medians"]
        found.check(op, "iterations", len(per) == cfg["iterations"] + 1,
                    f"{rule}: {len(per)} entries")
        for key in FIELDS:
            got, want = per[0][f"median_{key}"], _lower_median(own0[key])
            found.check(op, "iteration0", _close(got, want),
                        f"{rule} median {key} {got!r} != {want!r}")
            found.check(op, "summary", entry["summary"]["medians"][key]
                        == per[-1][f"median_{key}"], f"{rule} final {key}")
        found.check(op, "converged_fraction",
                    0.0 <= entry["converged_fraction"] <= 1.0, rule)
    exact = variants["exact"]["per_iteration_medians"]
    legacy = variants["legacy"]["per_iteration_medians"]
    for key in ("median_e_focal", "median_e_rot"):
        found.check(op, "shared_noise", [r[key] for r in exact] == [r[key] for r in legacy],
                    f"{key} differs between the arms")
    # Summed over iterations 1..K: the final-iteration median alone flips
    # sign on some seeds at this trial count, the sum does not.
    sum_exact = sum(r["median_e_trans"] for r in exact[1:])
    sum_legacy = sum(r["median_e_trans"] for r in legacy[1:])
    found.check(op, "exact_not_worse", sum_exact <= sum_legacy,
                f"sum of median e_trans {sum_exact:.6g} > legacy {sum_legacy:.6g}")
    found.check(op, "stdout", stdout.startswith("exact: median e_trans="), stdout[:80])


# ---------------------------------------------------------------------------
# datagen
# ---------------------------------------------------------------------------

def bingham_moments(z) -> np.ndarray:
    return np.array(_bingham_moments(tuple(float(v) for v in z)))


@functools.lru_cache(maxsize=8)
def _bingham_moments(z) -> tuple:
    """E[u_i^2] of the Bingham density exp(sum z_i u_i^2) on S^3.

    Hopf coordinates u = (cos a e^{i p1}, sin a e^{i p2}) reduce the
    normalizer to a 1-D integral over t = sin^2 a; the angular integrals
    give exponentially scaled Bessel functions. z is ascending with
    z[3] = 0, so the exponent max(z1, z2)(1 - t) + max(z3, z4) t is at most 0.
    """
    z1, z2, z3, z4 = z

    def integrands(t):
        c = 1.0 - t
        x1, x2 = 0.5 * (z1 - z2) * c, 0.5 * (z3 - z4) * t
        s = math.exp(max(z1, z2) * c + max(z3, z4) * t)
        a0, a1 = special.ive(0, x1), special.ive(1, x1)
        b0, b1 = special.ive(0, x2), special.ive(1, x2)
        return (s * a0 * b0,
                s * c * 0.5 * (a0 + a1) * b0, s * c * 0.5 * (a0 - a1) * b0,
                s * t * a0 * 0.5 * (b0 + b1), s * t * a0 * 0.5 * (b0 - b1))

    # The mass sits within a few 1/|z2| of t = 1; tell the integrator where.
    width = 1.0 / max(1.0, abs(max(z1, z2)))
    breaks = [p for p in (1.0 - 50 * width, 1.0 - 10 * width, 1.0 - width) if p > 0]
    vals = [integrate.quad(lambda t, i=i: integrands(t)[i], 0.0, 1.0,
                           points=breaks or None, limit=400,
                           epsabs=0.0, epsrel=1e-13)[0] for i in range(5)]
    return tuple(v / vals[0] for v in vals[1:])


def _nn_pct95(dist: np.ndarray) -> float:
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    return float(np.percentile(d.min(axis=1), 95.0))


def _annotations(workdir: Path):
    """Unit quaternions, translations and focal lengths of the records."""
    recs = _read_jsonl(workdir / "annotations.jsonl")
    return (_unit([r["quat_wxyz"] for r in recs]), np.array([r["t_m"] for r in recs]),
            np.array([r["f_px"] for r in recs]))


def _poses(path: Path):
    poses = _read_jsonl(path)
    return (_unit([p["quat_wxyz"] for p in poses]), np.array([p["t_m"] for p in poses]),
            np.array([p["focal_px"] for p in poses]))


def check_fit_dist_parametric(workdir: Path, sizes: Sizes, found: Findings, stdout: str):
    op = "fit_dist_parametric"
    q, t, f = _annotations(workdir)
    n = len(q)
    doc = _read_json(workdir / "dist_parametric.json")
    found.check(op, "kind", doc.get("kind") == "parametric", str(doc.get("kind")))
    m, z = np.array(doc["bingham"]["m"]), np.array(doc["bingham"]["z"])
    found.check(op, "frame", np.abs(m.T @ m - np.eye(4)).max() < 1e-9, "m not orthogonal")
    found.check(op, "concentrations", z[3] == 0.0 and np.all(np.diff(z) >= 0)
                and z[0] >= -900.0, str(z.tolist()))
    # Maximum likelihood: the fitted second moments equal the scatter's
    # eigenvalues, and the fitted frame diagonalizes the scatter.
    scatter = m.T @ (q.T @ q / n) @ m
    moments = bingham_moments(z)
    lam = np.diag(scatter)
    rel_err = float(np.max(np.abs(moments - lam) / lam))
    found.notes["bingham_moment_rel_err"] = rel_err
    found.check(op, "bingham_moments", rel_err <= MOMENT_RTOL,
                f"moments {moments.tolist()} vs eigenvalues {lam.tolist()}")
    found.check(op, "bingham_frame",
                np.abs(scatter - np.diag(lam)).max() <= 1e-9,
                "frame does not diagonalize the scatter")
    for key, data in (("xy", t[:, :2]), ("zf", np.column_stack([np.log(t[:, 2]), np.log(f)]))):
        found.check(op, f"gaussian_{key}",
                    _close(doc[key]["mean"], data.mean(axis=0), atol=1e-14)
                    and _close(doc[key]["cov"], np.cov(data, rowvar=False, ddof=1),
                               atol=1e-14), key)
    found.check(op, "stdout",
                stdout.startswith(f"fitted parametric distribution from {n} records"),
                stdout[:80])


def check_fit_dist_nonparametric(workdir: Path, sizes: Sizes, found: Findings, stdout: str):
    op = "fit_dist_nonparametric"
    q, t, f = _annotations(workdir)
    n = len(q)
    doc_np = _read_json(workdir / "dist_nonparametric.json")
    deltas = doc_np["deltas"]
    d_xy = _nn_pct95(np.linalg.norm(t[:, None, :2] - t[None, :, :2], axis=-1))
    zf = np.column_stack([t[:, 2], f])
    d_zf = _nn_pct95(np.linalg.norm(zf[:, None, :] - zf[None, :, :], axis=-1))
    d_r = _nn_pct95(2.0 * np.arccos(np.clip(np.abs(q @ q.T), 0.0, 1.0)))
    found.check(op, "deltas", _close([deltas["delta_r_rad"], deltas["delta_x_m"],
                                      deltas["delta_y_m"], deltas["delta_z_m"],
                                      deltas["delta_f_px"]],
                                     [d_r, d_xy, d_xy, d_zf, d_zf]),
                f"{deltas} vs brute force {[d_r, d_xy, d_zf]}")
    found.check(op, "records", len(doc_np["records"]) == n, str(len(doc_np["records"])))
    found.check(op, "stdout",
                stdout.startswith(f"fitted nonparametric distribution from {n} records"),
                stdout[:80])


# The sample checks compare with the distribution file the command read, so
# they do not depend on the fit's checks.

def check_sample_parametric(workdir: Path, sizes: Sizes, found: Findings, stdout: str):
    op = "sample_parametric"
    doc = _read_json(workdir / "dist_parametric.json")
    m, moments = np.array(doc["bingham"]["m"]), bingham_moments(doc["bingham"]["z"])
    sq, st, sf = _poses(workdir / "poses_parametric.jsonl")
    k = len(sq)
    found.check(op, "count", k == sizes.samples_parametric, str(k))
    proj = (sq @ m) ** 2
    se = proj.std(axis=0, ddof=1) / math.sqrt(k)
    found.check(op, "bingham_sample", np.all(np.abs(proj.mean(axis=0) - moments) <= N_SE * se),
                f"sample moments {proj.mean(axis=0).tolist()} vs {moments.tolist()}")
    for key, data in (("xy", st[:, :2]), ("zf", np.column_stack([np.log(st[:, 2]), np.log(sf)]))):
        mean, var = np.array(doc[key]["mean"]), np.diag(doc[key]["cov"])
        found.check(op, f"gaussian_{key}_mean",
                    np.all(np.abs(data.mean(axis=0) - mean) <= N_SE * np.sqrt(var / k)),
                    f"{data.mean(axis=0).tolist()} vs {mean.tolist()}")
        found.check(op, f"gaussian_{key}_var",
                    np.all(np.abs(data.var(axis=0, ddof=1) - var)
                           <= N_SE * var * math.sqrt(2.0 / (k - 1))),
                    f"{data.var(axis=0, ddof=1).tolist()} vs {var.tolist()}")
    found.check(op, "stdout", stdout.startswith(f"wrote {k} samples"), stdout[:80])


def check_sample_nonparametric(workdir: Path, sizes: Sizes, found: Findings, stdout: str):
    op = "sample_nonparametric"
    q, t, f = _annotations(workdir)
    deltas = _read_json(workdir / "dist_nonparametric.json")["deltas"]
    sq, st, sf = _poses(workdir / "poses_nonparametric.jsonl")
    k = len(sq)
    found.check(op, "count", k == sizes.samples_nonparametric, str(k))
    found.check(op, "positive", np.all(st[:, 2] > 0) and np.all(sf > 0), "depth or focal <= 0")
    ang = 2.0 * np.arccos(np.clip(np.abs(sq @ q.T), 0.0, 1.0))
    near = ang <= deltas["delta_r_rad"] + 1e-9
    dxy = (st[:, None, 0] - t[None, :, 0]) ** 2 + (st[:, None, 1] - t[None, :, 1]) ** 2
    near &= dxy <= deltas["delta_x_m"] ** 2 * (1 + 1e-9) + 1e-24
    dzf = (st[:, None, 2] - t[None, :, 2]) ** 2 + (sf[:, None] - f[None, :]) ** 2
    near &= dzf <= deltas["delta_z_m"] ** 2 * (1 + 1e-9) + 1e-24
    found.check(op, "within_deltas", np.all(near.any(axis=1)),
                f"{int((~near.any(axis=1)).sum())} samples outside every record's deltas")
    found.check(op, "stdout", stdout.startswith(f"wrote {k} samples"), stdout[:80])


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _box_iou(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def pair_errors(pairs, points):
    """All five errors of each pair, from the pinhole model and the formulas
    of the paper's metrics."""
    pts = np.asarray(points, dtype=float)
    qp = np.array([p["pred"]["quat_wxyz"] for p in pairs])
    qg = np.array([p["gt"]["quat_wxyz"] for p in pairs])
    tp = np.array([p["pred"]["t_m"] for p in pairs])
    tg = np.array([p["gt"]["t_m"] for p in pairs])
    fp = np.array([p["pred"]["focal_px"] for p in pairs])
    fg = np.array([p["gt"]["focal_px"] for p in pairs])
    box = np.array([p["bbox_gt"] for p in pairs])
    diag = np.hypot(box[:, 2] - box[:, 0], box[:, 3] - box[:, 1])
    img_diag = np.array([p["img_diag"] for p in pairs])
    cp = np.einsum("kij,nj->kni", _quat_matrices(qp), pts) + tp[:, None, :]
    cg = np.einsum("kij,nj->kni", _quat_matrices(qg), pts) + tg[:, None, :]
    t_norm = np.linalg.norm(tg, axis=1)
    uvp = fp[:, None, None] * cp[..., :2] / cp[..., 2:3]
    uvg = fg[:, None, None] * cg[..., :2] / cg[..., 2:3]
    e_proj = np.linalg.norm(uvp - uvg, axis=2).mean(axis=1) / diag
    e_proj[(cp[..., 2] <= 0).any(axis=1)] = np.inf
    return {
        "e_rot": _rotation_angle(qp, qg),
        "e_trans": np.linalg.norm(tp - tg, axis=1) / t_norm,
        "e_pose": diag / img_diag * np.linalg.norm(cp - cg, axis=2).mean(axis=1) / t_norm,
        "e_focal": np.abs(fg - fp) / fg,
        "e_proj": e_proj,
        "iou": [_box_iou(p["bbox_gt"], p["bbox_pred"]) if p.get("bbox_pred") else None
                for p in pairs],
    }


def _component_errors_ok(point) -> bool:
    vals = list(point["per_component"].values())
    return (bool(vals) and all(isinstance(v, float) for v in vals)
            and max(vals) == point["max_rel_err"])


def _labels_as_values(point) -> bool:
    """The known gradcheck fault: each component reports its own label."""
    comps = point["per_component"]
    return bool(comps) and all(v == k for k, v in comps.items())


def check_evaluate(workdir: Path, sizes: Sizes, found: Findings, stdout: str):
    op = "evaluate"
    rows = _read_jsonl(workdir / "pairs.jsonl")
    points = rows[0]["model_points"]["object"]
    pairs = rows[1:]
    doc = _read_json(workdir / "eval.json")
    records, summary = doc["records"], doc["summary"]
    n = len(pairs)
    found.check(op, "count", len(records) == n and summary["count"] == n,
                f"{len(records)} records for {n} pairs")
    if len(records) == n:
        own = pair_errors(pairs, points)
        got_rot = np.array([r["e_rot"] for r in records])
        err = np.abs(got_rot - own["e_rot"])
        off = err > ROT_ATOL
        fault = (err <= ROT_FAULT_MAX) & (math.pi - own["e_rot"] <= ROT_FAULT_NEAR_PI)
        found.known_fault(op, "e_rot", not np.any(off & fault),
                          f"{int((off & fault).sum())} pairs near pi off by up to "
                          f"{err[fault].max(initial=0.0):.3g} rad (2*atan2 reference, tolerance "
                          f"{ROT_ATOL:g})")
        found.check(op, "e_rot_other", not np.any(off & ~fault),
                    f"{int((off & ~fault).sum())} pairs off by up to "
                    f"{err[~fault].max(initial=0.0):.3g} rad, beyond the arcsin fault")
        for key in FIELDS[1:]:
            found.check(op, key, _close([r[key] for r in records], own[key]), key)
        found.check(op, "iou", all((a is None and b is None) or
                                   (a is not None and b is not None and _close(a, b))
                                   for a, b in zip((r["iou"] for r in records), own["iou"])),
                    "iou")
    cols = {k: [r[k] for r in records] for k in FIELDS}
    found.check(op, "medians", all(summary["medians"][k] == _lower_median(cols[k])
                                   for k in FIELDS), "summary medians")
    ious = [r["iou"] for r in records if r["iou"] is not None]
    acc = {"acc_rot_pi6": sum(v <= math.pi / 6 for v in cols["e_rot"]) / n,
           "acc_proj_0.1": sum(v <= 0.1 for v in cols["e_proj"]) / n}
    if ious:
        acc["acc_det_0.5"] = sum(v > 0.5 for v in ious) / len(ious)
    found.check(op, "accuracies", summary["accuracies"] == acc,
                f"{summary['accuracies']} vs {acc}")
    for k, (top, bins) in HIST_BINS.items():
        hist = summary["histograms"][k]
        finite = [v for v in cols[k] if math.isfinite(v)]
        counts, _ = np.histogram(finite, bins=np.linspace(0.0, top, bins + 1))
        found.check(op, "histograms", hist["counts"] == counts.tolist()
                    and hist["overflow"] == n - int(counts.sum()), k)
    found.check(op, "stdout", stdout.startswith("medians: e_rot="), stdout[:80])


def check_gradcheck(workdir: Path, sizes: Sizes, found: Findings, stdout: str):
    op = "gradcheck"
    doc = _read_json(workdir / "grad.json")
    rep, pts = doc["report"], doc["points"]
    k = sizes.gradcheck_points
    found.check(op, "passed", rep["passed"] is True, str(rep["passed"]))
    found.check(op, "counts", rep["n_points"] == k == len(pts)
                and rep["n_smooth"] + rep["n_flagged_nonsmooth"] == k
                and rep["n_smooth"] == sum(p["smooth"] for p in pts),
                f"{rep['n_points']} points, {rep['n_smooth']} smooth, "
                f"{rep['n_flagged_nonsmooth']} flagged")
    worst = max([p["max_rel_err"] for p in pts if p["smooth"]], default=0.0)
    found.check(op, "max_rel_err_smooth", rep["max_rel_err_smooth"] == worst,
                f"{rep['max_rel_err_smooth']} vs {worst}")
    bad = [p for p in pts if not _component_errors_ok(p)]
    labels = [p for p in bad if _labels_as_values(p)]
    other = [p for p in bad if not _labels_as_values(p)]
    found.known_fault(op, "per_component", not labels,
                      f"{len(labels)} of {len(pts)} points report their labels as "
                      f"values (first: {labels[0]['per_component'] if labels else None})")
    found.check(op, "per_component_values", not other,
                f"{len(other)} of {len(pts)} points' per_component values are not their "
                f"relative errors (first: {other[0]['per_component'] if other else None})")
    found.check(op, "stdout", stdout.startswith(f"{rep['n_smooth']}/{k} smooth points"),
                stdout[:80])


# Checks of each operation, by operation name.
CHECKS = {"simulate": check_simulate,
          "fit_dist_parametric": check_fit_dist_parametric,
          "fit_dist_nonparametric": check_fit_dist_nonparametric,
          "sample_parametric": check_sample_parametric,
          "sample_nonparametric": check_sample_nonparametric,
          "evaluate": check_evaluate, "gradcheck": check_gradcheck}
