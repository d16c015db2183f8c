"""Command-line surface: distribution fitting, sampling, simulation,
evaluation, and gradient checking.

Every output file embeds a run manifest (command, config snapshot, seed,
version, input digests, timestamp), so a rerun with the same inputs and seed
is byte-identical. The timestamp honours SOURCE_DATE_EPOCH and is otherwise
left unset to keep outputs reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import click
import jsonschema
import numpy as np

from . import __version__
from .errors import DomainError
from .geometry import BBox, CameraIntrinsics, ModelPoints, ParamState, PoseBatch
from .losses import GRAD_LABELS, LossWeights, gradient_check
from .metrics import EvalPair, aggregate, evaluate_pair
from .sampling import (BinghamParams, Gaussian2DParams, NonparamDeltas,
                       AnnotationRecord, UniformRanges, fit_bingham,
                       fit_translation_focal, load_annotations,
                       sample_pose_nonparametric, sample_pose_parametric,
                       sample_pose_uniform, select_deltas_95pct,
                       distributions_to_dict)
from .simulator import (ClampBounds, NoiseScales, OraclePredictor, TrialConfig,
                        run_experiment)
from .update_rules import DeltaTheta, oracle_delta

GRADCHECK_FAIL_THRESHOLD = 1e-4

# Report columns follow the usual results-table order.
METRIC_ORDER = ("e_rot", "e_trans", "e_pose", "e_focal", "e_proj")


# ---------------------------------------------------------------------------
# Run manifest and output writers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    seed: int | None
    version: str = __version__
    inputs: dict = field(default_factory=dict)
    timestamp: str | None = None

    @classmethod
    def build(cls, command: str, config: dict, seed: int | None,
              input_paths=()) -> "RunManifest":
        digests = {str(p): _sha256(p) for p in input_paths}
        epoch = os.environ.get("SOURCE_DATE_EPOCH")
        stamp = None
        if epoch is not None:
            stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc) \
                .isoformat().replace("+00:00", "Z")
        return cls(command=command, config=config, seed=seed,
                   inputs=digests, timestamp=stamp)

    def to_dict(self) -> dict:
        return asdict(self)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path, manifest: RunManifest, payload: dict):
    doc = {"manifest": manifest.to_dict(), **payload}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8", newline="\n")


def write_jsonl(path, manifest: RunManifest, rows):
    lines = [_dump({"manifest": manifest.to_dict()})]
    lines.extend(_dump(r) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_csv(path, manifest: RunManifest, header, rows):
    buf = io.StringIO()
    buf.write(f"# manifest: {_dump(manifest.to_dict())}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="\n")


def _fail(exc: Exception):
    raise click.ClickException(str(exc))


def _parse_json(text: str, where: str):
    """json.loads whose syntax errors are DomainErrors naming ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{where}: malformed JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# CLI group
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(__version__)
def main():
    """Joint object-pose and focal-length estimation toolbox."""


# ---------------------------------------------------------------------------
# fit-dist
# ---------------------------------------------------------------------------

@main.command("fit-dist")
@click.argument("annotations", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(["parametric", "nonparametric"]),
              default="parametric", show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def fit_dist(annotations, kind, out):
    """Fit a pose/focal sampling distribution to a JSON-lines annotation file."""
    try:
        records = load_annotations(annotations)
        if not records:
            raise DomainError(f"no annotation records in {annotations}")
        if kind == "parametric":
            quats = np.stack([r.rotation.quat for r in records])
            xy, zf = fit_translation_focal(records)
            doc = distributions_to_dict(
                "parametric", bingham=fit_bingham(quats), xy=xy, zf=zf)
        else:
            doc = distributions_to_dict(
                "nonparametric", deltas=select_deltas_95pct(records),
                records=records)
    except DomainError as exc:
        _fail(exc)
    manifest = RunManifest.build("fit-dist", {"kind": kind}, seed=None,
                                 input_paths=[annotations])
    write_json(out, manifest, doc)
    click.echo(f"fitted {kind} distribution from {len(records)} records -> {out}")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _load_distribution(path) -> dict:
    doc = _parse_json(Path(path).read_text(), path)
    if "manifest" in doc:
        doc = {k: v for k, v in doc.items() if k != "manifest"}
    return doc


def _draw_poses(doc: dict, n: int, seed: int) -> PoseBatch:
    kind = doc.get("kind")
    if kind == "parametric":
        return sample_pose_parametric(
            BinghamParams.from_dict(doc["bingham"]),
            Gaussian2DParams.from_dict(doc["xy"]),
            Gaussian2DParams.from_dict(doc["zf"]), n, seed)
    if kind == "nonparametric":
        records = [AnnotationRecord.from_dict(r) for r in doc["records"]]
        return sample_pose_nonparametric(
            records, NonparamDeltas.from_dict(doc["deltas"]), n, seed)
    if kind == "uniform":
        ranges = UniformRanges(tuple(doc.get("z_range", (0.8, 3.0))),
                               tuple(doc.get("f_range", (200.0, 1000.0))),
                               float(doc.get("xy_box", 0.15)))
        return sample_pose_uniform(ranges, n, seed)
    raise DomainError(f"unknown distribution kind {kind!r}")


@main.command("sample")
@click.argument("distribution", type=click.Path(exists=True, dir_okay=False))
@click.option("-n", "--num", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def sample(distribution, num, seed, out):
    """Draw pose/focal samples from a fitted distribution file."""
    if num < 0:
        _fail(DomainError("sample count must be non-negative"))
    try:
        doc = _load_distribution(distribution)
        poses = _draw_poses(doc, num, seed)
    except DomainError as exc:
        _fail(exc)
    manifest = RunManifest.build("sample", {"n": num}, seed=seed,
                                 input_paths=[distribution])
    write_jsonl(out, manifest, poses.to_dicts())
    click.echo(f"wrote {num} samples -> {out}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_NOISE_PROPS = {k: {"type": "number", "minimum": 0} for k in
                ("sigma_x_px", "sigma_y_px", "sigma_z_log", "sigma_rot_deg",
                 "sigma_f_log")}
_CLAMP_PROPS = {k: {"type": "number", "exclusiveMinimum": 0} for k in
                ("max_px", "max_log_depth", "max_angle_deg", "max_log_focal")}

SIMULATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["n_trials", "targets"],
    "additionalProperties": False,
    "properties": {
        "n_trials": {"type": "integer", "minimum": 1},
        "iterations": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "update_rules": {
            "type": "array", "minItems": 1,
            "items": {"enum": ["exact", "legacy"]},
        },
        "predictor": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "noise": {"type": ["object", "null"],
                          "additionalProperties": False,
                          "properties": _NOISE_PROPS},
                "clamp": {"type": ["object", "null"],
                          "additionalProperties": False,
                          "properties": _CLAMP_PROPS},
            },
        },
        "targets": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["uniform", "file"]},
                "path": {"type": "string"},
                "z_range": {"type": "array", "minItems": 2, "maxItems": 2,
                            "items": {"type": "number"}},
                "f_range": {"type": "array", "minItems": 2, "maxItems": 2,
                            "items": {"type": "number"}},
                "xy_box": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "model_points": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "count": {"type": "integer", "minimum": 1},
                "extent": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer"},
                "path": {"type": "string"},
            },
        },
        "focal_init": {"type": "number", "exclusiveMinimum": 0},
        "img_diag": {"type": "number", "exclusiveMinimum": 0},
        "keep_trajectories": {"type": "boolean"},
    },
}


def validate_config(config: dict, schema: dict):
    """Schema-validate; the raised message names the offending field path."""
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.absolute_path) or "(root)"
        raise DomainError(f"config field {path}: {err.message}")


def _load_model_points(cfg: dict) -> ModelPoints:
    if "path" in cfg:
        return ModelPoints.from_json(cfg["path"])
    rng = np.random.default_rng(cfg.get("seed", 0))
    extent = cfg.get("extent", 0.2)
    n = cfg.get("count", 100)
    return ModelPoints(rng.uniform(-extent / 2.0, extent / 2.0, size=(n, 3)))


def _load_targets(cfg: dict, n: int, seed: int) -> PoseBatch:
    """The campaign's n targets. Uniform targets are drawn from a stream
    spawned from ``seed``, apart from the trials' ``seed + i`` noise streams."""
    if cfg["kind"] == "file":
        if "path" not in cfg:
            raise DomainError("config field targets/path: required for kind 'file'")
        states = []
        with open(cfg["path"]) as fh:
            for i, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                doc = _parse_json(line, f"{cfg['path']} line {i}")
                if "manifest" in doc:
                    continue
                states.append(ParamState.from_dict(doc))
        if len(states) < n:
            raise DomainError(f"target file has {len(states)} poses, need {n}")
        return PoseBatch.from_states(states[:n])
    ranges = UniformRanges(tuple(cfg.get("z_range", (0.8, 3.0))),
                           tuple(cfg.get("f_range", (200.0, 1000.0))),
                           float(cfg.get("xy_box", 0.15)))
    return sample_pose_uniform(ranges, n, np.random.SeedSequence(seed).spawn(1)[0])


def run_simulation(config: dict) -> dict:
    """Validated config in, campaign report out."""
    validate_config(config, SIMULATE_SCHEMA)
    seed = config.get("seed", 0)
    pred_cfg = config.get("predictor", {})
    noise = pred_cfg.get("noise")
    clamp = pred_cfg.get("clamp")
    predictor = OraclePredictor(
        noise=NoiseScales(**noise) if noise is not None else None,
        clamp=ClampBounds(**clamp) if clamp is not None else None)
    base = TrialConfig(iterations=config.get("iterations", 15),
                       predictor=predictor)
    points = _load_model_points(config.get("model_points", {}))
    targets = _load_targets(config["targets"], config["n_trials"], seed)
    intrinsics = CameraIntrinsics(config.get("focal_init", 600.0), 0.0, 0.0)
    return run_experiment(
        targets, base, points, intrinsics,
        img_diag=config.get("img_diag", 800.0),
        variants=tuple(config.get("update_rules", ("exact", "legacy"))),
        seed=seed, keep_trajectories=config.get("keep_trajectories", False))


def _report_csv_rows(report: dict):
    header = ["update_rule", "iteration", "median_e_rot", "median_e_trans",
              "median_e_pose", "median_e_focal", "median_e_proj"]
    rows = []
    for rule, entry in report["variants"].items():
        for rec in entry["per_iteration_medians"]:
            rows.append([rule, rec["iteration"],
                         repr(rec["median_e_rot"]), repr(rec["median_e_trans"]),
                         repr(rec["median_e_pose"]), repr(rec["median_e_focal"]),
                         repr(rec["median_e_proj"])])
    return header, rows


@main.command("simulate")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def simulate(config_path, out, fmt):
    """Run a paired refinement campaign described by a JSON config."""
    try:
        config = _parse_json(Path(config_path).read_text(), config_path)
        report = run_simulation(config)
    except DomainError as exc:
        _fail(exc)
    manifest = RunManifest.build("simulate", config, seed=config.get("seed", 0),
                                 input_paths=[config_path])
    if fmt == "json":
        write_json(out, manifest, {"report": report})
    else:
        header, rows = _report_csv_rows(report)
        write_csv(out, manifest, header, rows)
    for rule, entry in report["variants"].items():
        med = entry["summary"]["medians"]
        click.echo(f"{rule}: median e_trans={med['e_trans']:.6g} "
                   f"e_focal={med['e_focal']:.6g} e_rot={med['e_rot']:.6g}")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _load_pairs(path) -> list[EvalPair]:
    """Read a JSON-lines pair file.

    A leading {"model_points": {name: [[x,y,z], ...]}} line defines shared
    point clouds; pair lines reference them by name or carry inline points.
    """
    point_sets: dict[str, ModelPoints] = {}
    pairs = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            doc = _parse_json(line, f"{path} line {i}")
            if "manifest" in doc:
                continue
            if "model_points" in doc and "pred" not in doc:
                for name, pts in doc["model_points"].items():
                    point_sets[name] = ModelPoints(np.asarray(pts, dtype=float))
                continue
            index = len(pairs)
            try:
                pts_field = doc["points"]
                if isinstance(pts_field, str):
                    if pts_field not in point_sets:
                        raise DomainError(
                            f"pair {index}: unknown model-points reference "
                            f"{pts_field!r}")
                    points = point_sets[pts_field]
                else:
                    points = ModelPoints(np.asarray(pts_field, dtype=float))
                pairs.append(EvalPair(
                    pred=ParamState.from_dict(doc["pred"]),
                    gt=ParamState.from_dict(doc["gt"]),
                    points=points,
                    bbox_gt=BBox(*[float(v) for v in doc["bbox_gt"]]),
                    img_diag=float(doc["img_diag"]),
                    bbox_pred=(BBox(*[float(v) for v in doc["bbox_pred"]])
                               if doc.get("bbox_pred") else None),
                ))
            except DomainError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise DomainError(f"pair {index}: {exc}") from exc
    if not pairs:
        raise DomainError(f"no evaluation pairs in {path}")
    return pairs


@main.command("evaluate")
@click.argument("pairs_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def evaluate(pairs_file, out, fmt):
    """Score prediction/ground-truth pairs and aggregate the metrics."""
    try:
        pairs = _load_pairs(pairs_file)
        records = [evaluate_pair(p) for p in pairs]
    except DomainError as exc:
        _fail(exc)
    summary = aggregate(records)
    manifest = RunManifest.build("evaluate", {}, seed=None,
                                 input_paths=[pairs_file])
    if fmt == "json":
        write_json(out, manifest, {"summary": summary,
                                   "records": [r.to_dict() for r in records]})
    else:
        header = list(METRIC_ORDER) + ["iou"]
        rows = [[repr(getattr(r, f)) for f in METRIC_ORDER]
                + ["" if r.iou is None else repr(r.iou)] for r in records]
        write_csv(out, manifest, header, rows)
    med = summary["medians"]
    click.echo("medians: " + " ".join(f"{f}={med[f]:.6g}" for f in METRIC_ORDER))


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _random_gradcheck_case(rng: np.random.Generator):
    from .geometry import Rotation
    pts = ModelPoints(rng.uniform(-0.1, 0.1, size=(20, 3)))
    quats = rng.standard_normal((3, 4))

    def state_from(q, z_lo, z_hi, f_lo, f_hi):
        return ParamState(Rotation(q),
                          np.array([rng.uniform(-0.3, 0.3),
                                    rng.uniform(-0.3, 0.3),
                                    rng.uniform(z_lo, z_hi)]),
                          rng.uniform(f_lo, f_hi))

    state = state_from(quats[0], 0.8, 3.0, 300.0, 900.0)
    gt = state_from(quats[1], 0.8, 3.0, 300.0, 900.0)
    rel = (gt.rotation @ state.rotation.inverse()).as_matrix()
    noise = rng.normal(0.0, 0.05, size=(3, 2))
    oracle = oracle_delta(state, gt)
    delta = DeltaTheta(
        vx=oracle.vx + rng.normal(0, 5.0),
        vy=oracle.vy + rng.normal(0, 5.0),
        vz=gt.translation[2] / state.translation[2] * np.exp(rng.normal(0, 0.05)),
        v_r1=rel[:, 0] + noise[:, 0],
        v_r2=rel[:, 1] + noise[:, 1],
        vf=np.log(gt.focal / state.focal) + rng.normal(0, 0.05),
    )
    return state, delta, gt, pts


def run_gradcheck(seed: int, n: int, step: float) -> dict:
    """Gradient check on random configurations; non-smooth points are flagged
    and excluded from the pass/fail decision."""
    rng = np.random.default_rng(seed)
    weights = LossWeights()
    results = []
    worst = 0.0
    while len(results) < n:
        state, delta, gt, pts = _random_gradcheck_case(rng)
        rep = gradient_check(state, delta, gt, pts, weights, step=step)
        entry = {"index": len(results), "smooth": rep["smooth"],
                 "max_rel_err": rep["max_rel_err"],
                 "per_component": dict(zip(GRAD_LABELS, rep["per_component"]))}
        results.append(entry)
        if rep["smooth"]:
            worst = max(worst, rep["max_rel_err"])
    smooth = [r for r in results if r["smooth"]]
    return {
        "n_points": n,
        "n_smooth": len(smooth),
        "n_flagged_nonsmooth": n - len(smooth),
        "max_rel_err_smooth": worst,
        "threshold": GRADCHECK_FAIL_THRESHOLD,
        "passed": bool(smooth) and worst <= GRADCHECK_FAIL_THRESHOLD,
        "points": results,
    }


@main.command("gradcheck")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-n", "--num", type=int, default=100, show_default=True)
@click.option("--step", type=float, default=1e-6, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def gradcheck(seed, num, step, out):
    """Check analytic loss gradients against central finite differences."""
    report = run_gradcheck(seed, num, step)
    if out:
        manifest = RunManifest.build("gradcheck", {"n": num, "step": step},
                                     seed=seed)
        write_json(out, manifest, {"report": {k: v for k, v in report.items()
                                              if k != "points"},
                                   "points": report["points"]})
    click.echo(f"{report['n_smooth']}/{report['n_points']} smooth points, "
               f"{report['n_flagged_nonsmooth']} flagged non-smooth, "
               f"max rel err {report['max_rel_err_smooth']:.3e}")
    if not report["passed"]:
        raise click.ClickException(
            f"gradient mismatch: max rel err {report['max_rel_err_smooth']:.3e} "
            f"> {GRADCHECK_FAIL_THRESHOLD}")


if __name__ == "__main__":
    main()
