"""Command-line surface: distribution fitting, sampling, simulation,
evaluation, and gradient checking.

Every output file embeds a run manifest (command, config snapshot, seed,
version, input digests, timestamp), so a rerun with the same inputs and seed
is byte-identical. The timestamp honours SOURCE_DATE_EPOCH and is otherwise
left unset to keep outputs reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from functools import cache
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import DomainError, block_columns, number_columns, read_columns, reading, require
from .geometry import (BBox, CameraIntrinsics, ModelPoints, ParamState, PoseBatch,
                       Rotation, check_boxes, pose_columns, row_dot)
from .metrics import GT_NORM_ERROR, METRIC_FIELDS, RECORD_FIELDS, aggregate, evaluate_pair
from .update_rules import UPDATE_RULES, DeltaTheta, oracle_delta

GRADCHECK_FAIL_THRESHOLD = 1e-4
WRITE_BLOCK = 1024  # pose rows that write_jsonl formats and writes at a time
_POSE_FIELDS = itemgetter("quat_wxyz", "t_m", "focal_px")  # of ParamState.to_dict()


# ---------------------------------------------------------------------------
# Run manifest and output writers
# ---------------------------------------------------------------------------

def _manifest(command: str, config: dict, seed: int | None, input_paths=()) -> dict:
    """The run manifest an output file embeds."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        stamp = None if epoch is None else datetime.fromtimestamp(
            int(epoch), tz=timezone.utc).isoformat().replace("+00:00", "Z")
    except (ValueError, OverflowError, OSError) as exc:  # not an integer, or out of range
        raise click.ClickException(f"invalid SOURCE_DATE_EPOCH={epoch!r}: {exc}") from exc
    return {"command": command, "config": config, "seed": seed,
            "version": __version__,
            "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                       for p in input_paths},
            "timestamp": stamp}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def _writing(path):
    """``path`` open for text; an OSError becomes a ClickException naming the path."""
    fh = None
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        if fh is not None and os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)  # a partial file, not a device or pipe
        raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}") from exc


@cache
def _flat_encoder(depth: int):
    """json's C encoder with sorted keys, items split by a newline and ``depth`` indents, made
    once per depth: JSONEncoder.encode makes one per call, as costly as encoding a short list."""
    encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                            None, ": ", ",\n" + "  " * depth, True, False, True)
    return lambda obj: "".join(encode(obj, 0))


def _float_texts(values: np.ndarray) -> list[str]:
    """json's text of each row of a 1-D or 2-D float64 array without its brackets:
    repr(float(x)) of each element of a 1-D array, the reprs of a row joined by "," of a
    2-D one. It is orjson's shortest round-trip text of the whole array, which is repr's
    for ±0.0 and 1e-4 <= |x| < 1e16; a row holding another value (0 < |x| < 1e-4,
    |x| >= 1e16, or NaN and ±inf, which orjson writes as null) is formatted by repr."""
    import orjson
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not values.size:
        return []  # the split of orjson's "[]" would be [""]
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    texts = text[2:-2].split("],[") if values.ndim == 2 else text[1:-1].split(",")
    size = np.abs(values.reshape(len(values), -1))
    in_band = (size < 1e16) & ((size >= 1e-4) | (size == 0))
    for i in np.flatnonzero(~in_band.all(axis=1)).tolist():
        texts[i] = ",".join(map(repr, np.atleast_1d(values[i]).tolist()))
    return texts


class RecordColumns:
    """Float columns, each (N,) or (N, k), that write_json lays out as the list of their N
    records, {key: value or list of k values}, building none: what metrics.to_records gives
    of metric columns, or the annotation records of fit-dist's nonparametric distribution."""

    def __init__(self, columns: dict):
        self.columns = columns

    def indented(self, depth: int) -> str:
        """_indented of the records by one %s template per record; a non-finite value is
        json's text, a NaN IoU null."""
        keys = sorted(self.columns)  # as json.dumps(..., sort_keys=True) orders them
        table = np.column_stack([self.columns[k] for k in keys]).ravel()
        values, inner = _float_texts(table), "  " * (depth + 1)
        shapes = [self.columns[k].shape[1:] for k in keys]  # () or (k,)
        key_at = [k for k, shape in zip(keys, shapes) for _ in range(math.prod(shape))]
        for i in np.flatnonzero(~np.isfinite(table)).tolist():
            nan_iou = key_at[i % len(key_at)] == "iou" and math.isnan(table[i])
            values[i] = _flat_encoder(0)(None if nan_iou else table[i].item())
        fields = [f"\n{inner}  {encode_basestring_ascii(k)}: " + (
            f"[\n{inner}    " + f",\n{inner}    ".join(["%s"] * shape[0]) + f"\n{inner}  ]"
            if shape else "%s") for k, shape in zip(keys, shapes)]
        row = f",\n{inner}{{" + ",".join(fields) + f"\n{inner}}}"
        text = row * (len(values) // len(key_at)) % tuple(values)
        return f"[{text[1:]}\n{'  ' * depth}]" if values else "[]"


_CONTAINERS = (dict, list, tuple, RecordColumns)  # what write_json lays out itself


def _indented(obj, depth: int = 0) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) of a value ``depth`` levels deep, string keys:
    one C encoder call per container of scalars, RecordColumns.indented per column table."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _flat_encoder(0)(obj)
    if isinstance(obj, RecordColumns):
        return obj.indented(depth)
    pad, inner, is_dict = "  " * depth, "  " * (depth + 1), isinstance(obj, dict)
    if not any(map(isinstance, obj.values() if is_dict else obj, repeat(_CONTAINERS))):
        text = _flat_encoder(depth + 1)(obj)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
    parts = ([f"{encode_basestring_ascii(k)}: {_indented(obj[k], depth + 1)}" for k in sorted(obj)]
             if is_dict else [_indented(v, depth + 1) for v in obj])
    brackets = "{}" if is_dict else "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{brackets[1]}"


def write_json(path, manifest: dict, payload: dict):
    """The manifest and payload as json.dumps(..., sort_keys=True, indent=2) writes them."""
    text = _indented({"manifest": manifest, **payload})
    with _writing(path) as fh:
        fh.write(text + "\n")


def write_jsonl(path, manifest: dict, poses: PoseBatch):
    """The manifest, then each pose's ParamState.to_dict() as _dump writes it: the %s
    are the _float_texts of its focal length, quaternion and translation, as json writes
    them, and a PoseBatch holds only finite floats. Rows are formatted and written
    WRITE_BLOCK at a time, so memory does not grow with their number."""
    line = '\n{"focal_px":%s,"quat_wxyz":[%s],"t_m":[%s]}'
    with _writing(path) as fh:
        fh.write(_dump({"manifest": manifest}))
        for i in range(0, len(poses), WRITE_BLOCK):
            block = [_float_texts(a[i:i + WRITE_BLOCK])
                     for a in (poses.focal, poses.quat, poses.translation)]
            fh.write(line * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
        fh.write("\n")


def write_csv(path, manifest: dict, header, rows):
    import csv
    with _writing(path) as fh:
        fh.write(f"# manifest: {_dump(manifest)}\n")
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


# ---------------------------------------------------------------------------
# CLI group
# ---------------------------------------------------------------------------

class _Main(click.Group):
    """The command group: a DomainError from any command is a ClickException, no traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
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
    from . import sampling
    poses, img_wh, bbox = sampling.load_annotations(annotations)
    if not len(poses):
        raise DomainError(f"no annotation records in {annotations}")
    if kind == "parametric":
        xy, zf = sampling.fit_translation_focal(poses)
        bingham = sampling.fit_bingham(poses.quat)
        doc = {"kind": kind, "bingham": bingham.to_dict(), "xy": xy.to_dict(),
               "zf": zf.to_dict()}
    else:
        doc = {"kind": kind, "deltas": sampling.select_deltas_95pct(poses).to_dict(),
               "records": RecordColumns({"quat_wxyz": poses.quat, "t_m": poses.translation,
                                         "f_px": poses.focal, "img_wh": img_wh,
                                         "bbox": bbox})}
    write_json(out, _manifest("fit-dist", {"kind": kind}, seed=None,
                              input_paths=[annotations]), doc)
    click.echo(f"fitted {kind} distribution from {len(poses)} records -> {out}")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _uniform_ranges(doc: dict, where: str = "") -> UniformRanges:
    """The ranges ``doc`` sets, the others at their defaults; an invalid one
    raises a DomainError naming ``where`` and the field."""
    from .sampling import UniformRanges
    ranges = UniformRanges()
    for k in ("z_range", "f_range", "xy_box"):
        if k in doc:
            with reading(where + k):
                ranges = replace(ranges, **{k: doc[k]})
    return ranges


def _draw_poses(doc: dict, n: int, seed: int) -> PoseBatch:
    from . import sampling
    kind = doc.get("kind")
    if kind == "parametric":
        return sampling.sample_pose_parametric(
            sampling.BinghamParams.from_dict(doc["bingham"]),
            sampling.Gaussian2DParams.from_dict(doc["xy"]),
            sampling.Gaussian2DParams.from_dict(doc["zf"]), n, seed)
    if kind == "nonparametric":
        def record_row(item):  # the row-by-row read names the record
            with reading(f"records/{item[0]}"):
                return sampling.annotation_row(item[1])
        quat, t, f, _, _ = block_columns(
            enumerate(doc["records"]), lambda block: sampling.annotation_fields(
                map(itemgetter(1), block)), record_row, *sampling.ANNOTATION_SHAPES)
        return sampling.sample_pose_nonparametric(
            PoseBatch(quat, t, f), sampling.NonparamDeltas.from_dict(doc["deltas"]), n, seed)
    if kind == "uniform":
        return sampling.sample_pose_uniform(_uniform_ranges(doc), n, seed)
    raise DomainError(f"unknown distribution kind {kind!r}")


@main.command("sample")
@click.argument("distribution", type=click.Path(exists=True, dir_okay=False))
@click.option("-n", "--num", type=click.IntRange(min=0), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def sample(distribution, num, seed, out):
    """Draw pose/focal samples from a fitted distribution file."""
    with reading(distribution):
        poses = _draw_poses(json.loads(Path(distribution).read_text("utf-8")), num, seed)
    write_jsonl(out, _manifest("sample", {"n": num}, seed=seed,
                               input_paths=[distribution]), poses)
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
    "type": "object",
    "required": ["n_trials", "targets"],
    "additionalProperties": False,
    "properties": {
        "n_trials": {"type": "integer", "minimum": 1},
        "iterations": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "update_rules": {
            "type": "array", "minItems": 1, "uniqueItems": True,
            "items": {"enum": list(UPDATE_RULES)},
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
                "seed": {"type": "integer", "minimum": 0},
                "path": {"type": "string"},
            },
        },
        "focal_init": {"type": "number", "exclusiveMinimum": 0},
        "img_diag": {"type": "number", "exclusiveMinimum": 0},
        "keep_trajectories": {"type": "boolean"},
    },
}


SCHEMA_KEYWORDS = ("type", "enum", "minimum", "exclusiveMinimum", "required", "properties",
                   "additionalProperties", "items", "minItems", "maxItems", "uniqueItems")
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "null": type(None), "number": (int, float), "integer": int}


def _is(value, name: str) -> bool:
    """JSON Schema's type test, except that an integer is written as one: 2.0 is not."""
    return isinstance(value, _JSON_TYPES[name]) and isinstance(value, bool) == (name == "boolean")


def _first_error(value, schema: dict, path: tuple = ()):
    """(field path, message) of the first rule of ``schema``, a JSON Schema (draft 2020-12)
    of SCHEMA_KEYWORDS only, that ``value`` breaks, in jsonschema's path order, or None.
    Numbers must also be finite floats (not NaN, Infinity, 1e309 or 10**400); that message
    names an array's element by its array."""
    if _is(value, "number") and not abs(value) <= sys.float_info.max:
        return tuple(p for p in path if isinstance(p, str)), \
            f"invalid value {value}, numbers must be finite"
    kind = next((t for t in _JSON_TYPES if _is(value, t)), None)  # an int is a "number"
    props = schema.get("properties", {})
    for key, rule in schema.items():
        if key not in SCHEMA_KEYWORDS or key == "additionalProperties" and rule is not False:
            raise ValueError(f"schema keyword {key}: {rule!r} is not implemented")
        if key == "type" and not any(_is(value, t) for t in np.atleast_1d(rule)):
            return path, f"{value!r} is not of type {rule!r}"
        if key == "enum" and value not in rule:
            return path, f"{value!r} is not one of {rule!r}"
        if kind == "number" and key == "minimum" and value < rule:
            return path, f"{value!r} is less than the minimum of {rule!r}"
        if kind == "number" and key == "exclusiveMinimum" and value <= rule:
            return path, f"{value!r} is less than or equal to the minimum of {rule!r}"
        if kind == "object" and key == "required" and not value.keys() >= set(rule):
            return path, f"{next(k for k in rule if k not in value)!r} is a required property"
        if kind == "object" and key == "additionalProperties" and value.keys() - props:
            return path, f"unexpected properties {[k for k in value if k not in props]}"
        if kind == "array" and (key == "minItems" and len(value) < rule
                                or key == "maxItems" and len(value) > rule):
            return path, f"{value!r} has {len(value)} items, {key} is {rule}"
        if kind == "array" and key == "uniqueItems" and rule and any(
                a == b and isinstance(a, bool) == isinstance(b, bool)
                for i, a in enumerate(value) for b in value[:i]):
            return path, f"{value!r} has non-unique elements"
    for k in sorted(value) if kind == "object" else range(len(value)) if kind == "array" else ():
        subschema = props.get(k) if kind == "object" else schema.get("items")
        if subschema is not None and (error := _first_error(value[k], subschema, (*path, k))):
            return error


def validate_config(config: dict, schema: dict):
    """Check parsed JSON against ``schema``; the raised message names the field path."""
    if error := _first_error(config, schema):
        raise DomainError(f"config field {'/'.join(map(str, error[0])) or '(root)'}: {error[1]}")


def _check_sizes(config: dict):
    """A DomainError naming the larger size, should the campaign's largest arrays, its
    (iterations, n_trials x rules, 8) noise draws and (3, n_trials x rules, count) camera-frame
    points, exceed the np.iinfo(np.intp).max bytes that NumPy checks before allocating."""
    points = config.get("model_points", {})
    sizes = {"n_trials": config["n_trials"], "iterations": config.get("iterations", 15),
             "model_points/count": 1 if "path" in points else points.get("count", 100)}
    row_bytes = 8 * len(config.get("update_rules", UPDATE_RULES))  # a float64 per rule
    for a, b, k in (("n_trials", "iterations", 8), ("n_trials", "model_points/count", 3)):
        if sizes[a] * sizes[b] * k * row_bytes > np.iinfo(np.intp).max:
            field = max((a, b), key=sizes.get)
            raise DomainError(f"config field {field}: {sizes[field]} is too large, the "
                              "campaign's arrays would exceed NumPy's size limit")


def _load_model_points(cfg: dict) -> ModelPoints:
    if "path" in cfg:
        with reading(cfg["path"]):
            return ModelPoints.from_json(cfg["path"])
    rng = np.random.default_rng(cfg.get("seed", 0))
    extent = cfg.get("extent", 0.2)
    n = cfg.get("count", 100)
    return ModelPoints(rng.uniform(-extent / 2.0, extent / 2.0, size=(n, 3)))


def _load_targets(cfg: dict, n: int, seed: int) -> PoseBatch:
    """The campaign's n targets. Uniform targets are drawn from child 0 of
    ``SeedSequence(seed)``; the trials' noise comes from child 1."""
    if cfg["kind"] == "file":
        if "path" not in cfg:
            raise DomainError("config field targets/path: required for kind 'file'")
        path = cfg["path"]

        def row(doc):
            if "manifest" not in doc:
                state = ParamState.from_dict(doc)
                return state.rotation.quat, state.translation, state.focal

        poses = PoseBatch(*read_columns(path, lambda docs: pose_columns(*number_columns(map(
            _POSE_FIELDS, (d for d in docs if "manifest" not in d)), (4,), (3,), ())),
            row, (4,), (3,), ()))
        if len(poses) < n:
            raise DomainError(f"{path}: target file has {len(poses)} poses, need {n}")
        return poses.take(slice(n))
    from .sampling import sample_pose_uniform
    return sample_pose_uniform(_uniform_ranges(cfg, "config field targets/"), n,
                               np.random.SeedSequence(seed).spawn(1)[0])


def run_simulation(config: dict) -> dict:
    """Validated config in, campaign report out."""
    from .simulator import ClampBounds, NoiseScales, OraclePredictor, run_experiment
    validate_config(config, SIMULATE_SCHEMA)
    _check_sizes(config)
    seed = config.get("seed", 0)
    pred_cfg = config.get("predictor", {})
    noise = pred_cfg.get("noise")
    clamp = pred_cfg.get("clamp")
    predictor = OraclePredictor(
        noise=NoiseScales(**noise) if noise is not None else None,
        clamp=ClampBounds(**clamp) if clamp is not None else None)
    points = _load_model_points(config.get("model_points", {}))
    targets = _load_targets(config["targets"], config["n_trials"], seed)
    intrinsics = CameraIntrinsics(config.get("focal_init", 600.0), 0.0, 0.0)
    return run_experiment(
        targets, points, intrinsics, img_diag=config.get("img_diag", 800.0),
        predictor=predictor, iterations=config.get("iterations", 15),
        variants=tuple(config.get("update_rules", UPDATE_RULES)),
        seed=seed, keep_trajectories=config.get("keep_trajectories", False))


def _report_csv_rows(report: dict):
    columns = [f"median_{f}" for f in METRIC_FIELDS]
    rows = [[rule, rec["iteration"], *(repr(rec[c]) for c in columns)]
            for rule, entry in report["variants"].items()
            for rec in entry["per_iteration_medians"]]
    return ["update_rule", "iteration", *columns], rows


@main.command("simulate")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def simulate(config_path, out, fmt):
    """Run a paired refinement campaign described by a JSON config."""
    with reading(config_path):
        config = json.loads(Path(config_path).read_text("utf-8"))
    report = run_simulation(config)
    manifest = _manifest("simulate", config, seed=config.get("seed", 0),
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

def _pair_cloud(doc, state):
    """None for a manifest or a {"model_points": {name: [[x,y,z], ...]}} line, whose clouds
    it names in ``state``, and otherwise the pair's cloud, named or inline. ``state`` is [the
    clouds named, the index of the next pair] of a pair file's lines before ``doc``."""
    if "manifest" in doc:
        return None
    named = state[0]
    if "model_points" in doc and "pred" not in doc:
        for name, pts in doc["model_points"].items():
            named[name] = ModelPoints(np.asarray(pts, dtype=float)).points
        return None
    k, pts_field = state[1], doc["points"]
    state[1] = k + 1
    if isinstance(pts_field, str):
        if pts_field not in named:
            raise DomainError(f"pair {k}: unknown model-points reference {pts_field!r}")
        return named[pts_field]
    return ModelPoints(np.asarray(pts_field, dtype=float)).points


def _load_pairs(path) -> dict:
    """Read a JSON-lines pair file into the columns that :func:`evaluate_pair` scores.

    A leading {"model_points": {name: [[x,y,z], ...]}} line defines shared
    point clouds; pair lines reference them by name or carry inline points.
    The file is read column-wise in blocks of lines, and line by line in a block with a
    malformed line; a column-wise block's clouds and pairs count once its checks pass.
    """
    no_box = [math.nan] * 4
    state = [{}, 0]  # the clouds named and the index of the next pair, as of the blocks read
    shapes = (None, (4,), (3,), (), (4,), (3,), (), (4,), (), (4,))

    def pair(doc):
        if (points := _pair_cloud(doc, state)) is None:
            return None
        pred, gt = ParamState.from_dict(doc["pred"]), ParamState.from_dict(doc["gt"])
        bbox_gt = BBox(*[float(v) for v in doc["bbox_gt"]]).as_list()
        img_diag = float(doc["img_diag"])
        bbox_pred = (BBox(*[float(v) for v in doc["bbox_pred"]]).as_list()
                     if doc.get("bbox_pred") is not None else no_box)
        if not (math.isfinite(img_diag) and img_diag > 0):
            raise DomainError(f"image diagonal must be finite and positive, got {img_diag}")
        if not 0 < gt.translation.dot(gt.translation) < math.inf:
            raise DomainError(GT_NORM_ERROR)
        return (points, pred.rotation.quat, pred.translation, pred.focal, gt.rotation.quat,
                gt.translation, gt.focal, bbox_gt, img_diag, bbox_pred)

    def columns(docs):
        trial = [dict(state[0]), state[1]]

        def rows():
            for doc in docs:
                if (points := _pair_cloud(doc, trial)) is not None:
                    pred, gt, box = doc["pred"], doc["gt"], doc.get("bbox_pred")
                    yield (points, pred["quat_wxyz"], pred["t_m"], pred["focal_px"],
                           gt["quat_wxyz"], gt["t_m"], gt["focal_px"], doc["bbox_gt"],
                           doc["img_diag"], no_box if box is None else box, box is not None)

        points, pq, pt, pf, gq, gt_t, gf, bbox_gt, img_diag, bbox_pred, given = number_columns(
            rows(), *shapes, None)
        (pq, pt, pf), (gq, gt_t, gf) = pose_columns(pq, pt, pf), pose_columns(gq, gt_t, gf)
        norm2 = row_dot(gt_t, gt_t)
        require(np.isfinite(img_diag) & (img_diag > 0) & (0 < norm2) & (norm2 < np.inf))
        check_boxes(bbox_gt)
        check_boxes(bbox_pred, given)
        state[:] = trial
        return points, pq, pt, pf, gq, gt_t, gf, bbox_gt, img_diag, bbox_pred

    import orjson
    points, pq, pt, pf, gq, gt_t, gf, bbox_gt, img_diag, bbox_pred = read_columns(
        path, columns, pair, *shapes, loads=orjson.loads)
    if not points:
        raise DomainError(f"no evaluation pairs in {path}")
    return {"pred": PoseBatch(pq, pt, pf), "gt": PoseBatch(gq, gt_t, gf), "points": tuple(points),
            "img_diag": img_diag, "bbox_gt": bbox_gt, "bbox_pred": bbox_pred}


@main.command("evaluate")
@click.argument("pairs_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def evaluate(pairs_file, out, fmt):
    """Score prediction/ground-truth pairs and aggregate the metrics."""
    columns = evaluate_pair(_load_pairs(pairs_file))
    summary = aggregate(columns)
    manifest = _manifest("evaluate", {}, seed=None, input_paths=[pairs_file])
    if fmt == "json":
        write_json(out, manifest, {"summary": summary, "records": RecordColumns(columns)})
    else:
        ious = [t if t != "nan" else "" for t in _float_texts(columns["iou"])]
        write_csv(out, manifest, RECORD_FIELDS, zip(
            *[_float_texts(columns[f]) for f in METRIC_FIELDS], ious))
    med = summary["medians"]
    click.echo("medians: " + " ".join(f"{f}={med[f]:.6g}" for f in METRIC_FIELDS))


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _random_gradcheck_case(rng: np.random.Generator):
    pts = ModelPoints(rng.uniform(-0.1, 0.1, size=(20, 3)))
    quats = rng.standard_normal((3, 4))

    def state_from(q):
        t = [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.8, 3.0)]
        return ParamState(Rotation(q), np.array(t), rng.uniform(300.0, 900.0))

    state, gt = state_from(quats[0]), state_from(quats[1])
    noise = rng.normal(0.0, 0.05, size=(3, 2))
    oracle = oracle_delta(state, gt)
    delta = DeltaTheta(
        vx=oracle.vx + rng.normal(0, 5.0),
        vy=oracle.vy + rng.normal(0, 5.0),
        vz=oracle.vz * np.exp(rng.normal(0, 0.05)),
        v_r1=oracle.v_r1 + noise[:, 0],
        v_r2=oracle.v_r2 + noise[:, 1],
        vf=oracle.vf + rng.normal(0, 0.05),
    )
    return state, delta, gt, pts


def run_gradcheck(seed: int, n: int, step: float) -> dict:
    """Gradient check on random configurations; non-smooth points are flagged
    and excluded from the pass/fail decision."""
    from .losses import GRAD_LABELS, gradient_check
    rng = np.random.default_rng(seed)
    results = []
    for i in range(n):
        rep = gradient_check(*_random_gradcheck_case(rng), step=step)
        results.append({"index": i, "smooth": rep["smooth"], "max_rel_err": rep["max_rel_err"],
                        "per_component": dict(zip(GRAD_LABELS, rep["per_component"]))})
    smooth = [r for r in results if r["smooth"]]
    worst = max((r["max_rel_err"] for r in smooth), default=0.0)
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
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("-n", "--num", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--step", type=float, default=1e-6, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def gradcheck(seed, num, step, out):
    """Check analytic loss gradients against central finite differences."""
    try:
        report = run_gradcheck(seed, num, step)
    except DomainError as exc:
        # The random cases lie well inside the loss's domain; what
        # gradient_check rejects is the step.
        raise click.BadParameter(str(exc), param_hint="'--step'") from exc
    if out:
        manifest = _manifest("gradcheck", {"n": num, "step": step}, seed=seed)
        write_json(out, manifest, {"report": {k: v for k, v in report.items()
                                              if k != "points"},
                                   "points": report["points"]})
    click.echo(f"{report['n_smooth']}/{report['n_points']} smooth points, "
               f"{report['n_flagged_nonsmooth']} flagged non-smooth, "
               f"max rel err {report['max_rel_err_smooth']:.3e}")
    if not report["passed"]:
        raise click.ClickException(
            f"gradient mismatch: max rel err {report['max_rel_err_smooth']:.3e} "
            f"> {GRADCHECK_FAIL_THRESHOLD}" if report["n_smooth"] else
            f"no point was smooth enough to check at step {step}")


if __name__ == "__main__":
    main()
