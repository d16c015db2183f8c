"""Per-layer tracing from outside the program.

The tracer wraps public functions of ``posefocal`` while a traced pass runs
and restores them afterwards. Modules import functions by name, so each
wrapper is installed under every module attribute that refers to the
original function; class attributes (``Rotation.__post_init__``,
``OraclePredictor.__call__``) are patched on the class.

Spans (name, start, end, parent index, pass) are kept in memory and
written out when the run ends. Functions called tens of thousands of times
per pass are only counted.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (defining module, attribute, span name, "span" or "count")
TARGETS = [
    ("posefocal.cli", "write_json", "cli.write", "span"),
    ("posefocal.cli", "write_jsonl", "cli.write", "span"),
    ("posefocal.simulator", "run_refinement", "simulator.run_refinement", "span"),
    ("posefocal.simulator", "OraclePredictor.__call__", "simulator.predictor", "span"),
    ("posefocal.simulator", "projected_bbox", "simulator.projected_bbox", "span"),
    ("posefocal.update_rules", "apply_update", "update_rules.apply_update", "span"),
    ("posefocal.update_rules", "oracle_delta", "update_rules.oracle_delta", "span"),
    ("posefocal.geometry", "rotation_from_6d", "geometry.rotation_from_6d", "span"),
    ("posefocal.geometry", "Rotation.__post_init__", "geometry.rotation_inits", "count"),
    ("posefocal.geometry", "geodesic_distance", "geometry.geodesic_distance", "count"),
    ("posefocal.metrics", "evaluate_pair", "metrics.evaluate_pair", "span"),
    ("posefocal.metrics", "aggregate", "metrics.aggregate", "span"),
    ("posefocal.losses", "gradient_check", "losses.gradient_check", "span"),
    ("posefocal.losses", "total_loss", "losses.total_loss", "span"),
    ("posefocal.losses", "smoothness_margins", "losses.smoothness_margins", "span"),
    ("posefocal.sampling", "load_annotations", "sampling.load_annotations", "span"),
    ("posefocal.sampling", "fit_bingham", "sampling.fit_bingham", "span"),
    ("posefocal.sampling", "fit_translation_focal", "sampling.fit_translation_focal", "span"),
    ("posefocal.sampling", "select_deltas_95pct", "sampling.select_deltas_95pct", "span"),
    ("posefocal.sampling", "sample_bingham", "sampling.sample_bingham", "span"),
    ("posefocal.sampling", "sample_pose_parametric",
     "sampling.sample_pose_parametric", "span"),
    ("posefocal.sampling", "sample_pose_nonparametric",
     "sampling.sample_pose_nonparametric", "span"),
]

# Spans whose result length is the amount of work done (poses drawn).
SIZED = {"sampling.sample_pose_parametric", "sampling.sample_pose_nonparametric"}

CLI_OPS = ("simulate", "fit_dist_parametric", "fit_dist_nonparametric",
           "sample_parametric", "sample_nonparametric", "evaluate", "gradcheck")

# BENCHMARK.json names every per-layer metric and its unit.
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Tracer:
    """Installs the wrappers for one traced pass at a time."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, pass, size]
        self.counts = defaultdict(Counter)  # pass -> name -> calls
        self.stack = []
        self.pass_id = -1
        self._undo = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                size = len(result) if name in SIZED and result is not None else None
                spans[index] = [name, start, end, stack[-1] if stack else -1,
                                self.pass_id, size]
        return traced

    def _count_wrapper(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[self.pass_id][name] += 1
            return fn(*args, **kwargs)
        return counted

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a root span (one CLI operation)."""
        return self._span_wrapper(name, fn)(*args)

    def install(self, pass_id: int):
        self.pass_id = pass_id
        modules = [m for n, m in list(sys.modules.items())
                   if n == "posefocal" or n.startswith("posefocal.")]
        for mod_name, attr, name, kind in TARGETS:
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, make(name, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = make(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def pass_stats(self):
        """pass -> name -> {"calls", "total", "self", "size"}."""
        stats = defaultdict(lambda: defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0, "size": 0}))
        child_time = defaultdict(float)
        for name, start, end, parent, pass_id, size in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, pass_id, size) in enumerate(self.spans):
            s = stats[pass_id][name]
            s["calls"] += 1
            s["total"] += end - start
            s["self"] += end - start - child_time[index]
            s["size"] += size or 0
        for pass_id, counts in self.counts.items():
            for name, calls in counts.items():
                stats[pass_id][name]["calls"] += calls
        return stats


def _layer_values(st, output_bytes: int) -> dict:
    """Per-layer metric values of one traced pass."""
    def calls(name):
        return st[name]["calls"] if name in st else 0

    def total(name):
        return st[name]["total"] if name in st else 0.0

    def mean_us(name):
        return 1e6 * total(name) / calls(name) if calls(name) else 0.0

    def rate(name):
        return st[name]["size"] / total(name) if total(name) else 0.0

    values = {f"cli.{op}_s": total(f"cli.{op}") for op in CLI_OPS}
    values.update({
        "cli.write_s": total("cli.write"),
        "cli.output_bytes": output_bytes,
        "simulator.run_refinement.calls": calls("simulator.run_refinement"),
        "simulator.run_refinement.self_s": st["simulator.run_refinement"]["self"]
        if "simulator.run_refinement" in st else 0.0,
        "simulator.predictor.calls": calls("simulator.predictor"),
        "simulator.predictor.us": mean_us("simulator.predictor"),
        "simulator.projected_bbox.us": mean_us("simulator.projected_bbox"),
        # One predictor call per refinement step.
        "simulator.trial_steps_per_s": calls("simulator.predictor")
        / total("simulator.run_refinement") if total("simulator.run_refinement") else 0.0,
        "update_rules.apply_update.calls": calls("update_rules.apply_update"),
        "update_rules.apply_update.us": mean_us("update_rules.apply_update"),
        "update_rules.oracle_delta.calls": calls("update_rules.oracle_delta"),
        "update_rules.oracle_delta.us": mean_us("update_rules.oracle_delta"),
        "geometry.rotation_from_6d.calls": calls("geometry.rotation_from_6d"),
        "geometry.rotation_from_6d.us": mean_us("geometry.rotation_from_6d"),
        "geometry.rotation_inits": calls("geometry.rotation_inits"),
        "geometry.geodesic_distance.calls": calls("geometry.geodesic_distance"),
        "metrics.evaluate_pair.calls": calls("metrics.evaluate_pair"),
        "metrics.evaluate_pair.us": mean_us("metrics.evaluate_pair"),
        "metrics.aggregate.s": total("metrics.aggregate"),
        "losses.gradient_check.calls": calls("losses.gradient_check"),
        "losses.gradient_check.ms": mean_us("losses.gradient_check") / 1e3,
        "losses.total_loss.calls": calls("losses.total_loss"),
        "losses.total_loss.us": mean_us("losses.total_loss"),
        "losses.smoothness_margins.us": mean_us("losses.smoothness_margins"),
        "sampling.load_annotations.s": total("sampling.load_annotations"),
        "sampling.fit_bingham.s": total("sampling.fit_bingham"),
        "sampling.fit_translation_focal.calls": calls("sampling.fit_translation_focal"),
        "sampling.select_deltas_95pct.s": total("sampling.select_deltas_95pct"),
        "sampling.sample_bingham.s": total("sampling.sample_bingham"),
        "sampling.sample_pose_parametric.poses_per_s":
            rate("sampling.sample_pose_parametric"),
        "sampling.sample_pose_nonparametric.poses_per_s":
            rate("sampling.sample_pose_nonparametric"),
    })
    return values


def per_layer_metrics(tracer: Tracer, traced_passes, output_bytes: int,
                      import_s: float, cal_s: float, overhead: float) -> dict:
    """Lower median over the traced passes of each per-layer value; times
    are raw seconds (not calibrated)."""
    stats = tracer.pass_stats()
    rows = [_layer_values(stats[p], output_bytes) for p in traced_passes]
    values = {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}
    values.update({"cli.import_s": import_s, "bench.cal_s": cal_s,
                   "bench.trace_overhead": overhead})
    units = {m["name"]: m["unit"]
             for m in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]}
    if set(units) != set(values):
        raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
