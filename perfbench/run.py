#!/usr/bin/env python3
"""Benchmark of the posefocal CLI: three workloads, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ablation --seed 0 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another, each in a
fresh process. ``--trace 1`` prints the per-layer metrics instead of the
end-to-end ones. ``--smoke`` runs tiny inputs with every check, for tests.

One single-threaded process calls the CLI entry point in-process, one
command at a time (a closed loop with one caller). The benchmark writes
every input file from ``--seed``; the program only reads those files. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory.
"""

import os

# Pin BLAS and OpenMP pools before anything loads NumPy: idle pool threads
# would spin against the single-threaded loop and the calibration loop.
PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)
# Pins the manifest timestamp, so reruns are byte-identical.
os.environ["SOURCE_DATE_EPOCH"] = "1700000000"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import bench_inputs  # noqa: E402
import bench_tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("ablation", "datagen", "score")
# Set-up is measured in this many fresh child processes besides the run's
# own process; setup_s is the median of all of them.
SETUP_PROBES = 2
MIN_PASSES = 3
# Calibration: a fixed loop of interpreter and NumPy work, run before the
# first command and after every command. Each command's time is scaled by
# NOMINAL_CAL_S over the mean of the loop's two measurements around it, i.e.
# reported at the loop's nominal speed; the raw seconds are reported beside.
CAL_REPS = 400
NOMINAL_CAL_S = 0.05


@dataclass(frozen=True)
class _Pose:
    axis: object
    t: object
    norm: float


def calibrate(np) -> float:
    """Raw seconds of the fixed calibration loop (never touches posefocal).

    Each step does the kinds of work the program's hot paths do: 3-vector
    arithmetic, a 100-point cloud projected through a 3x3 matrix and
    reduced, small lists and a small frozen dataclass.
    """
    start = perf_counter()
    pts = np.linspace(-0.1, 0.1, 300).reshape(100, 3)
    m = np.eye(3)
    v = np.array([0.3, -0.2, 0.9])
    t = np.array([0.1, 0.2, 1.0])
    cells = {}
    acc = 0.0
    for i in range(CAL_REPS):
        a = np.cross(v, t)
        n = np.linalg.norm(a)
        v = a / n * 0.5 + t
        q = (np.column_stack([v, t, a]) @ v).tolist()
        acc += sum(q) + len(str(i)) + float(np.sign(np.array(q)).sum())
        cam = pts @ m.T + t
        uv = 600.0 * cam[:, :2] / cam[:, 2:3]
        acc += float(np.linalg.norm(uv - uv.mean(axis=0), axis=1).mean())
        cells[i % 64] = _Pose(a / n, t, float(n))
        m = np.column_stack([m[:, 1], m[:, 2], m[:, 0]])
    return perf_counter() - start


def _outputs(argv):
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--out"]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(cli_main, argv):
    """One CLI command in-process: (seconds, captured stdout, error or None)."""
    buf = io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            cli_main(argv, standalone_mode=False)
    except Exception as exc:  # a failing command is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, buf.getvalue(), error


class Program:
    """The imported CLI plus the calibration loop, run inside ``workdir``."""

    def __init__(self, workdir: Path, ops):
        self.workdir = workdir
        self.ops = ops
        start = perf_counter()
        self.cli = importlib.import_module("posefocal.cli")
        self.import_s = perf_counter() - start
        self.np = importlib.import_module("numpy")
        self.cals = [calibrate(self.np)]

    def run_pass(self, tracer=None) -> dict:
        """Run every operation once; each is bracketed by calibration runs."""
        raw, scaled, stdout, errors, digests = {}, {}, {}, {}, {}
        size = 0
        before = self.cals[-1]
        for name, argv in self.ops:
            if tracer is None:
                dt, out, err = run_op(self.cli.main, argv)
            else:
                dt, out, err = tracer.span(f"cli.{name}", run_op, self.cli.main, argv)
            after = calibrate(self.np)
            self.cals.append(after)
            raw[name] = dt
            scaled[name] = dt * NOMINAL_CAL_S / (0.5 * (before + after))
            before = after
            stdout[name], errors[name] = out, err
            paths = [self.workdir / p for p in _outputs(argv)]
            digests[name] = [_digest(p) if p.exists() else None for p in paths]
            size += sum(p.stat().st_size for p in paths if p.exists())
        return {"raw": raw, "scaled": scaled, "stdout": stdout, "errors": errors,
                "digests": digests, "output_bytes": size,
                "raw_s": sum(raw.values()), "run_s": sum(scaled.values())}

    def setup_sample(self, warm: dict) -> dict:
        """Import plus warm-up pass, raw and at the calibration loop's speed."""
        import_scaled = self.import_s * NOMINAL_CAL_S / self.cals[0]
        return {"setup_s": import_scaled + warm["run_s"],
                "setup_raw_s": self.import_s + warm["raw_s"],
                "import_s": self.import_s, "cal_s": self.cals[0]}


def _workdir(args) -> Path:
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "") \
        + ("-trace" if args.trace else "")
    return OUT / tag


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def machine_info(args, program: Program) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "posefocal").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    scipy = importlib.import_module("scipy")
    return {"python": platform.python_version(), "numpy": program.np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "git_sha": _git_sha(), "src_sha256": src.hexdigest(),
            "pinned_threads": PINNED_THREADS, "seed": args.seed,
            "workload": args.workload, "smoke": args.smoke,
            "cal_raw_s": statistics.median(program.cals),
            "nominal_cal_s": NOMINAL_CAL_S}


def _probe_setup(args) -> dict:
    """Set-up time measured in a fresh process (import + warm-up pass)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    workdir = _workdir(args)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    sizes = bench_inputs.SMOKE if args.smoke else bench_inputs.FULL
    ops = bench_inputs.MAKERS[args.workload](workdir, args.seed, sizes)
    (workdir / "ops.json").write_text(json.dumps(ops) + "\n")
    probes = [] if (args.trace or args.smoke) else \
        [_probe_setup(args) for _ in range(SETUP_PROBES)]

    os.chdir(workdir)
    program = Program(workdir, ops)
    warm = program.run_pass()
    setups = probes + [program.setup_sample(warm)]

    tracer = bench_tracing.Tracer() if args.trace else None
    passes, traced, untraced = [], [], []
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(passes) < MIN_PASSES:
        if tracer is not None:
            untraced.append(program.run_pass())
            tracer.install(len(traced))
            try:
                traced.append(program.run_pass(tracer))
            finally:
                tracer.uninstall()
            passes += [untraced[-1], traced[-1]]
        else:
            passes.append(program.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Imported only now: the checks load SciPy modules the program does not,
    # which must not count in set-up time or in the peak resident set.
    import bench_checks
    found = bench_checks.Findings([name for name, _ in ops])
    for name, _ in ops:
        # A command that raised has no output to check; tally counts its error.
        if warm["errors"][name] is None:
            found.run(name, bench_checks.CHECKS[name], workdir, sizes, warm["stdout"][name])
    attempted, failed, correct, reasons = found.tally(passes, warm, ops)

    info = machine_info(args, program)
    cal_s = info["cal_raw_s"]
    summary = {"workload": args.workload, "passes": len(passes), "machine": info,
               "reasons": reasons, "notes": found.notes, "stdout": warm["stdout"]}
    if tracer is not None:
        overhead = (statistics.median(p["run_s"] for p in traced)
                    / statistics.median(p["run_s"] for p in untraced))
        metrics = bench_tracing.per_layer_metrics(
            tracer, range(len(traced)), warm["output_bytes"], program.import_s,
            cal_s, overhead)
        tracer.write(workdir / "spans.jsonl")
        summary["command_share"] = {
            name: statistics.median(p["raw"][name] / p["raw_s"] for p in untraced)
            for name, _ in ops}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups),
                        "unit": "s"},
            "run_s": {"value": statistics.median(p["run_s"] for p in passes),
                      "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        summary["raw"] = {
            "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
            "run_s": statistics.median(p["raw_s"] for p in passes),
            "import_s": statistics.median(s["import_s"] for s in setups)}
        summary["setups"] = setups
        summary["pass_times"] = [{"run_s": p["run_s"], "raw_s": p["raw_s"]} for p in passes]
        summary["cal_s"] = program.cals
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (workdir / "result.json").write_text(
        json.dumps({**summary, "result": result}, indent=2) + "\n")
    _print_summary(summary, result)
    return result


def _print_summary(summary, result):
    info = summary["machine"]
    print(f"workload {summary['workload']} seed {info['seed']}: "
          f"{summary['passes']} timed passes, {result['attempted']} operations "
          f"attempted, {result['failed']} failed")
    for reason in summary["reasons"]:
        print(f"  failed check {reason[:300]}")
    for name, value in summary["notes"].items():
        print(f"  {name} {value:.3g}")
    raw = summary.get("raw", {})
    for name, m in result["metrics"].items():
        extra = f"  (raw {raw[name]:.4f} s)" if name in raw else ""
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{extra}")
    if "command_share" in summary:
        print("  command share of run_s: " + ", ".join(
            f"{k} {v:.1%}" for k, v in summary["command_share"].items()))
    print(f"  calibration loop raw {info['cal_raw_s']:.4f} s "
          f"(nominal {info['nominal_cal_s']} s)")
    print("machine: " + json.dumps(info, sort_keys=True))


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True, timeout=900)
        print(done.stdout.rstrip("\n").rsplit("\n", 1)[0])
        if done.returncode != 0:
            raise RuntimeError(f"{workload} failed: {done.stderr.strip()[-2000:]}")
        res = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{workload}.{k}": v
                                    for k, v in res["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no set-up probes, for tests")
    parser.add_argument("--probe", action="store_true",
                        help="measure one set-up (import and warm-up pass) in the "
                             "run directory a run has made, and print it as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "posefocal" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'posefocal'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe:
        workdir = _workdir(args)
        os.chdir(workdir)
        ops = [(name, argv) for name, argv in
               json.loads((workdir / "ops.json").read_text())]
        program = Program(workdir, ops)
        print(json.dumps(program.setup_sample(program.run_pass())))
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
