"""Smoke tests of the benchmark: every workload at a tiny size with every
output check, the traced run's metric set, the known faults' signatures, a
failing command, and the refusal to run without the program's source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench_checks import CHECKS, Findings, bingham_moments
from bench_inputs import SMOKE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _copy_checkout(dest, with_src=True):
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


@pytest.mark.parametrize("workload", ["ablation", "datagen", "score"])
def test_smoke_workload_is_correct(workload):
    res = _result(_run("--workload", workload, "--seed", "0", "--seconds", "0",
                       "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 3
    if workload != "score":
        assert res["failed"] == 0
    assert set(res["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = _result(_run("--workload", "score", "--seed", "0", "--seconds", "0",
                       "--smoke", "--trace", "1"))
    assert res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert res["metrics"]["losses.gradient_check.calls"]["value"] == 3


def _score_checks(workdir, stdout):
    ops = [("evaluate", None), ("gradcheck", None)]
    found = Findings([name for name, _ in ops])
    for name, _ in ops:
        found.run(name, CHECKS[name], workdir, SMOKE, stdout[name])
    clean = {"errors": {name: None for name, _ in ops},
             "digests": {name: ["same"] for name, _ in ops}}
    return found, found.tally([clean], clean, ops)


def test_known_faults_do_not_hide_wrong_outputs(tmp_path):
    assert _result(_run("--workload", "score", "--seed", "5", "--seconds", "0",
                        "--smoke"))["correct"] is True
    run_dir = HERE / "out" / "score-seed5-smoke"
    for name in ("pairs.jsonl", "eval.json", "grad.json"):
        shutil.copy(run_dir / name, tmp_path)
    stdout = json.loads((run_dir / "result.json").read_text())["stdout"]

    found, (attempted, failed, correct, _) = _score_checks(tmp_path, stdout)
    assert correct and failed == attempted == 2
    assert not found.by_op["evaluate"] and not found.by_op["gradcheck"]

    doc = json.loads((tmp_path / "eval.json").read_text())
    for rec in doc["records"]:
        rec["e_rot"] = abs(rec["e_rot"] - 0.5)
    (tmp_path / "eval.json").write_text(json.dumps(doc))
    doc = json.loads((tmp_path / "grad.json").read_text())
    for point in doc["points"]:
        point["per_component"] = {k: 0.125 for k in point["per_component"]}
    (tmp_path / "grad.json").write_text(json.dumps(doc))

    found, (_, _, correct, _) = _score_checks(tmp_path, stdout)
    assert correct is False
    assert any(f.startswith("e_rot_other:") for f in found.by_op["evaluate"])
    assert any(f.startswith("per_component_values:") for f in found.by_op["gradcheck"])


def test_failing_command_is_a_failed_operation(tmp_path):
    _copy_checkout(tmp_path)
    cli = tmp_path / "src" / "posefocal" / "cli.py"
    cli.write_text(cli.read_text() + "\n\ndef evaluate_pair(pair):\n"
                   "    raise DomainError('evaluate made to fail')\n")
    res = _result(_run("--workload", "score", "--seed", "0", "--seconds", "0",
                       "--smoke", cwd=tmp_path))
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] > 0


def test_refuses_to_run_without_program_source(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    done = _run("--workload", "score", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_bingham_moments_reference():
    assert bingham_moments([0.0, 0.0, 0.0, 0.0]) == pytest.approx([0.25] * 4, abs=1e-14)
    m = bingham_moments([-80.0, -50.0, -20.0, 0.0])
    assert m.sum() == pytest.approx(1.0, abs=1e-13)
    assert list(m) == sorted(m)
