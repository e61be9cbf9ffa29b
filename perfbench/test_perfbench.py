"""Self-tests of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

They run the real flashlab CLI and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_runner(tmp_path: Path, name: str, reference: dict | None = None) -> worker.Runner:
    config = tmp_path / "bench.ini"
    wl = workloads.make_workload(name, 3, "tiny", tmp_path / "out", config)
    config.write_text(wl.config_text)
    mods, _ = worker.setup(wl)
    return worker.Runner(wl, mods, tmp_path / "out", reference)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_prints_exactly_the_benchmark_metrics(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}


def test_corrupted_digest_is_a_failure(tmp_path):
    clean = tiny_runner(tmp_path, "certify")
    clean.run_pass()
    assert not clean.failed_ops
    digest = clean.first_digests[0]["certificate.json"]
    corrupted = {"certificate.json": ("0" if digest[0] != "0" else "1") + digest[1:]}
    runner = tiny_runner(tmp_path, "certify", {"digests": corrupted, "counters": {}})
    runner.run_pass()
    assert runner.failed_ops == {(0, 0)}


def test_flipped_count_is_a_failure(tmp_path):
    runner = tiny_runner(tmp_path, "run_flashes")
    op = runner.workload.ops[0]
    runner.out_dir.mkdir()
    assert runner.cli.main(list(op.argv)) == 0
    assert workloads.check_op(runner.workload, op, runner.out_dir, "", None)[2] == []
    path = runner.out_dir / "run_rgrwf.json"
    payload = json.loads(path.read_text())
    payload["counts"]["++"] += 1  # the sum still matches n, so only the CSV cross-check sees it
    payload["counts"]["--"] -= 1
    path.write_text(json.dumps(payload))
    problems = workloads.check_op(runner.workload, op, runner.out_dir, "", None)[2]
    assert any("rebuilt from the flash csv" in p for p in problems)


def test_counter_drift_is_a_failure(tmp_path):
    runner = tiny_runner(tmp_path, "certify")
    same = {"models.runs": 4, "randomness.uniforms": 104}
    worker.check_counters(runner, [same, dict(same)], [1, 3])
    assert not runner.failed_ops
    worker.check_counters(runner, [same, {**same, "randomness.uniforms": 105}], [1, 3])
    assert runner.failed_ops == {(3, 0)}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
