"""flashlab benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see README.md):
classify, run_flashes, certify.  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A results file, and with
``--trace 1`` a spans file, each with a provenance block, go to
perfbench/results/.

Each workload runs in one fresh worker process (worker.py) pinned to one
thread.  Set-up time is the median of that worker's import-and-config
time and of SETUP_PROBES further fresh processes that only set up.
wall_s and items_per_s are scaled to a nominal host speed (see
REF_NOMINAL_S in worker.py); the raw ones are printed and kept too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 4
# A worker may overrun --seconds by one pass; this caps the whole run
# well inside the 180 s a run may take.
WORKER_GRACE_S = 100
PROBE_TIMEOUT_S = 30
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def metric_specs() -> dict[str, list[dict]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(args: list[str], timeout: float) -> dict:
    """Run worker.py with ``args`` and return its last stdout line as JSON."""
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="flashlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="bench",
                        help="tiny: smoke-test sizes, not for measurement")
    args = parser.parse_args(argv)

    if not (SRC / "flashlab" / "cli.py").is_file():
        print(f"error: no flashlab sources under {SRC}", file=sys.stderr)
        return 2
    specs = metric_specs()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        probes = [spawn(common + ["--setup-only"], PROBE_TIMEOUT_S)
                  for _ in range(SETUP_PROBES if not args.trace else 0)]
        result = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + WORKER_GRACE_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    probes.append(result)
    setup = [p["setup_s"] for p in probes]
    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setup)
    units = {m["name"]: m["unit"] for m in specs["per_layer" if args.trace else "end_to_end"]}
    if set(measured) != set(units):
        print(f"error: measured {sorted(set(measured) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}

    RESULTS.mkdir(exist_ok=True)
    record = {
        "provenance": result["provenance"],
        "metrics": metrics,
        "setup_samples": setup,
        **{k: v for k, v in result.items() if k not in ("metrics", "provenance")},
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result.get("rates", {}).items():
        print(f"{name:40s} {value:>16.6g} 1/s")
    for name, value in result.get("raw", {}).items():
        print(f"{name + ' (raw, unscaled)':40s} {value:>16.6g} {units[name]}")
    if "wall_tail" in result:
        tail = result["wall_tail"]
        print(f"wall_s samples: {tail['samples']}; highest percentile with 10 beyond: "
              f"{'none (needs > 10)' if tail['percentile'] is None else tail}")
    print(f"fail_frac {result['failed']}/{result['attempted']}; results in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
