"""Runs one benchmark workload in a fresh process and prints one JSON
object as its last line of standard output.

    python3 perfbench/worker.py --workload classify --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload classify --seed 1 --setup-only

run.py starts this script; it is not meant to be called by hand except
to debug a workload.  A pass makes every CLI call of the workload once,
through ``flashlab.cli.main``; passes repeat on the same input until
``--seconds`` have been spent, and every file each call writes is
checked.  With ``--trace 1`` untraced and traced passes alternate, and
the traced ones record spans (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


# Host-speed reference.  On a shared host the machine's speed drifts by
# 10-60% over minutes, more than any bound a regression gate can use.  A
# fixed interpreter-bound loop, timed right before and after each CLI
# call, tracks that drift, and each call's time is scaled by
# REF_NOMINAL_S / (mean loop time).  In two sets of ten runs of each
# workload this cut the spread (IQR / median) of wall_s from 21% and 9%
# raw to 5% and 6% on classify, from 33% and 11% to 4% and 3% on
# run_flashes, and from 14% and 16% to 4% and 5% on certify.
# REF_NOMINAL_S is the loop's median time on the host that defined the
# benchmark (2-core Xeon, Python 3.11.7); it only sets the scale.  Raw
# times are kept next to the scaled ones.  Set-up time is not scaled:
# import time does not track the loop (the loop read 22-38 ms across fresh
# processes whose imports all took 0.8-1.0 s).
REF_NOMINAL_S = 0.039


def reference_loop_s() -> float:
    """Seconds taken by the fixed host-speed reference loop."""
    t0 = perf_counter()
    acc, table = 0.0, {}
    for i in range(80000):
        x = (i * 0.618033988749895) % 1.0
        acc += math.cos(x) * math.sqrt(x + 1.0)
        table[i & 255] = (i & 7, x, -x)
    sorted(table.values())
    return perf_counter() - t0


def load_reference(workload: str, seed: int, size: str) -> dict | None:
    """Recorded digests and counters for this workload seed, if any."""
    if size != "bench" or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())[workload].get(str(seed))


def provenance(args) -> dict:
    """Machine, versions and source identity for a results file."""
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.is_file() else [])
              if line.startswith("model name")]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None  # the checkout need not be a git repository
    source = hashlib.sha256()
    for path in sorted((SRC / "flashlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def setup(workload: workloads.Workload):
    """Import flashlab and build the first call's config; returns the
    modules and the seconds that took."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import flashlab
    import flashlab.cli as cli

    cli.RunConfig(cli.build_parser().parse_args(list(workload.ops[0].argv)))
    elapsed = perf_counter() - t0
    if Path(flashlab.__file__).resolve().parent != SRC / "flashlab":
        raise SystemExit(f"error: imported flashlab from {flashlab.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"flashlab.{name}")
            for name in ("cli", "classify", "models", "determinism", "randomness", "minkowski")}
    return mods, elapsed


class Runner:
    """Executes and checks passes of one workload."""

    def __init__(self, workload, mods, out_dir: Path, reference: dict | None):
        self.workload = workload
        self.cli = mods["cli"]
        self.out_dir = out_dir
        self.reference = reference
        self.first_digests: dict[int, dict] = {}  # per call, from the first pass
        self.passes = 0
        self.attempted = 0
        self.failed_ops: set[tuple[int, int]] = set()  # (pass, call) pairs
        self.problems: list[str] = []
        self.refs: list[float] = []  # reference loop times, seconds

    def fail(self, pass_no: int, op_no: int, message: str) -> None:
        self.failed_ops.add((pass_no, op_no))
        self.problems.append(f"pass {pass_no} call {op_no}: {message}")

    def run_pass(self, tracer: tracing.Tracer | None = None) -> tuple[float, float, list[dict]]:
        """One pass; returns (seconds spent inside the CLI calls, the same
        scaled to nominal host speed, facts per call).

        The reference loop runs before every call and after the last, so
        each call is scaled by the loop times on either side of it.
        """
        wall = scaled = 0.0
        facts = []
        ref = reference_loop_s()
        self.refs.append(ref)
        pass_no = self.passes
        self.passes += 1
        ref_digests = self.reference["digests"] if self.reference else None
        for op_no, op in enumerate(self.workload.ops):
            # `flashlab run --csv` opens the CSV before anything creates the
            # output directory, so the directory must exist beforehand.
            shutil.rmtree(self.out_dir, ignore_errors=True)
            self.out_dir.mkdir(parents=True)
            buf = io.StringIO()
            rc, error = None, None
            if tracer is not None:
                tracer.begin_op()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    if tracer is None:
                        rc = self.cli.main(list(op.argv))
                    else:
                        rc = tracer.call("op", self.cli.main, list(op.argv))
            except Exception:  # a raising operation is counted as failed
                error = traceback.format_exc()
            elapsed = perf_counter() - t0
            ref_after = reference_loop_s()
            self.refs.append(ref_after)
            wall += elapsed
            scaled += elapsed * REF_NOMINAL_S / (0.5 * (ref + ref_after))
            ref = ref_after
            self.attempted += 1
            if error is not None or rc != 0:
                self.fail(pass_no, op_no, f"exit {rc} {error or ''}")
                facts.append({"rows": 0})
                continue
            digests, f, problems = workloads.check_op(
                self.workload, op, self.out_dir, buf.getvalue(), ref_digests
            )
            for problem in problems:
                self.fail(pass_no, op_no, problem)
            if self.first_digests.setdefault(op_no, digests) != digests:
                self.fail(pass_no, op_no, "outputs differ from the first pass on the same input")
            facts.append(f)
        if tracer is not None:
            tracer.end_pass()
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return wall, scaled, facts


def wall_tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return {"samples": n, "percentile": None, "value": None}
    ordered = sorted(samples)
    return {"samples": n, "percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def timed_metrics(runner: Runner, seconds: float) -> dict:
    """Passes until ``seconds`` are spent; times scaled to nominal host speed."""
    walls, scaled, items = [], [], 0
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        wall, wall_scaled, facts = runner.run_pass()
        walls.append(wall)
        scaled.append(wall_scaled)
        items += workloads.items_per_pass(runner.workload, facts)
    wl = runner.workload
    rates = {workloads.ITEM_RATE[wl.name]: items / sum(scaled)}
    if wl.name == "run_flashes":
        rates["runs_per_s"] = len(walls) * wl.sizes["run_n"] / sum(scaled)
    return {
        "rates": rates,
        "metrics": {
            "wall_s": statistics.median(scaled),
            "items_per_s": items / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "raw": {"wall_s": statistics.median(walls), "items_per_s": items / sum(walls)},
        "wall_samples": walls,
        "scaled_wall_samples": scaled,
        "reference_loop_s": runner.refs,
        "wall_tail": wall_tail(scaled),
        "items": items,
    }


def traced_metrics(runner: Runner, mods, seconds: float, spans_path: Path, about: dict) -> dict:
    """Alternate untraced and traced passes, then calibrate unit costs.

    Pass times here are scaled like wall_s, so the tracing overhead is
    traced minus untraced wall_s."""
    tracer = tracing.Tracer()
    plain_walls, traced_walls, totals, counters, pass_nos = [], [], [], [], []
    start = perf_counter()
    while not traced_walls or perf_counter() - start < seconds:
        plain_walls.append(runner.run_pass()[1])
        first_span, before = len(tracer.spans), dict(tracer.counts)
        restore = tracing.instrument(
            tracer, mods["cli"], mods["classify"], mods["models"], mods["determinism"]
        )
        pass_nos.append(runner.passes)
        try:
            _, wall, _ = runner.run_pass(tracer)
        finally:
            restore()
        traced_walls.append(wall)
        layer, span_counts = tracing.layer_totals(tracer.spans[first_span:])
        totals.append(layer)
        counts = {k: tracer.counts[k] - before.get(k, 0) for k in tracer.counts}
        counts.update(span_counts)
        counters.append({k: counts.get(k, 0) for k in tracing.INVARIANT_COUNTERS})
    check_counters(runner, counters, pass_nos)
    c = counters[0]
    runs = max(c["models.runs"], 1)
    metrics = {name: statistics.median(t[name] for t in totals) for name in totals[0]}
    metrics.update({
        "randomness.uniforms_per_run": c["randomness.uniforms"] / runs,
        "models.flashes_per_run": c["models.flashes"] / runs,
        "models.conclusive_ratio": c["models.conclusive"] / runs,
        "classify.pattern_reuse_ratio": c["models.patterns"] / runs,
        "stats.chi2_calls": c["stats.chi2_calls"],
        "determinism.witness_samples": c["determinism.witness_samples"],
        "cli.csv_bytes": c["cli.csv_bytes"],
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(plain_walls),
    })
    metrics.update({f"classify.runs.{t}": c[f"classify.runs.{t}"] for t in workloads.TEST_NAMES})
    metrics.update(tracing.calibrate(
        runner.workload.seed, mods["randomness"], mods["models"], mods["minkowski"],
        mods["determinism"],
    ))
    spans_path.write_text(json.dumps(
        {"provenance": about, "columns": tracing.SPAN_COLUMNS, "spans": tracer.spans}
    ))
    return {
        "metrics": metrics,
        "counters": c,
        "plain_walls": plain_walls,
        "traced_walls": traced_walls,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def check_counters(runner: Runner, counters: list[dict], pass_nos: list[int]) -> None:
    """Exact counters must repeat on every traced pass and match the
    recorded reference when there is one; a mismatch is an outcome change."""
    want = runner.reference["counters"] if runner.reference else counters[0]
    for counts, pass_no in zip(counters, pass_nos):
        for key in sorted(set(want) | set(counts)):
            if counts.get(key) != want.get(key):
                for op_no in range(len(runner.workload.ops)):
                    runner.fail(pass_no, op_no, f"counter {key} = {counts.get(key)}, "
                                                f"expected {want.get(key)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="bench")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = RESULTS / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config_path = work / "bench.ini"
        wl = workloads.make_workload(args.workload, args.seed, args.size, work / "out", config_path)
        config_path.write_text(wl.config_text)
        mods, setup_s = setup(wl)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        about = provenance(args)
        runner = Runner(wl, mods, work / "out", load_reference(args.workload, args.seed, args.size))
        if args.trace:
            spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
            result = traced_metrics(runner, mods, args.seconds, spans, about)
        else:
            result = timed_metrics(runner, args.seconds)
        result.update({
            "setup_s": setup_s,
            "attempted": runner.attempted,
            "failed": len(runner.failed_ops),
            "problems": runner.problems,
            "provenance": about,
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
