"""Records perfbench/reference.json: the SHA-256 of every output file and
the exact counters of one traced pass, for the default workload seed and
one held-out seed.

    python3 perfbench/record_reference.py

CLI outputs are meant to stay byte-identical, so rerun this only for a
change that alters outputs on purpose, and say so in its description.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker
import workloads

DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def record(name: str, seed: int) -> dict:
    work = worker.RESULTS / f"record-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = work / "bench.ini"
        wl = workloads.make_workload(name, seed, "bench", work / "out", config)
        config.write_text(wl.config_text)
        mods, _ = worker.setup(wl)
        runner = worker.Runner(wl, mods, work / "out", None)
        # seconds=0: exactly one untraced and one traced pass
        result = worker.traced_metrics(runner, mods, 0, work / "spans.json", {})
        if runner.problems:
            sys.exit("\n".join(runner.problems))
        digests = {f: d for per_op in runner.first_digests.values() for f, d in per_op.items()}
        return {"digests": digests, "counters": result["counters"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    reference = {
        name: {str(seed): record(name, seed) for seed in (DEFAULT_SEED, HELD_OUT_SEED)}
        for name in workloads.WORKLOADS
    }
    worker.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
