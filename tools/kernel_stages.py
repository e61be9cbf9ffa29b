"""Time the counts kernel's stages over a classify battery.

Runs ``classify`` for the three built-in models at master seed 1 and a
classify size of perfbench/workloads.py (``bench``, the benchmark's, by
default) and reports how long each stage of the kernel took, per battery:

  streams          PCG64Streams construction (SeedSequence words, LCG setup)
  pattern draws    the count, time and position draws of _Patterns
  pattern layout   the rest of _Patterns: Poisson inversion, scaling, the
                   padded layout, the sort of times where positions are read
  order            frame times and each run's first flashes in processing
                   order
  decision draws   the channel (or hidden-variable) draws
  closed form      the epsilon = 0 first channels: per-request probability
                   tables, their gather by row and the band checks
  collapse         the runs replayed through the exact collapse (or
                   local_hv's channel rule), with its setup
  tally            counting each block's cells per request
  other            the rest of the battery: request plans, blocks and
                   seeds, verdicts, chi-square

Below the table it gives the collapse's work per battery: its steps,
summed over every _collapse call, and its row-steps, the live rows summed
over those steps, so that a change to the collapse shows its element
work beside its milliseconds; and the conclusive runs the closed form
replayed through the collapse, against all it was given.  Then, per draw
stage, the uniforms the streams computed (the states given to
randomness._next_double) against those they returned (the lengths asked
of PCG64Streams.draw): a draw computes whole batches, so the first may
exceed the second.  Last, per sweep of the battery (a model and a number
of settings arms, in the order classify runs them), its kernel blocks and
their rows, so that a change in block count shows beside the stage times.

Each stage is timed by wrapping the flashlab functions that make it up
and counting only their own time, not that of a wrapped stage they call.
The wrappers add a few microseconds per call, so the total runs a little
above an untimed battery.  One warm-up battery (which imports scipy) is
not counted; the table gives the median over ``--passes`` batteries.
The tool fails if a function it wraps is gone, or was never called,
except the replay's: a battery may leave the collapse no run.

Usage (standard library, flashlab and perfbench's size table only):

    python tools/kernel_stages.py [--passes N] [--size bench|tiny]

The flashlab it times is the one in this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import inspect
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from flashlab import models, randomness  # noqa: E402
from flashlab.classify import ClassifyConfig, classify  # noqa: E402
from flashlab.randomness import PCG64Streams  # noqa: E402
from perfbench.workloads import SIZES  # noqa: E402

STAGES = ("streams", "pattern draws", "pattern layout", "order", "decision draws",
          "closed form", "collapse", "tally", "other")
# the replay's functions, which a battery need not call
REPLAY = tuple(f"{models.__name__}.{name}" for name in ("_collapse_runs", "_collapse"))


class StageClock:
    """Own time per stage of the wrapped calls, over one battery."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = {}  # per wrapped function: calls so far
        self._stack = []  # per open wrapped call: [stage, time spent in wrapped callees]

    def wrap(self, owner, name: str, stage) -> None:
        """Rebind ``owner.name`` to a timed version; ``stage`` is a stage
        name or a function of the enclosing stage giving one."""
        fn = getattr(owner, name)
        key = f"{owner.__name__}.{name}"
        self.calls[key] = 0

        def timed(*args, **kwargs):
            self.calls[key] += 1
            outer = self.stage()
            label = stage(outer) if callable(stage) else stage
            self._stack.append([label, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):  # time the work, not making the generator
                    result = iter(list(result))
                return result
            finally:
                spent = time.perf_counter() - start
                _, inner = self._stack.pop()
                self.seconds[label] += spent - inner
                if self._stack:
                    self._stack[-1][1] += spent

        setattr(owner, name, timed)

    def stage(self) -> str | None:
        """The stage of the innermost open wrapped call."""
        return self._stack[-1][0] if self._stack else None


def draw_stage(outer: str | None) -> str:
    return "pattern draws" if outer == "pattern layout" else "decision draws"


def instrument(clock: StageClock) -> None:
    clock.wrap(PCG64Streams, "__init__", "streams")
    clock.wrap(PCG64Streams, "draw", draw_stage)
    clock.wrap(PCG64Streams, "skip", draw_stage)
    clock.wrap(models._Patterns, "__init__", "pattern layout")
    clock.wrap(models._Patterns, "first_flashes", "order")
    clock.wrap(models, "_frame_times", "order")
    clock.wrap(models._Patterns, "first_channels", "closed form")
    clock.wrap(models, "_closed_form", "closed form")
    clock.wrap(models._Patterns, "hidden_variables", "collapse")
    clock.wrap(models, "_collapse_runs", "collapse")
    clock.wrap(models, "_collapse", "collapse")
    clock.wrap(models, "_lhv_plus", "collapse")
    clock.wrap(models._Tally, "add", "tally")


def count_collapse_work(work: dict) -> None:
    """Rebind models._collapse to add each call's steps and row-steps to
    ``work``, and _Patterns.first_channels and models._collapse_runs to
    add the conclusive runs each is given."""
    collapse, first_channels, collapse_runs = (
        models._collapse, models._Patterns.first_channels, models._collapse_runs)

    def counted(params, trig, side_a, draws, live):
        work["steps"] += len(live)
        work["row-steps"] += sum(live)
        return collapse(params, trig, side_a, draws, live)

    def counted_runs(self, cos, sin, first_a, first_b):
        work["runs"] += int(self.conclusive.sum())
        return first_channels(self, cos, sin, first_a, first_b)

    def counted_replays(params, cos, sin, side_a, steps, draws):
        work["replayed"] += steps.size
        return collapse_runs(params, cos, sin, side_a, steps, draws)

    models._collapse = counted
    models._Patterns.first_channels = counted_runs
    models._collapse_runs = counted_replays


def count_draw_values(clock: StageClock, values: dict) -> None:
    """Rebind randomness._next_double and PCG64Streams.draw to add the
    values each draw computes and returns to ``values``, keyed by the
    clock's stage; call it before instrument, so that the clock's draw
    wrapper has opened the stage."""
    next_double, draw = randomness._next_double, PCG64Streams.draw
    clock.calls["randomness._next_double"] = 0

    def computed(hi, lo):
        clock.calls["randomness._next_double"] += 1
        values[clock.stage(), "computed"] += hi.size
        return next_double(hi, lo)

    def returned(self, lengths):
        values[clock.stage(), "returned"] += int(lengths.sum())
        return draw(self, lengths)

    randomness._next_double = computed
    PCG64Streams.draw = returned


def count_blocks(sweeps: list) -> None:
    """Rebind models._blocks to append each sweep's (model, arms, rows of
    each block) to ``sweeps``."""
    blocks = models._blocks

    def counted(model, requests, *args, **kwargs):
        rows = []
        sweeps.append((model.value, len(requests[0].arms), rows))
        for block in blocks(model, requests, *args, **kwargs):
            rows.append(block[1].size)
            yield block

    models._blocks = counted


def battery(config: ClassifyConfig) -> list:
    return [classify(model, config=config) for model in models.ModelId]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=7, help="timed batteries (default 7)")
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="sample sizes (default bench)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    config = ClassifyConfig(master_seed=1, **SIZES[args.size]["classify"])

    battery(config)  # warm-up: scipy import, Poisson tables, jump tables
    work = defaultdict(int)  # collapse steps and row-steps, and runs, of one battery
    count_collapse_work(work)
    clock = StageClock()
    values = defaultdict(int)  # (draw stage, computed or returned): values in one battery
    count_draw_values(clock, values)
    sweeps = []  # (model, arms, rows of each block) of each sweep in one battery
    count_blocks(sweeps)
    instrument(clock)
    per_pass = defaultdict(list)
    for _ in range(args.passes):
        clock.seconds.clear()
        work.clear()
        values.clear()
        sweeps.clear()
        start = time.perf_counter()
        battery(config)
        total = time.perf_counter() - start
        clock.seconds["other"] = total - sum(clock.seconds.values())
        for stage in STAGES:
            per_pass[stage].append(clock.seconds[stage])
        per_pass["total"].append(total)

    idle = [key for key, calls in clock.calls.items() if not calls and key not in REPLAY]
    if idle:  # a stage would read 0 because the kernel no longer calls it
        print(f"error: not called in a battery: {', '.join(idle)}", file=sys.stderr)
        return 1
    total = statistics.median(per_pass["total"])
    print(f"classify battery, 3 models, size {args.size}, seed 1: "
          f"median of {args.passes} passes")
    print(f"{'stage':<16}{'ms':>9}{'share':>8}")
    for stage in STAGES + ("total",):
        ms = 1e3 * statistics.median(per_pass[stage])
        print(f"{stage:<16}{ms:9.2f}{ms / (1e3 * total):8.1%}")
    print(f"collapse work per battery: {work['steps']:,} steps, "
          f"{work['row-steps']:,} row-steps; runs replayed: {work['replayed']:,} "
          f"of {work['runs']:,}")
    print("draw values per battery (computed / returned):")
    for stage in ("pattern draws", "decision draws"):
        computed, returned = values[stage, "computed"], values[stage, "returned"]
        print(f"  {stage:<16}{computed:,} / {returned:,} ({computed / returned:.2f}x)")
    print(f"kernel blocks per battery: {sum(len(rows) for *_, rows in sweeps)}")
    for model, arms, rows in sweeps:
        print(f"  {model:<16}{arms} arm{'s' * (arms > 1)}: {len(rows)} "
              f"block{'s' * (len(rows) > 1)}, {' + '.join(f'{r:,}' for r in rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
