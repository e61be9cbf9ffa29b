"""Spans and counters for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``instrument`` rebinds
module attributes of flashlab (runner table, uniform sources, classify
tests, stats helpers, determinism stages, CLI writers) to wrappers that
open a span around the original, and ``restore`` puts the originals back.
Nothing under ``src/`` changes.  ``calibrate`` measures per-call unit
costs by calling the public functions directly.

Imports only the standard library; flashlab modules are passed in.
"""

from __future__ import annotations

import math
import os
import random
import statistics
from collections import Counter
from time import perf_counter_ns

from workloads import TEST_NAMES

SPAN_COLUMNS = ("id", "parent", "op", "name", "start_ns", "end_ns")

_TEST_FUNCTIONS = {
    "test_qf": "qf_agreement",
    "test_no_signalling": "no_signalling",
    "test_locality": "locality",
    "test_effective_locality": "effective_locality",
    "test_effective_causality": "effective_causality",
}

# Counters that must repeat bit for bit between passes on the same input.
INVARIANT_COUNTERS = (
    "models.runs",
    "models.conclusive",
    "models.flashes",
    "models.patterns",
    "randomness.uniforms",
    "cli.csv_bytes",
    "determinism.witness_samples",
    "stats.chi2_calls",
) + tuple(f"classify.runs.{t}" for t in TEST_NAMES)


class Tracer:
    """In-memory spans, each [id, parent, op, name, start_ns, end_ns], and
    exact counters.  Spans of one CLI call share its operation id."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.patterns: set = set()
        self._stack = [0]

    def call(self, name: str, fn, *args, **kwargs):
        span = [len(self.spans) + 1, self._stack[-1], self.op, name, perf_counter_ns(), 0]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def begin_op(self) -> None:
        """Start a new operation (one CLI call): new id, fresh pattern set."""
        self.counts["models.patterns"] += len(self.patterns)
        self.patterns = set()
        self.op += 1

    def end_pass(self) -> None:
        self.counts["models.patterns"] += len(self.patterns)
        self.patterns = set()


def instrument(tracer: Tracer, cli, classify, models, determinism):
    """Rebind flashlab attributes to traced wrappers; returns the undo."""
    saved = []
    counts = tracer.counts

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    patch(cli, "RunConfig", tracer.wrap("cli.config", cli.RunConfig))
    patch(cli, "_write_json", tracer.wrap("cli.json_write", cli._write_json))
    write_csv = cli.write_flash_csv

    def traced_csv(path, runs):
        rows = tracer.call("cli.csv_write", write_csv, path, runs)
        counts["cli.csv_bytes"] += os.path.getsize(path)
        return rows

    patch(cli, "write_flash_csv", traced_csv)

    for fn_name, test in _TEST_FUNCTIONS.items():
        patch(classify, fn_name, tracer.wrap(f"classify.test.{test}", getattr(classify, fn_name)))
    patch(classify, "collect_samples", tracer.wrap("classify.collect", classify.collect_samples))
    patch(classify, "paired_flip_fraction",
          tracer.wrap("classify.flip_probe", classify.paired_flip_fraction))
    patch(classify, "chi2_gof", tracer.wrap("stats.chi2", classify.chi2_gof))
    patch(classify, "chi2_homogeneity", tracer.wrap("stats.chi2", classify.chi2_homogeneity))

    inconclusive = models.InconclusiveRunError

    def traced_run(name, fn, pattern_key, *args, **kwargs):
        counts["models.runs"] += 1
        tracer.patterns.add(pattern_key)
        try:
            run = tracer.call(name, fn, *args, **kwargs)
        except inconclusive as exc:
            counts["models.flashes"] += len(exc.flashes)
            raise
        counts["models.conclusive"] += 1
        counts["models.flashes"] += len(run.flashes)
        return run

    def runner_for(model_id, fn):
        name = f"models.run.{model_id.value}"

        def runner(settings, frame, seed, *args, **kwargs):
            return traced_run(name, fn, seed, settings, frame, seed, *args, **kwargs)

        return runner

    patch(models, "_RUNNERS", {m: runner_for(m, fn) for m, fn in models._RUNNERS.items()})

    class CountingGeneratorSource(models.GeneratorSource):
        __slots__ = ()

        def uniform(self, label=""):
            counts["randomness.uniforms"] += 1
            return super().uniform(label)

    class CountingBitSource(determinism.BitSource):
        __slots__ = ()

        def uniform(self, label=""):
            counts["randomness.uniforms"] += 1
            return super().uniform(label)

    patch(models, "GeneratorSource", CountingGeneratorSource)
    patch(determinism, "BitSource", CountingBitSource)

    for attr, name in (
        ("enumerate_strategies", "determinism.enumerate"),
        ("chsh_of", "determinism.chsh"),
        ("epr_filter", "determinism.epr_filter"),
        ("wigner_check", "determinism.wigner"),
        ("past_influence_probe", "determinism.witness"),
    ):
        patch(determinism, attr, tracer.wrap(name, getattr(determinism, attr)))
    janus = determinism.janus_run

    def traced_janus(j, settings, bits, *args, **kwargs):
        return traced_run("determinism.janus_run", janus, bits.tobytes(), j, settings, bits,
                          *args, **kwargs)

    patch(determinism, "janus_run", traced_janus)
    draw_bits = determinism.random_bits

    def counted_bits(rng, n_bits):
        counts["determinism.witness_samples"] += 1
        return draw_bits(rng, n_bits)

    patch(determinism, "random_bits", counted_bits)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def layer_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-pass layer times (s) and span-derived counts from one pass's spans."""
    child_ns: Counter = Counter()
    run_child_ns: Counter = Counter()
    test_of: dict[int, str] = {}
    times: Counter = Counter()
    counts: Counter = Counter()
    for s in spans:
        sid, parent, _, name, start, end = s
        dur = end - start
        child_ns[parent] += dur
        if name.startswith("models.run."):
            run_child_ns[parent] += dur
        test_of[sid] = name[len("classify.test."):] if name.startswith("classify.test.") \
            else test_of.get(parent, "")
        if name.startswith("models.run.") and test_of[sid]:
            counts[f"classify.runs.{test_of[sid]}"] += 1
        times[name] += dur
        if name == "stats.chi2":
            counts["stats.chi2_calls"] += 1
    ops = [s for s in spans if s[3] == "op"]
    op_ns = sum(s[5] - s[4] for s in ops)

    def self_outside_runs(name):
        return sum(
            s[5] - s[4] - run_child_ns[s[0]] for s in spans if s[3] == name
        )

    out = {f"classify.test_s.{t}": times[f"classify.test.{t}"] / 1e9 for t in TEST_NAMES}
    out.update({
        "classify.collect_self_s": self_outside_runs("classify.collect") / 1e9,
        "stats.chi2_s": times["stats.chi2"] / 1e9,
        "determinism.enumerate_s": times["determinism.enumerate"] / 1e9,
        "determinism.chsh_s": times["determinism.chsh"] / 1e9,
        "determinism.epr_wigner_s":
            (times["determinism.epr_filter"] + times["determinism.wigner"]) / 1e9,
        "determinism.witness_s": times["determinism.witness"] / 1e9,
        "cli.config_s": times["cli.config"] / 1e9,
        "cli.csv_write_s": self_outside_runs("cli.csv_write") / 1e9,
        "cli.json_write_s": times["cli.json_write"] / 1e9,
        "trace.coverage": sum(child_ns[s[0]] for s in ops) / op_ns if op_ns else math.nan,
    })
    return out, dict(counts)


def _per_call_ns(fn, calls: int) -> float:
    t0 = perf_counter_ns()
    fn()
    return (perf_counter_ns() - t0) / calls


def calibrate(seed: int, randomness, models, minkowski, determinism, repeats: int = 3) -> dict:
    """Unit costs of single calls, measured by calling each public function
    directly on inputs drawn from the workload seed; median of ``repeats``."""
    import numpy as np

    rng = random.Random(seed)
    seeds = [randomness.mix_seed(seed, i) for i in range(2000)]
    coords = [(rng.random(), 10.0 + rng.random()) for _ in range(5000)]
    gen = np.random.Generator(np.random.PCG64(seed))
    bit_strings = [randomness.random_bits(gen, determinism.DEFAULT_BIT_BUDGET) for _ in range(200)]
    settings = models.SettingPair(0.0, math.pi / 4)
    frame = minkowski.Frame(0.0)
    janus = determinism.JanusRealization(minkowski.Frame(0.0))
    mix_seed, source_cls = randomness.mix_seed, randomness.GeneratorSource
    Flash, Event, boost_time = models.Flash, minkowski.Event, minkowski.boost_time

    def mix_loop():
        for i in range(20000):
            mix_seed(seed, i)

    def init_loop():
        for s in seeds:
            source_cls(s)

    sources = [source_cls(s) for s in seeds[:500]]

    def uniform_loop():
        for src in sources:
            u = src.uniform
            for _ in range(32):
                u("x")

    def bitsource_loop():
        for bits in bit_strings:
            determinism.BitSource(bits)

    def flash_loop():
        for i, (t, x) in enumerate(coords):
            Flash(Event(t, x), "A", 1, i)

    def boost_loop():
        for t, x in coords * 10:
            boost_time(t, x, 1.0)

    def janus_loop():
        for bits in bit_strings:
            try:
                determinism.janus_run(janus, (0.0, math.pi / 2), bits, record_trace=False)
            except models.InconclusiveRunError:
                pass

    samples: dict[str, list[float]] = {}

    def record(name, value):
        samples.setdefault(name, []).append(value)

    for _ in range(repeats):
        record("randomness.mix_seed_us", _per_call_ns(mix_loop, 20000) / 1e3)
        record("randomness.source_init_us", _per_call_ns(init_loop, len(seeds)) / 1e3)
        record("randomness.uniform_us", _per_call_ns(uniform_loop, 32 * len(sources)) / 1e3)
        record("randomness.bitsource_init_us",
               _per_call_ns(bitsource_loop, len(bit_strings)) / 1e3)
        record("models.flash_build_us", _per_call_ns(flash_loop, len(coords)) / 1e3)
        record("minkowski.boost_time_ns", _per_call_ns(boost_loop, 10 * len(coords)))
        record("determinism.janus_run_us", _per_call_ns(janus_loop, len(bit_strings)) / 1e3)
        for model_id, runner in models._RUNNERS.items():
            run_us, self_us = _runner_costs(models, runner, seeds[:1000], settings, frame)
            record(f"models.run_us.{model_id.value}", run_us)
            record(f"models.run_self_us.{model_id.value}", self_us)
    return {name: statistics.median(values) for name, values in samples.items()}


def _runner_costs(models, runner, seeds, settings, frame) -> tuple[float, float]:
    """(run time, run time outside its randomness children), in us per run.

    The first is timed on the untouched runner; the second on runs whose
    GeneratorSource is swapped for one that times its construction and
    every uniform draw, which are subtracted from the run's time.
    """
    inconclusive = models.InconclusiveRunError

    def plain():
        for s in seeds:
            try:
                runner(settings, frame, s, None, record_trace=False)
            except inconclusive:
                pass

    run_us = _per_call_ns(plain, len(seeds)) / 1e3
    child = [0]
    base = models.GeneratorSource

    class TimedSource(base):
        __slots__ = ()

        def __init__(self, seed):
            t0 = perf_counter_ns()
            super().__init__(seed)
            child[0] += perf_counter_ns() - t0

        def uniform(self, label=""):
            t0 = perf_counter_ns()
            u = super().uniform(label)
            child[0] += perf_counter_ns() - t0
            return u

    models.GeneratorSource = TimedSource
    try:
        total = 0
        for s in seeds:
            t0 = perf_counter_ns()
            try:
                runner(settings, frame, s, None, record_trace=False)
            except inconclusive:
                pass
            total += perf_counter_ns() - t0
    finally:
        models.GeneratorSource = base
    return run_us, (total - child[0]) / len(seeds) / 1e3
