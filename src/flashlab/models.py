"""Stochastic outcome models for the two-region EPR experiment.

Three models run behind one seeded-runner interface:

``rgrwf``
    The relativistic flash-collapse process.  Flashes form a Poisson
    pattern in each region; channels are drawn in the *requested frame's*
    temporal order, the first overall from the Born marginal, each later
    one from the state collapsed by everything drawn before it.

``preferred_frame``
    Same flash pattern and same quantum conditioning, but the channel
    decisions are always made in the lab frame's (rapidity 0) temporal
    order, whatever frame is requested.  The flash list is still reported
    in the requested frame's order.  The influence direction is therefore
    fixed once and for all instead of tracking the frame.

``local_hv``
    A local hidden-variable contrast model: both channels are computed
    from the shared per-run randomness and the local setting only, via a
    built-in anticorrelated strategy mixture.  No cross-region
    conditioning of any kind.

Every run is a pure function of (settings, frame, seed, params).  All
randomness is consumed as uniforms in a documented order (region A count,
times, positions; region B likewise; then channel decisions in processing
order), which is what makes seed-paired counterfactual comparisons and
bit-string realizations of the same law possible.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .minkowski import Event, Frame, Region, regions_spacelike
from .quantum import BASIS, Outcome, PureState, SettingPair, singlet
from .randomness import GeneratorSource, PCG64Streams, mix_seeds

DEFAULT_FLASH_RATE = 5.0
DEFAULT_REGION_A = Region("A", 0.0, 1.0, -11.0, -10.0)
DEFAULT_REGION_B = Region("B", 0.0, 1.0, 10.0, 11.0)

# Largest expected flash count per region.  Above it exp(-mean) is no
# longer a normal double and the Poisson inversion loses its mass.
MAX_FLASH_MEAN = 708.0

# Joint outcome cells (alpha, beta), in the order every count vector uses:
# the order of the state's basis.
OUTCOME_CELLS = BASIS


class ModelId(str, Enum):
    RGRWF = "rgrwf"
    PREFERRED_FRAME = "preferred_frame"
    LOCAL_HV = "local_hv"


class InconclusiveRunError(RuntimeError):
    """A region produced zero flashes, so the run defines no outcome.

    Carries the flashes that were drawn (with channels, where assigned)
    so callers can account for the run instead of silently resampling.
    """

    def __init__(self, empty_labels: tuple[str, ...], flashes: tuple["Flash", ...]):
        self.empty_labels = empty_labels
        self.flashes = flashes
        super().__init__(
            f"inconclusive run: no flash in region(s) {', '.join(empty_labels)}"
        )


@dataclass(frozen=True)
class Flash:
    """One flash: a space-time event tagged with region and channel."""

    event: Event
    region: str
    channel: int
    index: int  # ordinal within its region, lab-time order, 0-based


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration shared by all models."""

    state: PureState = field(default_factory=singlet)
    flash_rate: float = DEFAULT_FLASH_RATE
    epsilon: float = 0.0
    regions: tuple[Region, Region] = (DEFAULT_REGION_A, DEFAULT_REGION_B)

    def __post_init__(self):
        if not 0.0 < self.flash_rate < math.inf:
            raise ValueError(f"flash_rate must be positive and finite, got {self.flash_rate}")
        if not 0.0 <= self.epsilon <= 0.1:
            raise ValueError(f"epsilon must lie in [0, 0.1], got {self.epsilon}")
        ra, rb = self.regions
        if (ra.label, rb.label) != ("A", "B"):
            raise ValueError("regions must be given as (A-region, B-region)")
        if not regions_spacelike(ra, rb):
            raise ValueError("regions must be spacelike separated")
        for region in self.regions:
            mean = self.flash_rate * (region.t_max - region.t_min)
            if mean > MAX_FLASH_MEAN:
                raise ValueError(
                    f"flash_rate x time span of region {region.label} is {mean:g}; "
                    f"the Poisson sampler needs at most {MAX_FLASH_MEAN:g}"
                )


# The parameters a call without ``params`` runs under, built and checked once.
_DEFAULT_PARAMS = ModelParams()


@dataclass(frozen=True)
class ExperimentRun:
    """Record of one run: flashes in frame-time order, outcome, state history."""

    settings: SettingPair
    frame: Frame
    seed: int | None
    flashes: tuple[Flash, ...]
    outcome: Outcome
    state_trace: tuple[PureState, ...]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Empirical outcome frequencies over the conclusive runs."""

    counts: dict[tuple[int, int], int]
    n_total: int
    n_inconclusive: int

    @property
    def n_conclusive(self) -> int:
        return self.n_total - self.n_inconclusive

    @property
    def frequencies(self) -> dict[tuple[int, int], float]:
        n = self.n_conclusive
        return {k: v / n for k, v in self.counts.items()}

    def correlator(self) -> float:
        n = self.n_conclusive
        return sum(a * b * c for (a, b), c in self.counts.items()) / n


def _poisson_inverse(u: float, mean: float) -> int:
    """Poisson sample by CDF inversion of a single uniform: the number of
    partial sums in ``_poisson_cdf_table(mean)`` that are <= u."""
    return bisect.bisect_right(_poisson_cdf_table(mean), u)


@functools.lru_cache(maxsize=64)
def _poisson_cdf_table(mean: float) -> tuple[float, ...]:
    """The Poisson partial sums P(N <= k), k = 0, 1, ..., that a uniform is
    compared against, summed term by term in this order.

    The table ends where the recurrence stops: once the term underflows to
    zero, where the partial sum can no longer grow (rounding can leave it
    below 1 - 1e-15 for ever), or once the term is negligible and the sum
    is within 1e-15 of 1.  A count never exceeds the table's length.
    """
    k = 0
    p = math.exp(-mean)
    cdf = p
    table = [cdf]
    while True:
        k += 1
        p *= mean / k
        cdf += p
        if p == 0.0 or (p < 1e-18 and cdf >= 1.0 - 1e-15):
            return tuple(table)
        table.append(cdf)


def _lhv_channel(theta: float, lam: float, mechanism: int) -> int:
    # built-in anticorrelated strategy tables: mechanism 0 responds to the
    # angle itself, mechanism 1 to the doubled angle; B is always -A
    if mechanism == 0:
        return 1 if math.cos(theta - lam) >= 0.0 else -1
    return 1 if math.cos(2.0 * (theta - lam)) >= 0.0 else -1


def lhv_correlator(a: float, b: float) -> float:
    """Analytic E(a, b) of the built-in local model (equal-weight mixture
    of the two sign strategies); used as an oracle in tests."""

    def sawtooth(delta: float, period: float) -> float:
        # autocorrelation of a +-1 square wave of the given period
        d = abs(delta) % period
        d = min(d, period - d)
        return 1.0 - 4.0 * d / period

    return -0.5 * (sawtooth(a - b, 2.0 * math.pi) + sawtooth(a - b, math.pi))


def _simulate_run(
    source,
    settings: SettingPair,
    params: ModelParams,
    processing_rapidity: float,
    report_frame: Frame,
    seed: int | None,
    local_channels: bool,
    record_trace: bool,
) -> ExperimentRun:
    """Shared engine: Poisson flash pattern, then channel decisions.

    The pattern draws form a settings-independent prefix of the uniform
    stream; channel decisions consume uniforms strictly in the processing
    order (frame-time ascending, ties broken A < B then by index).
    """
    # each draw is labelled by a tuple of parts, which only a BitSource
    # that runs out joins into a name such as "channel_A4"
    uniform = source.uniform
    rate = params.flash_rate

    # pattern: (region_rank, index, t_lab, x_lab), regions in A, B order
    pattern: list[tuple[int, int, float, float]] = []
    counts = [0, 0]
    for rank, region in enumerate(params.regions):
        label = region.label
        t_span = region.t_max - region.t_min
        x_span = region.x_max - region.x_min
        n = _poisson_inverse(uniform(("count_", label)), rate * t_span)
        counts[rank] = n
        time_label, x_label = ("time_", label), ("x_", label)
        times = sorted(region.t_min + t_span * uniform(time_label) for _ in range(n))
        for idx, t in enumerate(times):
            x = region.x_min + x_span * uniform(x_label)
            pattern.append((rank, idx, t, x))

    ch = math.cosh(processing_rapidity)
    sh = math.sinh(processing_rapidity)
    order = sorted(pattern, key=lambda p: (p[2] * ch - p[3] * sh, p[0], p[1]))

    angles = (settings.a.angle, settings.b.angle)
    channels: dict[tuple[int, int], int] = {}
    trace: list[PureState] = []

    if local_channels:
        lam = 2.0 * math.pi * uniform("hv_lambda")
        mech = 0 if uniform("hv_mechanism") < 0.5 else 1
        per_region = (
            _lhv_channel(angles[0], lam, mech),
            -_lhv_channel(angles[1], lam, mech),
        )
        for rank, idx, _, _ in order:
            channels[(rank, idx)] = per_region[rank]
    else:
        # scalar 2x2 amplitude matrix m[a_bit][b_bit]; kept as four complex
        # scalars because this loop dominates the cost of large ensembles
        eps = params.epsilon
        amps = params.state.amplitudes
        m00, m01, m10, m11 = complex(amps[0]), complex(amps[1]), complex(amps[2]), complex(amps[3])
        for rank, idx, _, _ in order:
            half = 0.5 * angles[rank]
            c, s = math.cos(half), math.sin(half)
            if rank == 0:  # side A: contract rows
                f0 = c * m00 + s * m10
                f1 = c * m01 + s * m11
            else:  # side B: contract columns
                f0 = m00 * c + m01 * s
                f1 = m10 * c + m11 * s
            p_plus = (f0.real * f0.real + f0.imag * f0.imag) + (
                f1.real * f1.real + f1.imag * f1.imag
            )
            if uniform(("channel_", "AB"[rank], idx)) < p_plus:
                value = 1
                v0, v1 = c, s
                g0, g1 = f0, f1
            else:
                value = -1
                v0, v1 = -s, c
                if rank == 0:
                    g0 = v0 * m00 + v1 * m10
                    g1 = v0 * m01 + v1 * m11
                else:
                    g0 = m00 * v0 + m01 * v1
                    g1 = m10 * v0 + m11 * v1
            channels[(rank, idx)] = value
            if rank == 0:
                p00, p01, p10, p11 = v0 * g0, v0 * g1, v1 * g0, v1 * g1
            else:
                p00, p01, p10, p11 = g0 * v0, g0 * v1, g1 * v0, g1 * v1
            if eps:
                p00 += eps * (m00 - p00)
                p01 += eps * (m01 - p01)
                p10 += eps * (m10 - p10)
                p11 += eps * (m11 - p11)
            norm = math.sqrt(
                p00.real * p00.real + p00.imag * p00.imag
                + p01.real * p01.real + p01.imag * p01.imag
                + p10.real * p10.real + p10.imag * p10.imag
                + p11.real * p11.real + p11.imag * p11.imag
            )
            m00, m01, m10, m11 = p00 / norm, p01 / norm, p10 / norm, p11 / norm
            if record_trace:
                trace.append(PureState(np.array([m00, m01, m10, m11])))

    rep_ch = math.cosh(report_frame.rapidity)
    rep_sh = math.sinh(report_frame.rapidity)
    report = sorted(pattern, key=lambda p: (p[2] * rep_ch - p[3] * rep_sh, p[0], p[1]))
    labels = (params.regions[0].label, params.regions[1].label)
    flashes = tuple(
        Flash(Event(t, x), labels[rank], channels[(rank, idx)], idx)
        for rank, idx, t, x in report
    )

    if counts[0] == 0 or counts[1] == 0:
        empty = tuple(labels[r] for r in (0, 1) if counts[r] == 0)
        raise InconclusiveRunError(empty, flashes)

    first = {}
    for rank, idx, _, _ in order:
        if rank not in first:
            first[rank] = channels[(rank, idx)]
    outcome = Outcome(alpha=first[0], beta=first[1])
    return ExperimentRun(settings, report_frame, seed, flashes, outcome, tuple(trace))


def _coerce_pair(settings) -> SettingPair:
    if isinstance(settings, SettingPair):
        return settings
    a, b = settings
    return SettingPair(a, b)


class _Model(NamedTuple):
    """What tells the models apart; both the runners and the kernel read it."""

    frame_ordered: bool  # decisions follow the requested frame, else the lab frame
    local_channels: bool  # channels from shared randomness and the local setting only


_MODELS: dict[ModelId, _Model] = {
    ModelId.RGRWF: _Model(frame_ordered=True, local_channels=False),
    ModelId.PREFERRED_FRAME: _Model(frame_ordered=False, local_channels=False),
    ModelId.LOCAL_HV: _Model(frame_ordered=True, local_channels=True),
}


def _run_model(model: ModelId, settings, frame, seed, params, record_trace) -> ExperimentRun:
    spec = _MODELS[model]
    return _simulate_run(
        GeneratorSource(seed),
        _coerce_pair(settings),
        params if params is not None else _DEFAULT_PARAMS,
        frame.rapidity if spec.frame_ordered else 0.0,
        frame,
        seed,
        local_channels=spec.local_channels,
        record_trace=record_trace,
    )


def run_rgrwf(
    settings,
    frame: Frame,
    seed: int,
    params: ModelParams | None = None,
    record_trace: bool = True,
) -> ExperimentRun:
    """One flash-collapse run, conditioning in the requested frame's order.

    The first flash overall draws its channel from the Born marginal of
    the initial state; every later flash draws from the marginal of the
    state collapsed by all earlier decisions, so a region's later flashes
    repeat its first channel (at epsilon = 0) and the other region's first
    flash follows the quantum conditional.  Identical arguments give a
    bit-identical run.
    """
    return _run_model(ModelId.RGRWF, settings, frame, seed, params, record_trace)


def run_preferred_frame(
    settings,
    frame: Frame,
    seed: int,
    params: ModelParams | None = None,
    record_trace: bool = True,
) -> ExperimentRun:
    """Flash-collapse run whose decisions always follow lab-frame order.

    The requested frame only affects how the flash list is reported.  The
    outcome statistics match the quantum formalism exactly, but the
    direction of conditioning is pinned to the rapidity-0 frame.
    """
    return _run_model(ModelId.PREFERRED_FRAME, settings, frame, seed, params, record_trace)


def run_local_hv(
    settings,
    frame: Frame,
    seed: int,
    params: ModelParams | None = None,
    record_trace: bool = True,
) -> ExperimentRun:
    """Local hidden-variable run: channels from shared randomness only.

    The hidden variables are a phase lambda and a mechanism bit drawn from
    the run's seed; side A outputs the strategy table at its own setting
    and side B outputs the negation at its own setting, so equal settings
    are perfectly anticorrelated and nothing ever crosses between regions.
    """
    return _run_model(ModelId.LOCAL_HV, settings, frame, seed, params, record_trace)


# The scalar runner of each model; perfbench/tracing.py times them through it.
_RUNNERS: dict[ModelId, Callable] = {
    ModelId.RGRWF: run_rgrwf,
    ModelId.PREFERRED_FRAME: run_preferred_frame,
    ModelId.LOCAL_HV: run_local_hv,
}


def outcome_distribution(
    model,
    settings,
    frame: Frame,
    params: ModelParams | None = None,
    n: int = 10_000,
    master_seed: int = 0,
) -> OutcomeDistribution:
    """Empirical joint outcome frequencies over n seeded runs.

    Per-run seeds are mix_seed(master_seed, i) for i in range(n), so the
    result is reproducible and independent of evaluation order.
    Inconclusive (zero-flash) runs are excluded from the frequencies and
    counted separately.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts, inconclusive = ensemble(model, [settings], frame, params, n, master_seed)
    if inconclusive == n:
        raise RuntimeError("all runs were inconclusive; no outcome distribution")
    return OutcomeDistribution(dict(zip(OUTCOME_CELLS, counts.tolist())), n, inconclusive)


class EnsembleRequest(NamedTuple):
    """n seeded runs, each run once per settings arm: run i uses seed
    mix_seed(master_seed, i) under every arm, in ``frame``."""

    arms: tuple
    frame: Frame
    n: int
    master_seed: int


def ensemble(
    model,
    arms,
    frame: Frame,
    params: ModelParams | None = None,
    n: int = 10_000,
    master_seed: int = 0,
) -> tuple[np.ndarray, int]:
    """Outcome counts of n seeded runs, each run once per settings arm.

    Run i uses seed mix_seed(master_seed, i) under every arm, so arms
    differ only in their settings.  Returns ``(joint, n_inconclusive)``:
    ``joint[c_1, ..., c_k]`` counts the runs whose outcome under arm j is
    ``OUTCOME_CELLS[c_j]``; a run inconclusive under any arm is counted
    once in ``n_inconclusive`` instead.  The one-request case of
    ``ensembles``.
    """
    (result,) = ensembles(model, [EnsembleRequest(arms, frame, n, master_seed)], params)
    return result


def ensembles(model, requests, params: ModelParams | None = None) -> list[tuple[np.ndarray, int]]:
    """``ensemble``'s ``(joint, n_inconclusive)`` for each EnsembleRequest,
    in order.

    Built-in models go through a vectorized kernel that gives each run
    the outcome ``_simulate_run`` gives it.  The runs of all requests with
    the same number of arms are stacked, one row per run, and swept in
    blocks of rows so that memory does not grow with n; every row carries
    its own seed, settings and processing rapidity, so a request's counts
    do not depend on the requests beside it.  ``model`` is a ModelId or
    its value.
    """
    model = ModelId(model)
    params = params if params is not None else _DEFAULT_PARAMS
    requests = [
        EnsembleRequest(tuple(_coerce_pair(s) for s in r.arms), r.frame, r.n, r.master_seed)
        for r in requests
    ]
    if any(r.n < 0 for r in requests):
        raise ValueError("n must be >= 0")
    results = [None] * len(requests)
    for arms in dict.fromkeys(len(r.arms) for r in requests):
        index = [i for i, r in enumerate(requests) if len(r.arms) == arms]
        group = [requests[i] for i in index]
        tally = _Tally(group)
        for _, req, rows, seeds in _blocks(model, group):
            tally.add(req, _kernel_block(model, rows, params, seeds))
        for i, result in zip(index, tally.results()):
            results[i] = result
    return results


def _blocks(model: ModelId, requests):
    """The runs of requests with one number of arms, stacked in request
    order and cut into blocks of _KERNEL_BLOCK rows: yields each block's
    first row, each row's request index, the rows' _Stack and seeds."""
    stack = _stack(model, requests)
    ends = np.cumsum([r.n for r in requests])
    for start in range(0, int(ends[-1]), _KERNEL_BLOCK):
        stop = min(int(ends[-1]), start + _KERNEL_BLOCK)
        req, seeds = [], []
        r = int(np.searchsorted(ends, start, side="right"))
        # the runs of request r are rows ends[r] - n_r .. ends[r] - 1
        while r < len(requests) and int(ends[r]) - requests[r].n < stop:
            begin = int(ends[r]) - requests[r].n
            lo, hi = max(start, begin) - begin, min(stop, int(ends[r])) - begin
            req.append(np.full(hi - lo, r, dtype=np.intp))
            seeds.append(mix_seeds(requests[r].master_seed, lo, hi))
            r += 1
        req = np.concatenate(req)
        yield start, req, stack.take(req), np.concatenate(seeds)


class _Tally:
    """The (joint, n_inconclusive) of each request of a sweep, over the
    blocks added so far: ``add`` counts a block's outcome cells, (arms,
    runs), with ``req`` holding each run's request index."""

    def __init__(self, requests):
        self.shape = (len(OUTCOME_CELLS),) * len(requests[0].arms)
        self.width = math.prod(self.shape) + 1  # per request: inconclusive, then each joint cell
        self.counts = np.zeros(len(requests) * self.width, dtype=np.int64)

    def add(self, req: np.ndarray, cells: np.ndarray) -> None:
        flat = np.ravel_multi_index(tuple(np.maximum(cells, 0)), self.shape)
        column = np.where(cells[0] >= 0, flat + 1, 0)
        self.counts += np.bincount(req * self.width + column, minlength=self.counts.size)

    def results(self) -> list[tuple[np.ndarray, int]]:
        return [(row[1:].reshape(self.shape), int(row[0]))
                for row in self.counts.reshape(-1, self.width)]


# --- ensemble kernel ---------------------------------------------------------
#
# The kernel replays _simulate_run for a block of seeds at once.  Each
# run's uniforms come from its own PCG64Streams cursor, in the segments
# _simulate_run draws them in:
#
#   count of region A (nA), then nA A times, unsorted, then nA A positions,
#   in time order;  count of region B (nB), nB times, nB positions;  then
#   the channel draws in processing order (or lambda and the mechanism for
#   local_hv)
#
# A segment the run's outcome does not read is skipped: the cursor jumps
# over it and the next segment gets the uniforms the scalar run gets.  For
# outcome counts, positions are skipped wherever the processing frame's
# sinh is 0, where a flash's frame time t * cosh - x * 0.0 does not depend
# on x, and local_hv, whose channels read no flash, skips both patterns.
# The flash path reads every segment.
#
# A block's rows may belong to different requests: each row carries its
# own seed, settings and processing rapidity (a _Stack taken per row).
# _Patterns holds the flash patterns, and _decide is the one decision
# stage over them.  For outcome counts (_kernel_block) it stops a run's
# collapse once both regions have drawn their first channel, since later
# draws cannot change the outcome; for flashes (_flash_block, a layout of
# its decisions) it collapses every flash.  The collapse uses the same
# real operations in the same order as the scalar complex arithmetic, so
# every probability compared against a uniform is the same double.

# Rows (runs) per kernel block, on the counts and the flash path.  Peak
# memory grows with it: a benchmark-size classify battery (7,750 runs per
# model) adds about 5.5 MB to the peak RSS over import at 2,048 rows, and
# about twice that at 4,096; a benchmark-size run --csv (5,000 runs, about
# 50,000 flashes) peaks about 7 MB higher at 2,048 rows than at 512.
_KERNEL_BLOCK = 2048


class _Patterns:
    """The flash patterns of a block of runs, one row per run, drawn from
    the runs' seeds.

    ``n_a`` and ``n_b`` hold the flash counts.  ``t`` and ``x`` hold the
    lab coordinates of each run's flashes in ``shape[1]`` columns: A
    0..nA-1, padding, then from column ``width_a`` B 0..nB-1, padding.
    Times are sorted within a region, so the column is the index, and are
    inf on padding, so padding sorts last in every frame.  Without
    ``times`` both patterns are skipped and ``t`` and ``x`` are None; a
    run whose ``positions`` entry is False skips its positions, and its
    ``x`` holds the region's x_min.
    """

    def __init__(self, params: ModelParams, seeds: np.ndarray, times=True, positions=True):
        self.params = params
        self._streams = streams = PCG64Streams(seeds)
        one = np.ones(seeds.size, dtype=np.intp)
        counts, ts, xs = [], [], []
        for region in params.regions:
            table = _poisson_cdf_table(params.flash_rate * (region.t_max - region.t_min))
            n = np.searchsorted(table, streams.draw(one)[:, 0], side="right")
            counts.append(n)
            if not times:
                streams.skip(2 * n)
                continue
            t = _scaled(streams.draw(n), region.t_min, region.t_max)
            t[np.arange(t.shape[1]) >= n[:, None]] = np.inf
            t.sort(axis=1)
            read = np.where(positions, n, 0)
            streams.skip(n - read)
            x = np.zeros_like(t)
            drawn = streams.draw(read)
            x[:, : drawn.shape[1]] = drawn
            ts.append(t)
            xs.append(_scaled(x, region.x_min, region.x_max))
        self.n_a, self.n_b = counts
        self.conclusive = (self.n_a > 0) & (self.n_b > 0)
        self.width_a = int(self.n_a.max())
        self.shape = (seeds.size, self.width_a + int(self.n_b.max()))
        self.t, self.x = (np.hstack(parts) if times else None for parts in (ts, xs))

    def hidden_variables(self) -> tuple[np.ndarray, np.ndarray]:
        """local_hv's (lambda, mechanism bit) of each run."""
        lam, mech = self._streams.draw(np.full(self.conclusive.size, 2)).T
        return 2.0 * math.pi * lam, mech >= 0.5

    def processing_order(self, keys):
        """Each run's flash columns in the order their channels are drawn
        (the order of ``keys``, the flash times in the processing frame),
        which of those are A flashes, and the positions of each run's
        first A and first B flash in that order."""
        order = _time_order(keys)
        in_a = order < self.width_a
        return order, in_a, np.argmax(in_a, axis=1), np.argmax(~in_a, axis=1)

    def decisions(self, arms, side_a, steps):
        """Per arm, the channel decisions (True for +1) of each run's first
        steps[run] flashes in processing order, shape (runs, max steps).
        An arm is the cos and sin of each run's half setting angles, each
        of shape (2 sides, runs); ``side_a`` marks the A flashes in that
        order."""
        draws = self._streams.draw(steps)
        # runs sorted by steps, longest first, so that the runs still
        # collapsing at step k are a prefix of the rows
        by_steps = np.argsort(-steps, kind="stable")
        steps = steps[by_steps]
        width = int(steps[0])
        draws = draws[by_steps]
        live = [int(np.count_nonzero(steps > k)) for k in range(width)]
        side_a = side_a[by_steps, :width]
        for cos, sin in arms:
            plus = np.empty_like(draws, dtype=bool)
            plus[by_steps] = _collapse(
                self.params, cos[:, by_steps], sin[:, by_steps], side_a, draws, live
            )
            yield plus


def _scaled(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """low + (high - low) * u, computed in place with the same two
    operations."""
    u *= high - low
    u += low
    return u


def _frame_times(t: np.ndarray, x: np.ndarray, cosh, sinh) -> np.ndarray:
    """Frame time t cosh(chi) - x sinh(chi) of each flash, as boost_time
    computes it, from math.cosh and math.sinh of the rapidity (a scalar
    or a column per run); inf on padding, as cosh and sinh are finite."""
    keys = t * cosh
    keys -= x * sinh
    return keys


def _time_order(keys: np.ndarray) -> np.ndarray:
    # columns run A 0..nA-1, padding, B 0..nB-1, padding, and padding sorts
    # last; a stable sort on the frame time then breaks ties by region and
    # index, the (key, rank, idx) order of _simulate_run
    return np.argsort(keys, axis=1, kind="stable")


class _Stack(NamedTuple):
    """Per-request values of a sweep, with requests on the last axis, or
    runs once ``take`` has given each run its request's values.

    Every value comes from math on that request's scalars, as in
    _simulate_run: numpy's cos or cosh over an array may differ from
    math's in the last bit, and then a probability compared against a
    uniform is no longer the same double.
    """

    angle: np.ndarray  # settings angles, (arms, 2 sides, ...)
    cos: np.ndarray  # cos and sin of half the settings angles, (arms, 2 sides, ...)
    sin: np.ndarray
    cosh: np.ndarray  # cosh and sinh of the processing rapidity, (...)
    sinh: np.ndarray

    def take(self, req: np.ndarray) -> "_Stack":
        return _Stack(*(values[..., req] for values in self))


def _stack(model: ModelId, requests) -> _Stack:
    """The _Stack of requests with one number of arms; the decisions of
    preferred_frame follow rapidity 0 whatever the frame."""

    def per_side(f):
        return np.array(
            [[(f(p.a.angle), f(p.b.angle)) for p in r.arms] for r in requests], dtype=float
        ).transpose(1, 2, 0)

    frame_ordered = _MODELS[model].frame_ordered
    rapidity = [r.frame.rapidity if frame_ordered else 0.0 for r in requests]
    return _Stack(
        angle=per_side(float),
        cos=per_side(lambda theta: math.cos(0.5 * theta)),
        sin=per_side(lambda theta: math.sin(0.5 * theta)),
        cosh=np.array([math.cosh(chi) for chi in rapidity]),
        sinh=np.array([math.sinh(chi) for chi in rapidity]),
    )


def _kernel_block(model: ModelId, rows: _Stack, params: ModelParams, seeds) -> np.ndarray:
    """Outcome cell of each run under each arm, shape (arms, runs), as an
    index into OUTCOME_CELLS; -1 marks an inconclusive run.  ``rows``
    holds each run's settings and rapidity."""
    local = _MODELS[model].local_channels
    block = _Patterns(params, seeds, times=not local, positions=rows.sinh != 0)
    return _decide(block, model, rows)[0]


def _decide(block: _Patterns, model: ModelId, rows: _Stack, every_flash=False):
    """The decision stage of both paths.  Returns _kernel_block's cells
    and, if ``every_flash``, the channel (True for +1) in each flash
    column under the block's one arm; else None, and each run's collapse
    stops at its first channels."""
    conclusive = block.conclusive
    runs = np.flatnonzero(conclusive)
    cells = np.full((rows.angle.shape[0], conclusive.size), -1, dtype=np.intp)
    plus = np.zeros(block.shape, dtype=bool) if every_flash else None
    if runs.size == 0:
        return cells, plus

    if _MODELS[model].local_channels:
        lam, mech = (values[runs] for values in block.hidden_variables())
        for arm, (theta_a, theta_b) in enumerate(rows.angle[..., runs]):
            plus_a = _lhv_plus(theta_a, lam, mech)
            plus_b = ~_lhv_plus(theta_b, lam, mech)  # side B outputs the negation
            cells[arm, runs] = _cell(plus_a, plus_b)
        if every_flash:  # each flash has its region's channel
            plus[runs, : block.width_a] = plus_a[:, None]
            plus[runs, block.width_a :] = plus_b[:, None]
        return cells, plus

    order, in_a, first_a, first_b = block.processing_order(
        _frame_times(block.t, block.x, rows.cosh[:, None], rows.sinh[:, None])
    )
    steps = block.n_a + block.n_b if every_flash else np.maximum(first_a, first_b) + 1
    steps = np.where(conclusive, steps, 0)
    first_a, first_b = first_a[runs], first_b[runs]
    for arm, decided in enumerate(block.decisions(zip(rows.cos, rows.sin), in_a, steps)):
        cells[arm, runs] = _cell(decided[runs, first_a], decided[runs, first_b])
    if every_flash:
        np.put_along_axis(plus, order[:, : decided.shape[1]], decided, axis=1)
    return cells, plus


def _cell(plus_a: np.ndarray, plus_b: np.ndarray) -> np.ndarray:
    """Index into OUTCOME_CELLS of each run's outcome, from whether its
    alpha and its beta are +1."""
    return 2 * ~plus_a + ~plus_b


class FlashBlock(NamedTuple):
    """The flashes of a block of runs, one array entry per flash.  Runs
    come in seed order, a run's flashes in report-frame time order (ties
    A before B, then by index), as in ExperimentRun.flashes; an
    inconclusive run has none."""

    run_id: np.ndarray
    region: np.ndarray  # region label
    index: np.ndarray  # ordinal within its region, lab-time order
    t_lab: np.ndarray
    x_lab: np.ndarray
    t_frame: np.ndarray  # time in the report frame
    channel: np.ndarray  # +1 or -1
    cells: np.ndarray  # per run of the block: index into OUTCOME_CELLS, -1 if inconclusive


def _flash_block(
    model: ModelId, rows: _Stack, frame: Frame, params: ModelParams, seeds, first_id: int
) -> FlashBlock:
    """Every flash of each run, with its channel, and each run's outcome,
    laid out from the decision stage; ``rows`` has one settings arm."""
    block = _Patterns(params, seeds)
    steps = np.where(block.conclusive, block.n_a + block.n_b, 0)
    t, x = block.t, block.x
    (cells,), plus = _decide(block, model, rows, every_flash=True)
    t_frame = _frame_times(t, x, math.cosh(frame.rapidity), math.sinh(frame.rapidity))
    report = _time_order(t_frame)
    run = np.repeat(np.arange(seeds.size), steps)
    col = report[np.arange(report.shape[1]) < steps[:, None]]
    in_b = col >= block.width_a
    return FlashBlock(
        run_id=first_id + run,
        region=np.where(in_b, params.regions[1].label, params.regions[0].label),
        index=col - block.width_a * in_b,
        t_lab=t[run, col],
        x_lab=x[run, col],
        t_frame=t_frame[run, col],
        channel=np.where(plus[run, col], 1, -1),
        cells=cells,
    )


class FlashEnsemble:
    """The flashes of n seeded runs of one settings pair, computed a block
    of runs at a time as it is iterated.

    Iterating yields FlashBlocks.  Run i uses seed mix_seed(master_seed,
    i), and every run has the flashes, channels and outcome that
    ``_simulate_run`` gives it.  ``counts`` and ``inconclusive`` tally the
    outcomes of the runs of the blocks yielded so far.
    """

    def __init__(
        self,
        model,
        settings,
        frame: Frame,
        params: ModelParams | None = None,
        n: int = 10_000,
        master_seed: int = 0,
    ):
        if n < 0:
            raise ValueError("n must be >= 0")
        self.model = ModelId(model)
        self.pair = _coerce_pair(settings)
        self.frame = frame
        self.params = params if params is not None else _DEFAULT_PARAMS
        self.n = n
        self.master_seed = master_seed
        self.counts = dict.fromkeys(OUTCOME_CELLS, 0)
        self.inconclusive = 0

    def __iter__(self):
        requests = [EnsembleRequest((self.pair,), self.frame, self.n, self.master_seed)]
        tally = _Tally(requests)
        for start, req, rows, seeds in _blocks(self.model, requests):
            block = _flash_block(self.model, rows, self.frame, self.params, seeds, start)
            tally.add(req, block.cells[None])
            ((joint, self.inconclusive),) = tally.results()
            self.counts = dict(zip(OUTCOME_CELLS, joint.tolist()))
            yield block


def _lhv_plus(theta: np.ndarray, lam: np.ndarray, mech: np.ndarray) -> np.ndarray:
    """_lhv_channel(theta, lam, mech) == 1, over runs."""
    arg = np.where(mech, 2.0 * (theta - lam), theta - lam)
    value = np.cos(arg)
    # np.cos may differ from math.cos in the last bit; only a value that
    # close to zero could change sign, so redo those with math.cos
    for i in np.flatnonzero(np.abs(value) < 1e-9):
        value[i] = math.cos(arg[i])
    return value >= 0.0


def _collapse(params, cos, sin, side_a, draws, live) -> np.ndarray:
    """Channel decisions (True for +1) of the first len(live) processed
    flashes of each run; rows are sorted so step k touches rows [:live[k]].
    ``cos`` and ``sin`` hold each row's half setting angles, (2 sides, runs).

    The 2x2 amplitude matrix is held as m[i, j, re/im, run]: a side-A
    flash contracts rows (f_j = c m[0, j] + s m[1, j]), a side-B flash
    columns (f_i = m[i, 0] c + m[i, 1] s), and the collapsed matrix is
    v_i g_j on side A and g_i v_j on side B.
    """
    amps = np.asarray(params.state.amplitudes, dtype=complex).reshape(2, 2)
    m = np.empty((2, 2, 2, draws.shape[0]))
    m[:, :, 0] = amps.real[..., None]
    m[:, :, 1] = amps.imag[..., None]
    eps = params.epsilon
    plus = np.zeros(draws.shape, dtype=bool)
    for k, n_live in enumerate(live):
        mk = m[..., :n_live]
        is_a = side_a[:n_live, k]
        c = np.where(is_a, cos[0, :n_live], cos[1, :n_live])
        s = np.where(is_a, sin[0, :n_live], sin[1, :n_live])
        first = np.where(is_a, mk[0], mk[:, 0])
        second = np.where(is_a, mk[1], mk[:, 1])
        f = c * first + s * second
        sq = f * f
        p_plus = (sq[0, 0] + sq[0, 1]) + (sq[1, 0] + sq[1, 1])
        up = draws[:n_live, k] < p_plus
        plus[:n_live, k] = up
        v0 = np.where(up, c, -s)
        v1 = np.where(up, s, c)
        g = v0 * first + v1 * second
        outer = np.stack([v0 * g, v1 * g])  # v_i g_j
        p = np.where(is_a, outer, outer.swapaxes(0, 1))
        if eps:
            p += eps * (mk - p)
        sq = (p * p).reshape(8, n_live)
        total = sq[0]
        for term in sq[1:]:
            total = total + term
        mk[...] = p / np.sqrt(total)
    return plus


def write_flash_csv(path, blocks) -> int:
    """Dump flashes to CSV, one row per flash with columns run_id, region,
    t_lab, x_lab, t_frame, channel, index.  Coordinates are written as
    the repr of the double, and rows end in CRLF, as csv.writer ends them.

    ``blocks`` yields FlashBlocks, such as a FlashEnsemble does; the file
    is written in binary mode, a block at a time.  Returns the number of
    rows written.
    """
    rows = 0
    with open(path, "wb") as fh:
        fh.write(b"run_id,region,t_lab,x_lab,t_frame,channel,index\r\n")
        for block in blocks:
            if block.run_id.size:
                table = _row_table(block).ravel()
                fh.write(table[table != 0])
                rows += block.run_id.size
    return rows


def _row_table(block: FlashBlock) -> np.ndarray:
    """A block's CSV rows as a byte table, a row per flash, with NUL bytes
    to be dropped."""
    # imported here, so that only a command that writes the CSV loads it
    from .numtext import int_chars, repr_chars

    n = block.run_id.size
    fields = [int_chars(block.run_id), _label_chars(block.region), repr_chars(block.t_lab),
              repr_chars(block.x_lab), repr_chars(block.t_frame), int_chars(block.channel),
              int_chars(block.index)]
    comma = np.full((n, 1), ord(","), dtype=np.uint8)
    parts = [part for field in fields for part in (field, comma)]
    parts[-1] = np.full((n, 2), (ord("\r"), ord("\n")), dtype=np.uint8)
    return np.hstack(parts)


def _label_chars(labels: np.ndarray) -> np.ndarray:
    """The characters of each region label, NUL-padded, as numtext's
    functions give numbers'."""
    codes = labels.view(np.uint32).reshape(labels.size, -1)
    if codes.max() > 127:
        raise ValueError("region labels must be ASCII")
    return codes.astype(np.uint8)
