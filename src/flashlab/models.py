"""Stochastic outcome models for the two-region EPR experiment.

Three models run behind one seeded entry point, ``run_model(model,
settings, frame, seed)``:

``rgrwf``
    The relativistic flash-collapse process.  Flashes form a Poisson
    pattern in each region; channels are drawn in the *requested frame's*
    temporal order, the first overall from the Born marginal, each later
    one from the state collapsed by everything drawn before it.  So at
    epsilon = 0 a region's later flashes repeat its first channel, and the
    other region's first flash follows the quantum conditional; the
    counts kernel decides those two channels in that closed form, and
    replays through the collapse the few runs whose draws lie too close
    to a threshold for rounding to be ruled out (_closed_form).

``preferred_frame``
    Same flash pattern and same quantum conditioning, but the channel
    decisions are always made in the lab frame's (rapidity 0) temporal
    order, whatever frame is requested.  The flash list is still reported
    in the requested frame's order.  The outcome statistics match the
    quantum formalism exactly, but the influence direction is fixed once
    and for all instead of tracking the frame.

``local_hv``
    A local hidden-variable contrast model: both channels are computed
    from the shared per-run randomness and the local setting only, via a
    built-in anticorrelated strategy mixture.  The hidden variables are a
    phase lambda and a mechanism bit; side A outputs the strategy table at
    its own setting and side B the negation at its own, so equal settings
    are perfectly anticorrelated.  No cross-region conditioning of any
    kind.

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
from .quantum import BASIS, SIDES, Outcome, PureState, SettingPair, singlet
from .randomness import GeneratorSource, PCG64Streams, _mix_seed_rows

DEFAULT_FLASH_RATE = 5.0
DEFAULT_REGION_A = Region(0.0, 1.0, -11.0, -10.0)
DEFAULT_REGION_B = Region(0.0, 1.0, 10.0, 11.0)

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
    """Physical configuration shared by all models.

    ``regions`` holds region A, then region B: a region's role is its
    position, named by quantum.SIDES.

    ``epsilon`` softens each collapse toward the state before it.  The
    softening steps follow the processing frame's order, so at epsilon > 0
    the outcome law of rgrwf depends on the frame it runs in: at 0.1 and
    settings (0, pi/4) the correlator is -0.696524 in the lab frame and
    -0.699855 at rapidity 0.5.  At epsilon = 0 it is the Born law in every
    frame.
    """

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
        if not regions_spacelike(ra, rb):
            raise ValueError("regions must be spacelike separated")
        for side, region in zip(SIDES, self.regions):
            mean = self.flash_rate * (region.t_max - region.t_min)
            if mean > MAX_FLASH_MEAN:
                raise ValueError(
                    f"flash_rate x time span of region {side} is {mean:g}; "
                    f"the Poisson sampler needs at most {MAX_FLASH_MEAN:g}"
                )


# The parameters a call without ``params`` runs under, built and checked once.
_DEFAULT_PARAMS = ModelParams()
_LAB = Frame(0.0)  # preferred_frame decides in it, whatever frame is requested


@dataclass(frozen=True)
class ExperimentRun:
    """Record of one run: flashes in frame-time order, outcome, state history."""

    flashes: tuple[Flash, ...]
    outcome: Outcome
    state_trace: tuple[PureState, ...]


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


class _Model(NamedTuple):
    """What tells the models apart; both _simulate_run and the kernel read it."""

    frame_ordered: bool  # decisions follow the requested frame, else the lab frame
    local_channels: bool  # channels from shared randomness and the local setting only


_MODELS: dict[ModelId, _Model] = {
    ModelId.RGRWF: _Model(frame_ordered=True, local_channels=False),
    ModelId.PREFERRED_FRAME: _Model(frame_ordered=False, local_channels=False),
    ModelId.LOCAL_HV: _Model(frame_ordered=True, local_channels=True),
}


def _simulate_run(
    model: ModelId,
    source,
    settings,
    frame: Frame,
    params: ModelParams | None,
    record_trace: bool,
) -> ExperimentRun:
    """One run of ``model`` on the uniforms of ``source``: Poisson flash
    pattern, then channel decisions.  The seeded runs and the Janus runs
    both call it; the model's processing frame and channel rule come from
    _MODELS.

    The pattern draws form a settings-independent prefix of the uniform
    stream; channel decisions consume uniforms strictly in the processing
    order, the _frame_order of the processing frame.
    """
    spec = _MODELS[model]
    settings = _coerce_pair(settings)
    params = params if params is not None else _DEFAULT_PARAMS
    uniform = source.uniform
    rate = params.flash_rate

    # pattern: (region_rank, index, t_lab, x_lab), regions in A, B order
    pattern: list[tuple[int, int, float, float]] = []
    counts = [0, 0]
    for rank, region in enumerate(params.regions):
        t_span = region.t_max - region.t_min
        x_span = region.x_max - region.x_min
        n = _poisson_inverse(uniform(), rate * t_span)
        counts[rank] = n
        times = sorted(region.t_min + t_span * uniform() for _ in range(n))
        for idx, t in enumerate(times):
            x = region.x_min + x_span * uniform()
            pattern.append((rank, idx, t, x))

    sides = (settings.a, settings.b)
    trace: list[PureState] = []

    if spec.local_channels:
        # every flash of a region has the region's channel, in any order
        lam = 2.0 * math.pi * uniform()
        mech = 0 if uniform() < 0.5 else 1
        first = (_lhv_channel(sides[0].angle, lam, mech), -_lhv_channel(sides[1].angle, lam, mech))
        channels = {(rank, idx): first[rank] for rank, idx, _, _ in pattern}
    else:
        order = _frame_order(pattern, frame if spec.frame_ordered else _LAB)
        channels: dict[tuple[int, int], int] = {}
        first: dict[int, int] = {}  # each region's first channel in processing order
        # the 2x2 amplitude matrix m[a_bit][b_bit] as four complex scalars
        eps = params.epsilon
        amps = params.state.amplitudes
        m00, m01, m10, m11 = complex(amps[0]), complex(amps[1]), complex(amps[2]), complex(amps[3])
        for rank, idx, _, _ in order:
            c, s = sides[rank].cos_half, sides[rank].sin_half
            if rank == 0:  # side A: contract rows
                f0 = c * m00 + s * m10
                f1 = c * m01 + s * m11
            else:  # side B: contract columns
                f0 = m00 * c + m01 * s
                f1 = m10 * c + m11 * s
            p_plus = (f0.real * f0.real + f0.imag * f0.imag) + (
                f1.real * f1.real + f1.imag * f1.imag
            )
            if uniform() < p_plus:
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
            first.setdefault(rank, value)
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

    flashes = tuple(
        Flash(Event(t, x), SIDES[rank], channels[(rank, idx)], idx)
        for rank, idx, t, x in _frame_order(pattern, frame)
    )

    if counts[0] == 0 or counts[1] == 0:
        empty = tuple(side for side, n in zip(SIDES, counts) if n == 0)
        raise InconclusiveRunError(empty, flashes)

    outcome = Outcome(alpha=first[0], beta=first[1])
    return ExperimentRun(flashes, outcome, tuple(trace))


def _frame_order(pattern, frame: Frame) -> list:
    """The (region_rank, index, t_lab, x_lab) flashes of ``pattern`` in
    frame-time order in ``frame``, by Frame.time, ties broken A before B,
    then by index."""
    return sorted(pattern, key=lambda p: (frame.time(p[2], p[3]), p[0], p[1]))


def _max_draws(params: ModelParams) -> int:
    """The most uniforms one run of any model under ``params`` draws.

    _simulate_run draws two counts and a time and a position per flash,
    then one channel per flash, 2 + 3 (nA + nB) uniforms, or for local_hv
    lambda and the mechanism, 4 + 2 (nA + nB).  A count never exceeds the
    length of its Poisson table, and those lengths sum to at least 2,
    where both totals are 8, so 2 + 3 (len(table A) + len(table B))
    bounds either model.
    """
    return 2 + 3 * _flash_cells(params)


def _flash_cells(params: ModelParams) -> int:
    """The lengths of the two regions' Poisson tables, summed: the flash
    columns a kernel row can need, as no count exceeds its table's length."""
    return sum(
        len(_poisson_cdf_table(params.flash_rate * (r.t_max - r.t_min))) for r in params.regions
    )


def _coerce_pair(settings) -> SettingPair:
    if isinstance(settings, SettingPair):
        return settings
    a, b = settings
    return SettingPair(a, b)


def run_model(
    model,
    settings,
    frame: Frame,
    seed: int,
    params: ModelParams | None = None,
    record_trace: bool = True,
) -> ExperimentRun:
    """One seeded run of ``model`` (a ModelId or its value) in ``frame``.

    The uniforms come from GeneratorSource(seed); identical arguments give
    a bit-identical run.  ``record_trace`` keeps the collapsed state after
    each channel decision in ``state_trace``.  ``seed`` must be an int:
    a run seeded from the operating system's entropy could not be replayed.
    """
    if seed is None:
        raise ValueError("run_model needs a seed; a run without one cannot be replayed")
    return _simulate_run(ModelId(model), GeneratorSource(seed), settings, frame, params,
                         record_trace)


# run_model bound to each model, called as runner(settings, frame, seed,
# params, record_trace=...); perfbench/tracing.py rebinds and times them.
_RUNNERS: dict[ModelId, Callable] = {m: functools.partial(run_model, m) for m in ModelId}


class EnsembleRequest(NamedTuple):
    """n seeded runs, each run once per settings arm: run i uses seed
    mix_seed(master_seed, i) under every arm, in ``frame``."""

    arms: tuple
    frame: Frame
    n: int
    master_seed: int


def ensembles(model, requests, params: ModelParams | None = None) -> list[tuple[np.ndarray, int]]:
    """Outcome counts ``(joint, n_inconclusive)`` of each EnsembleRequest,
    in order.

    ``joint[c_1, ..., c_k]`` counts the request's runs whose outcome under
    arm j is ``OUTCOME_CELLS[c_j]``, one axis per arm, so a one-arm request
    gives a (4,) array in OUTCOME_CELLS order; a run inconclusive under any
    arm is counted once in ``n_inconclusive`` instead.

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
    if any(not r.arms for r in requests):
        raise ValueError("each request needs at least one settings arm")
    results = [None] * len(requests)
    for arms in dict.fromkeys(len(r.arms) for r in requests):
        index = [i for i, r in enumerate(requests) if len(r.arms) == arms]
        group = [requests[i] for i in index]
        tally = _Tally(group)
        for _, req, rows, seeds in _blocks(model, group, params):
            tally.add(req, _kernel_block(model, rows, params, seeds))
        for i, result in zip(index, tally.results()):
            results[i] = result
    return results


def _blocks(model: ModelId, requests, params: ModelParams, every_flash=False):
    """The runs of requests with one number of arms, stacked in request
    order and cut into blocks: yields each block's first row, each row's
    request index, the rows' _Stack and seeds.

    A block has _BLOCK_CELLS // cells rows, with cells a row's flash
    columns (_flash_cells), doubled if the sweep reads positions (the flash
    path, or any run processing at a nonzero sinh) and doubled again on the
    flash path (``every_flash``), and at most _BLOCK_ROWS rows, so that the
    row count follows from ``params`` and the requests alone.
    """
    stack = _stack(model, requests)
    cells = _flash_cells(params) * (4 if every_flash else 2 if stack.sinh.any() else 1)
    size = min(_BLOCK_ROWS, max(1, _BLOCK_CELLS // cells))
    sizes = [r.n for r in requests]
    ends = np.cumsum(sizes)
    begins = ends - sizes  # the runs of request r are rows begins[r] .. ends[r] - 1
    masters = np.array([r.master_seed % (1 << 64) for r in requests], dtype=np.uint64)
    for start in range(0, int(ends[-1]), size):
        rows = np.arange(start, min(int(ends[-1]), start + size))
        req = np.searchsorted(ends, rows, side="right")
        yield start, req, stack.take(req), _mix_seed_rows(masters[req], rows - begins[req])


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
# Each segment is its own draw, or is skipped if the run's outcome does not
# read it: the cursor jumps over it and the next segment gets the uniforms
# the scalar run gets.  For outcome counts, a block whose runs all process
# in a frame with sinh 0 skips the positions, as a flash's frame time
# t * cosh - x * 0.0 is t * cosh there; a block with any other run reads
# every run's positions.  local_hv, whose channels read no flash, skips
# both patterns.  The flash path reads every segment.
#
# A block's rows may belong to different requests: each row carries its
# own seed, settings and processing rapidity (a _Stack taken per row).
# _Patterns holds the flash patterns, and _decide is the one decision
# stage over them.  For outcome counts (_kernel_block) it draws a run's
# channels only until both regions have drawn their first, since later
# draws cannot change the outcome, and it orders no flashes: the flashes
# before that point are the earlier region's, then the other's first, so
# each region's earliest flash and a count locate it.  At epsilon = 0
# those first channels have a closed form (_closed_form): the earlier
# region's first channel from the Born marginal, which its later flashes
# repeat, and the other region's from the Born conditional, with
# probabilities tabled per request.  A run whose draw lies within _DELTA
# of a closed-form threshold, or whose earlier region took a branch of
# weight below _ETA, replays through the exact collapse on the same
# draws; at epsilon > 0 every run does.  For flashes (_flash_block, a
# layout of its decisions) it sorts and collapses every flash, at every
# epsilon.  One _collapse call decides every arm of a block: a run's arms
# are adjacent rows that share its uniforms, and the rows still
# collapsing at a step are a prefix, so a step makes the same numpy calls
# whatever the number of arms; no row is updated after its last decision.
# The collapse uses the same real operations in the same order as the
# scalar complex arithmetic, so every probability compared against a
# uniform is the same double.  It holds the amplitudes as planes: real
# parts only for a state with no nonzero imaginary part, whose imaginary
# parts the scalar arithmetic keeps at +-0 and adds only as +0 squares;
# real and imaginary parts for any other state.

# Flash cells per kernel block (_blocks).  A block's arrays (patterns,
# keys, orders, decisions, the collapse's masks, the CSV's byte table) are
# rows x flash columns wide, so a budget of cells bounds a block's memory
# at every flash rate, while a block's fixed cost of about 0.9 ms favours
# few, full blocks.  At the default parameters (72 flash cells per row)
# it gives 8,192-row blocks to lab-frame count sweeps, 4,096 to count
# sweeps that read positions and 2,048 to the flash path; at flash rate
# 700 (1,880 cells per row) a flash block has 78 rows.  Each row also
# holds state no flash cell counts (its seed, stream state and request
# values), so below the default rate, where a row has fewer cells, blocks
# stay at _BLOCK_ROWS rows: at flash rate 0.02 (16 cells per row) they
# would otherwise have up to 36,864, and a default-size rgrwf classify
# peaked at 53 MB instead of 40.
_BLOCK_CELLS = 8192 * 72
_BLOCK_ROWS = 8192


class _Patterns:
    """The flash patterns of a block of runs, one row per run, drawn from
    the runs' seeds.

    ``n_a`` and ``n_b`` hold the flash counts.  ``t`` and ``x`` hold the
    lab coordinates of each run's flashes in ``shape[1]`` columns: A
    0..nA-1, padding, then from column ``width_a`` B 0..nB-1, padding.
    With ``positions`` (one flag for the block), times are sorted within
    a region, so the column is the index, as positions come in time
    order; without it every run skips its positions, ``x`` is None and
    times are in draw order.  Times are inf on padding, so padding sorts
    last in every frame.  Without ``times`` both patterns are skipped and
    ``t`` and ``x`` are None.
    """

    def __init__(self, params: ModelParams, seeds: np.ndarray, times=True, positions=True):
        self.params = params
        self._streams = streams = PCG64Streams(seeds)
        positions = times and positions
        counts, ts, xs = [], [], []
        for region in params.regions:
            table = _poisson_cdf_table(params.flash_rate * (region.t_max - region.t_min))
            u = streams.draw(np.ones(seeds.size, dtype=np.intp))[:, 0]
            n = np.searchsorted(table, u, side="right")
            counts.append(n)
            if not times:
                streams.skip(2 * n)
                continue
            t = _scaled(streams.draw(n), region.t_min, region.t_max)
            t[np.arange(t.shape[1]) >= n[:, None]] = np.inf
            ts.append(t)
            if positions:
                t.sort(axis=1)  # a run's positions come in its times' order
                xs.append(_scaled(streams.draw(n), region.x_min, region.x_max))
            else:
                streams.skip(n)
        self.n_a, self.n_b = counts
        self.conclusive = (self.n_a > 0) & (self.n_b > 0)
        self.width_a = int(self.n_a.max())
        self.shape = (seeds.size, self.width_a + int(self.n_b.max()))
        self.t = np.hstack(ts) if times else None
        self.x = np.hstack(xs) if positions else None

    def hidden_variables(self) -> tuple[np.ndarray, np.ndarray]:
        """local_hv's (lambda, mechanism bit) of each run."""
        lam, mech = self._streams.draw(np.full(self.conclusive.size, 2)).T
        return 2.0 * math.pi * lam, mech >= 0.5

    def first_flashes(self, keys):
        """The positions of each run's first A and first B flash in the
        order its channels are drawn (the _time_order of ``keys``, the
        flash times in the processing frame), without ordering its
        flashes: the region with the earliest flash comes first, and the
        other's first flash follows that region's flashes before it.  A
        tie goes to the A flash, as A's columns come first in the stable
        sort."""
        keys = keys.T.copy()  # flashes by runs: reductions over runs' short rows are slow
        key_a, key_b = keys[: self.width_a], keys[self.width_a :]
        min_a, min_b = key_a.min(axis=0), key_b.min(axis=0)
        a_first = min_a <= min_b
        first_b = np.where(a_first, (key_a <= min_b).sum(axis=0), 0)
        first_a = np.where(a_first, 0, (key_b < min_a).sum(axis=0))
        return first_a, first_b

    def decisions(self, cos, sin, side_a, steps):
        """The channel decisions (True for +1) of each run's first
        steps[run] flashes in processing order, under each settings arm,
        shape (arms, runs, max steps).  ``cos`` and ``sin`` hold the cos
        and sin of each run's half setting angles, (arms, 2 sides, runs);
        ``side_a`` marks the A flashes in that order."""
        return _collapse_runs(self.params, cos, sin, side_a, steps, self._streams.draw(steps))

    def first_channels(self, cos, sin, first_a, first_b):
        """Each run's first A and first B channel (True for +1) under each
        settings arm, (arms, runs) each, from the positions first_flashes
        gives; ``cos`` and ``sin`` are as in ``decisions``.  A run draws
        its channels up to both first flashes.  At epsilon = 0
        _closed_form decides them and names the runs that replay through
        the exact collapse on the same draws; at epsilon > 0 every run
        replays."""
        steps = np.where(self.conclusive, np.maximum(first_a, first_b) + 1, 0)
        draws = self._streams.draw(steps)
        if self.params.epsilon:
            plus_a, plus_b = np.zeros((2, cos.shape[0], steps.size), dtype=bool)
            replay = self.conclusive
        else:
            plus_a, plus_b, replay = _closed_form(self.params, cos, sin, first_a == 0, steps, draws)
            replay &= self.conclusive
        runs = np.flatnonzero(replay)
        if runs.size:
            first_a, first_b, steps = first_a[runs], first_b[runs], steps[runs]
            # the flashes before both firsts are the earlier region's, then
            # the other region's first
            step = np.arange(int(steps.max()))
            in_a = np.where((first_a == 0)[:, None], step < first_b[:, None],
                            step == first_a[:, None])
            decided = _collapse_runs(self.params, cos[..., runs], sin[..., runs], in_a, steps,
                                     draws[runs])
            row = np.arange(runs.size)
            plus_a[:, runs] = decided[:, row, first_a]
            plus_b[:, runs] = decided[:, row, first_b]
        return plus_a, plus_b


def _collapse_runs(params, cos, sin, side_a, steps, draws) -> np.ndarray:
    """_Patterns.decisions on the given ``draws``, each run's uniforms
    per step, (runs, max steps)."""
    # runs sorted by steps, longest first, and each run's arms in
    # adjacent rows, so that the rows still collapsing at step k are
    # a prefix
    by_steps = np.argsort(-steps, kind="stable")
    width = int(steps[by_steps[0]])
    arms = cos.shape[0]
    runs_live = steps.size - np.cumsum(np.bincount(steps, minlength=width))[:width]
    trig = np.stack([cos, sin], axis=-2)[..., by_steps]  # (arms, sides, cos/sin, runs)
    plus = _collapse(
        params,
        np.moveaxis(trig, 0, -1).reshape(2, 2, -1),
        np.repeat(side_a.T[:width, by_steps], arms, axis=1),
        draws.T[:width, by_steps],
        (arms * runs_live).tolist(),
    )
    decided = np.empty((arms, steps.size, width), dtype=bool)
    decided[:, by_steps] = plus.reshape(width, -1, arms).T
    return decided


# The counts path's closed form at epsilon = 0 (_closed_form): a draw this
# close to its closed-form threshold replays through the exact collapse,
# and so does a run whose first region's channel had a branch weight below
# _ETA.  _closed_form's docstring shows that _DELTA is wide enough.
_DELTA = 2.0**-30
_ETA = 2.0**-20


def _closed_form(params, cos, sin, a_first, steps, draws):
    """The counts path at epsilon = 0: each run's first A and first B
    channel (True for +1) under each arm, (arms, runs) each, and a mask
    of the runs to replay through the exact collapse instead.

    E is the region that draws first (A where ``a_first``), L the other,
    and k = steps - 1 the number of E's flashes before L's first; the
    run's draws are u_0 .. u_k.  At epsilon = 0 a collapse leaves the
    state a product v (x) g, with v E's channel vector, (c, s) for +1 and
    (-s, c) for -1, and g its partner.  So E's first channel is u_0 < p0,
    each later E flash repeats it, and L's first channel is u_k < q, with
    q = |c_L g_0 + s_L g_1|^2 / |g|^2 the Born conditional.  _born_tables
    gives p0 and q per request, gathered by row; the rows of one request
    are adjacent, so a request is a run of rows with equal settings.  p0
    comes from _collapse's own operations: it is the double the collapse
    compares u_0 against.  q is not the collapse's double, which carries
    the rounding of k collapses.  So a run replays where u_k lies within
    _DELTA of q, where a repeat's uniform lies within _DELTA of 0 or of
    1, or where the branch E decided under some arm has a weight |g|^2
    below _ETA.

    Why _DELTA is wide enough.  u = 2^-53, and each operation below
    rounds with relative error at most u.  (One that underflows errs by
    at most 2^-1075; as _ETA keeps |g| above 2^-10, that is below
    2^-1060 relative to any quantity here.)  M is the state in E's
    orientation, M[i, j] with i E's index, of norm 1 within NORM_TOL.  c
    and s are correctly rounded, so |v|^2 = 1 + xi with |xi| <= 2.01u,
    and likewise |w|^2 for L's w = (c_L, s_L).  g = v_0 M[0] + v_1 M[1]
    exactly, on these doubles; P = |g|^2 is the branch weight, and
    q(x) = |w.x|^2 / |x|^2.  For nonzero x and y,
    |q(x) - q(y)| <= 2 |w|^2 |x/|x| - y/|y||  and
    |x/|x| - y/|y|| <= 2 |x - y| / |y|.

    1. E's first collapse computes g^ = v_0 M[0] + v_1 M[1] plane by
       plane, each component within 2.01u (|v_0 M[0, j]| + |v_1 M[1, j]|),
       so |g^ - g| <= 2.02u and q(g^) is within 8.2u / sqrt(P) of q(g).
       It stores m[i, j] = v_i g^_j (1 + theta_ij) / n, with |theta| <=
       2.01u (product and quotient) and n = |v| |g^| (1 + beta) the
       computed norm: |beta| <= 4.01u with one plane (four squares),
       6.01u with two (eight).
    2. A repeat computes f_j = c m[0, j] + s m[1, j].  On channel +1
       that is (c^2 (1 + theta_0j) + s^2 (1 + theta_1j)) g^_j / n: two
       terms of one sign, so f_j = |v|^2 g^_j / n within 4.03u relative,
       and p = |f|^2 lies within |xi| + 8.1u + 3u + 2 |beta| <= 26u of 1.
       On channel -1 the two terms cancel to |f_j| <= 6.03u |c s| |g^_j|
       / n, and p <= 10u^2.  A repeat that decides E's channel again
       collapses onto the same v; its new partner v_0 m[0] + v_1 m[1]
       also adds two terms of one sign, so each component is g^_j times
       a common factor, within 4.03u relative more than before.  After
       k - 1 repeats the partner's direction is within 8.06 (k - 1) u of
       g^'s, and q within 16.3 (k - 1) u of q(g^).
    3. L's step computes f_i = c_L m[i, 0] + s_L m[i, 1], which is
       v_i (w.g') / n within 4.03u |v_i| |w| |g'| / n, for g' the
       partner after the repeats.  So the collapse's p_L = |f|^2 is
       within 8.1u (the error of f), 3.1u (its squares' sum) and 2 |beta|
       (the norm) of q(g'): within 19.3u with one plane, 23.3u with two.
    4. _born_tables computes h = c_L g^_0 + s_L g^_1 within 2.01u |w| |g^|,
       so its q^ = |h|^2 / |g^|^2 is within 4.1u + 6.1u of q(g^).  Its g^
       is the collapse's own double, so steps 1 and 4 share q(g^); the
       bound below does not rest on that and counts 8.2u / sqrt(P) on
       each side.

    Together, |p_L - q^| <= (16.4 / sqrt(P) + 16.3 (k - 1) + C) u, with
    C = 30 for one plane and 34 for two.  A count never exceeds its
    Poisson table, 1,957 entries at MAX_FLASH_MEAN, so k < 2,000, and
    P >= _ETA = 2^-20: the bound is below 4.9e4 u = 5.5e-12, and a
    repeat's p lies within 26u of 1 or of 0.  Both are far inside
    _DELTA = 2^-30 = 9.3e-10 (the computed distance |u_k - q^| errs by
    at most u relative), so a draw outside its band falls on the same
    side of the collapse's probability as of the closed form's.
    """
    n = steps.size
    arms = cos.shape[0]
    trig = np.concatenate([cos, sin]).reshape(-1, n)
    new = np.ones(n, dtype=bool)  # the first row of each request
    np.any(trig[:, 1:] != trig[:, :-1], axis=0, out=new[1:])
    first = np.flatnonzero(new)
    weight, cond = _born_tables(params.state, cos[..., first], sin[..., first])
    # flat index of (arm, side E, channel +1, request) into the tables
    base = (np.arange(arms)[:, None] * 4 + np.where(a_first, 0, 2)) * first.size
    base += np.cumsum(new) - 1
    plus_e = draws[:, 0] < weight.ravel()[base]
    at = base + np.where(plus_e, 0, first.size)  # E's decided channel
    q = cond.ravel()[at]
    u_l = draws[np.arange(n), steps - 1]
    replay = ((np.abs(u_l - q) < _DELTA) | (weight.ravel()[at] < _ETA)).any(axis=0)
    if draws.min() < _DELTA or draws.max() >= 1.0 - _DELTA:  # then find the repeats' (1 .. k - 1)
        run, col = np.nonzero(np.abs(draws[:, 1:] - 0.5) >= 0.5 - _DELTA)  # u - 0.5 is exact
        replay[run[col + 2 < steps[run]]] = True
    plus_l = u_l < q
    return np.where(a_first, plus_e, plus_l), np.where(a_first, plus_l, plus_e), replay


def _born_tables(state: PureState, cos, sin):
    """The branch weight |g|^2 and L's Born conditional probability of
    +1, |c_L g_0 + s_L g_1|^2 / |g|^2 (0 where |g| is 0), for E = side A
    and B and E's channel +1 and -1, each (arms, 2 sides, 2 channels,
    requests); ``cos`` and ``sin`` hold each request's half-angle cos and
    sin, (arms, 2 sides, requests).  g, E's partner vector, comes from
    _collapse's operations, so the weight of channel +1 is the double
    _collapse compares E's first uniform against."""
    m = _planes(state)
    # (cells, planes, arms, side E, channel, requests): side B contracts
    # columns, so its cells are 00, 10, 01, 11
    m = np.stack([m, m[[0, 2, 1, 3]]], axis=2)[:, :, None, :, None, None]
    v0 = np.stack([cos, -sin], axis=2)  # E's channel vector, (arms, side E, channel, requests)
    v1 = np.stack([sin, cos], axis=2)
    g = v0 * m[:2] + v1 * m[2:]
    sq = g * g
    weight = _sum_rows(sq[0]) + _sum_rows(sq[1])
    h = cos[:, ::-1, None] * g[0] + sin[:, ::-1, None] * g[1]  # L's setting
    cond = np.zeros_like(weight)
    np.divide(_sum_rows(h * h), weight, out=cond, where=weight > 0.0)
    return weight, cond


def _scaled(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """low + (high - low) * u, computed in place with the same two
    operations."""
    u *= high - low
    u += low
    return u


def _frame_times(t: np.ndarray, x: np.ndarray, cosh, sinh) -> np.ndarray:
    """Frame.time of each flash, from a column of each run's cosh and sinh;
    inf on padding, as cosh and sinh are finite.  Without ``x`` every sinh
    is 0, and t cosh - x 0 is t cosh."""
    keys = t * cosh
    if x is not None:
        keys -= x * sinh
    return keys


def _time_order(keys: np.ndarray) -> np.ndarray:
    # columns run A 0..nA-1, padding, B 0..nB-1, padding, and padding sorts
    # last; a stable sort on the frame time then breaks ties by region and
    # index, the _frame_order of _simulate_run
    return np.argsort(keys, axis=1, kind="stable")


class _Stack(NamedTuple):
    """Per-request values of a sweep, with requests on the last axis, or
    runs once ``take`` has given each run its request's values.

    Every trig value is the request's Setting.cos_half and sin_half and
    Frame.cosh and sinh, the doubles _simulate_run reads: numpy's cos or
    cosh over an array may differ from math's in the last bit, and then a
    probability compared against a uniform is no longer the same double.
    """

    angle: np.ndarray  # settings angles, (arms, 2 sides, ...)
    cos: np.ndarray  # cos and sin of half the settings angles, (arms, 2 sides, ...)
    sin: np.ndarray
    cosh: np.ndarray  # cosh and sinh of the processing rapidity, (...)
    sinh: np.ndarray

    def take(self, req: np.ndarray) -> "_Stack":
        return _Stack(*(np.take(values, req, axis=-1) for values in self))


def _stack(model: ModelId, requests) -> _Stack:
    """The _Stack of requests with one number of arms; the decisions of
    preferred_frame follow rapidity 0 whatever the frame."""

    def per_side(name):
        return np.array(
            [[(getattr(p.a, name), getattr(p.b, name)) for p in r.arms] for r in requests]
        ).transpose(1, 2, 0)

    frame_ordered = _MODELS[model].frame_ordered
    frames = [r.frame if frame_ordered else _LAB for r in requests]
    return _Stack(
        angle=per_side("angle"),
        cos=per_side("cos_half"),
        sin=per_side("sin_half"),
        cosh=np.array([f.cosh for f in frames]),
        sinh=np.array([f.sinh for f in frames]),
    )


def _kernel_block(model: ModelId, rows: _Stack, params: ModelParams, seeds) -> np.ndarray:
    """Outcome cell of each run under each arm, shape (arms, runs), as an
    index into OUTCOME_CELLS; -1 marks an inconclusive run.  ``rows``
    holds each run's settings and rapidity."""
    local = _MODELS[model].local_channels
    block = _Patterns(params, seeds, times=not local, positions=bool(rows.sinh.any()))
    return _decide(block, model, rows)[0]


def _decide(block: _Patterns, model: ModelId, rows: _Stack, every_flash=False):
    """The decision stage of both paths.  Returns _kernel_block's cells
    and, if ``every_flash``, the channel (True for +1) in each flash
    column under the block's one arm; else None, and each run's channels
    are decided only up to its first A and first B flash
    (_Patterns.first_channels)."""
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

    keys = _frame_times(block.t, block.x, rows.cosh[:, None], rows.sinh[:, None])
    first_a, first_b = block.first_flashes(keys)
    if not every_flash:
        plus_a, plus_b = block.first_channels(rows.cos, rows.sin, first_a, first_b)
        cells[:, runs] = _cell(plus_a[:, runs], plus_b[:, runs])
        return cells, plus
    order = _time_order(keys)
    steps = np.where(conclusive, block.n_a + block.n_b, 0)
    decided = block.decisions(rows.cos, rows.sin, order < block.width_a, steps)
    cells[:, runs] = _cell(decided[:, runs, first_a[runs]], decided[:, runs, first_b[runs]])
    np.put_along_axis(plus, order[:, : decided.shape[2]], decided[0], axis=1)
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
    region: np.ndarray  # "A" or "B"
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
    t_frame = frame.time(t, x)
    report = _time_order(t_frame)
    run = np.repeat(np.arange(seeds.size), steps)
    col = report[np.arange(report.shape[1]) < steps[:, None]]
    in_b = col >= block.width_a
    return FlashBlock(
        run_id=first_id + run,
        region=np.where(in_b, SIDES[1], SIDES[0]),
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
    ``_simulate_run`` gives it.  ``joint`` and ``inconclusive`` are the
    ``ensembles`` counts of the runs of the blocks yielded so far.
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
        self.joint = np.zeros(len(OUTCOME_CELLS), dtype=np.int64)
        self.inconclusive = 0

    def __iter__(self):
        requests = [EnsembleRequest((self.pair,), self.frame, self.n, self.master_seed)]
        tally = _Tally(requests)
        for start, req, rows, seeds in _blocks(self.model, requests, self.params,
                                               every_flash=True):
            block = _flash_block(self.model, rows, self.frame, self.params, seeds, start)
            tally.add(req, block.cells[None])
            ((self.joint, self.inconclusive),) = tally.results()
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


def _collapse(params, trig, side_a, draws, live) -> np.ndarray:
    """Channel decisions (True for +1) of the first len(live) processed
    flashes of each row, shape (steps, rows); rows are sorted so that
    step k touches rows [:live[k]].  Rows are (run, arm) pairs, a run's
    arms in adjacent rows: ``side_a`` holds each row's side per step,
    (steps, rows), and ``draws`` each run's uniform per step, (steps,
    runs), shared by its arms.  ``trig`` holds per side the row's c and s,
    the cos and sin of half its setting angle, (2 sides, 2, rows).

    The 2x2 amplitude matrix is held as m[cell, plane, row], 4 x planes
    rows per run and arm.  A state whose amplitudes have no nonzero
    imaginary part (-0.0 is not) gets one plane, the real parts: in
    _simulate_run its imaginary parts then stay +-0 through every complex
    product, epsilon step and division by the norm, and each enters a
    probability or the norm only as its square, +0, added to a sum of
    squares, which changes no bit of the sum; the real parts come from
    the same real operations either way.  Any other state gets two
    planes, real and imaginary.

    The matrix is held in the orientation of the side that last collapsed
    it: cells 00, 01, 10, 11 after a side-A step and its transpose, 00,
    10, 01, 11, after a side-B step.  A step contracts the first two cells
    with the last two: f = c (m00, m01) + s (m10, m11) is (c m00 + s m10,
    c m01 + s m11) on side A and (m00 c + m01 s, m10 c + m11 s) on side B,
    and the collapsed matrix (v_i g_j on A, g_i v_j on B) is v_i g_j in
    the orientation of its side.  So only cells 01 and 10 change places:
    where a row's side is not the last step's, and in the norm, which sums
    p00, p01, p10, p11, each real part before its imaginary part, as
    _simulate_run does.  A row's state is not updated after its last
    decision.
    """
    arms = side_a.shape[1] // draws.shape[1]
    m = np.repeat(_planes(params.state)[..., None], live[0], axis=2)  # (cells, planes, rows)
    turn = np.empty_like(side_a)  # the side is not the last step's (A before step 0)
    turn[0] = ~side_a[0]
    np.not_equal(side_a[1:], side_a[:-1], out=turn[1:])
    eps = params.epsilon
    plus = np.zeros(side_a.shape, dtype=bool)
    for k, n_live in enumerate(live):
        is_a = side_a[k, :n_live]
        m[1:3] = np.where(turn[k, :n_live], m[2:0:-1], m[1:3])  # cells 01 and 10 change places
        c = np.where(is_a, trig[0, 0, :n_live], trig[1, 0, :n_live])
        s = np.where(is_a, trig[0, 1, :n_live], trig[1, 1, :n_live])
        sq = c * m[:2] + s * m[2:]  # f, squared in place
        sq *= sq
        p_plus = _sum_rows(sq[0]) + _sum_rows(sq[1])  # |f0|^2 + |f1|^2
        u = draws[k, : n_live // arms]
        up = np.less(u if arms == 1 else np.repeat(u, arms), p_plus, out=plus[k, :n_live])
        n_next = live[k + 1] if k + 1 < len(live) else 0
        if n_next == 0:
            break
        m = m[..., :n_next]
        up, c, s = up[:n_next], c[:n_next], s[:n_next]
        v0, v1 = np.where(up, c, -s), np.where(up, s, c)
        g = v0 * m[:2] + v1 * m[2:]
        p = np.empty_like(m)
        np.multiply(v0, g, out=p[:2])
        np.multiply(v1, g, out=p[2:])
        if eps:
            p += eps * (m - p)
        sq = p * p
        mid = np.where(is_a[:n_next], sq[1:3], sq[2:0:-1])
        m = p / np.sqrt(_sum_rows((*sq[0], *mid[0], *mid[1], *sq[3])))
    return plus


def _planes(state: PureState) -> np.ndarray:
    """The amplitudes as _collapse holds them, (cells, planes): the real
    parts, then the imaginary parts unless none is nonzero."""
    amps = np.asarray(state.amplitudes, dtype=complex)
    parts = (amps.real, amps.imag) if amps.imag.any() else (amps.real,)
    return np.stack(parts, axis=1)


def _sum_rows(rows):
    """rows[0] + rows[1] + ..., added left to right, as _simulate_run adds
    the terms of a probability or a norm."""
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total


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
    return labels.view(np.uint32).reshape(labels.size, -1).astype(np.uint8)
