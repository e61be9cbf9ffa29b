"""Differential tests: the vectorized ensemble kernel against the scalar
engine it reimplements, run for run, and its PCG64 streams against numpy.

The scalar ``_simulate_run`` (behind ``run_model``) is the specification.
A failure here means some run's outcome changed, which breaks the
reproducibility contract even when every distribution test still passes.
A numpy release that changes SeedSequence, PCG64 or ``Generator.random``
fails ``test_pcg64_streams_match_numpy``.
"""

import bisect
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flashlab import models, randomness
from flashlab.classify import classify
from flashlab.cli import main
from flashlab.minkowski import Frame, Region, boost_time, order_flip_rapidity
from flashlab.models import (
    _RUNNERS,
    OUTCOME_CELLS,
    InconclusiveRunError,
    ModelId,
    EnsembleRequest,
    ExperimentRun,
    FlashEnsemble,
    ModelParams,
    _blocks,
    _coerce_pair,
    _kernel_block,
    _poisson_cdf_table,
    _poisson_inverse,
    _stack,
    ensembles,
    run_model,
    write_flash_csv,
)
from flashlab.quantum import PureState, SettingPair, random_pure_state, singlet
from flashlab.randomness import PCG64Streams, _mix_seed_rows, _seed_sequence_words, mix_seed

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def run_seeds(master_seed, n) -> np.ndarray:
    """The seeds mix_seed(master_seed, i) of runs i < n, as uint64."""
    return _mix_seed_rows(np.uint64(master_seed % 2**64), np.arange(n))


def scalar_cells(model, pairs, frame, params, seeds) -> np.ndarray:
    """Per-run outcome cells from the scalar runs; -1 if inconclusive."""
    out = np.full((len(pairs), len(seeds)), -1)
    for i, seed in enumerate(seeds):
        for arm, pair in enumerate(pairs):
            try:
                run = run_model(model, pair, frame, int(seed), params, record_trace=False)
            except InconclusiveRunError:
                continue
            out[arm, i] = OUTCOME_CELLS.index((run.outcome.alpha, run.outcome.beta))
    return out


# A flash-cell budget a quarter of models._BLOCK_CELLS, which the tests that
# cross block boundaries set (small_blocks): at the default parameters it
# cuts a lab-frame count sweep into blocks of 2,048 rows, a count sweep that
# reads positions into 1,024 and a flash sweep into 512.
SMALL_BLOCK_CELLS = 2048 * 72


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(models, "_BLOCK_CELLS", SMALL_BLOCK_CELLS)


def block_count(model, requests, params, every_flash=False) -> int:
    """The kernel blocks of one sweep over ``requests``."""
    requests = [r._replace(arms=[_coerce_pair(pair) for pair in r.arms]) for r in requests]
    return sum(1 for _ in _blocks(model, requests, params, every_flash))


def assert_run_for_run(model, pairs, frame, params, n, master_seed):
    seeds = run_seeds(master_seed, n)
    request = EnsembleRequest([SettingPair(*p) for p in pairs], frame, n, master_seed)
    rows = _stack(model, [request]).take(np.zeros(n, dtype=np.intp))
    got = _kernel_block(model, rows, params, seeds)
    want = scalar_cells(model, [SettingPair(*p) for p in pairs], frame, params, seeds.tolist())
    mismatched = np.flatnonzero((got != want).any(axis=0))
    assert mismatched.size == 0, (
        f"{model.value}: {mismatched.size} of {n} runs differ, first at index "
        f"{mismatched[0]} (kernel {got[:, mismatched[0]]}, scalar {want[:, mismatched[0]]})"
    )


def test_mix_seeds_match_scalar():
    # a run range of one master seed, as a request's runs are mixed
    for master in (0, 1, 7, -3, 2**64 - 1, 2**70 + 5):
        assert run_seeds(master, 300).tolist() == [mix_seed(master, i) for i in range(300)]
    got = _mix_seed_rows(np.uint64(9), np.arange(4090, 4100))
    assert got.tolist() == [mix_seed(9, i) for i in range(4090, 4100)]


def test_mix_seed_rows_match_scalar():
    # one master seed per row, as a kernel block mixes requests; masters
    # are taken mod 2^64 as mix_seed takes them
    masters = [0, 1, 7, -3, 2**64 - 1, 2**70 + 5]
    rows = [(m, i) for m in masters for i in (0, 1, 4095, 10**6)]
    got = _mix_seed_rows(np.array([m % 2**64 for m, _ in rows], dtype=np.uint64),
                         np.array([i for _, i in rows]))
    assert got.tolist() == [mix_seed(m, i) for m, i in rows]


def test_pcg64_streams_match_numpy():
    def reference(seeds, k):
        return np.array([np.random.Generator(np.random.PCG64(s)).random(k) for s in seeds])

    edge = PCG64Streams(np.array(EDGE_SEEDS, dtype=np.uint64))
    each = np.ones(len(EDGE_SEEDS), dtype=np.intp)
    first, more = edge.draw(5 * each), edge.draw(60 * each)
    np.testing.assert_array_equal(np.hstack([first, more]), reference(EDGE_SEEDS, 65))
    seeds = [mix_seed(2024, i) for i in range(10_000)]
    got = PCG64Streams(np.array(seeds, dtype=np.uint64)).draw(np.full(len(seeds), 6))
    np.testing.assert_array_equal(got, reference(seeds, 6))


def assert_cursors_match_numpy():
    """Draws and skips over the 7 edge seeds and over 1,000 streams, each
    stream checked against numpy's own generator."""

    def check(seeds, steps):
        streams = PCG64Streams(np.array(seeds, dtype=np.uint64))
        numpy_streams = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        for op, lengths in steps:
            if op == "skip":
                streams.skip(lengths)
                for gen, k in zip(numpy_streams, lengths):
                    gen.random(k)
                continue
            got = streams.draw(lengths)
            assert got.shape == (len(seeds), max(lengths))
            for row, gen, k in zip(got, numpy_streams, lengths):
                np.testing.assert_array_equal(row[:k], gen.random(k))
                assert ((row[k:] >= 0.0) & (row[k:] < 1.0)).all()

    check(EDGE_SEEDS, [
        ("draw", [0, 1, 63, 64, 65, 130, 7]),
        ("skip", [0, 65, 1001, 64, 1, 0, 2000]),
        ("draw", [0] * 7),
        ("skip", [0] * 7),
        ("draw", [3, 0, 1, 64, 128, 2, 1]),
        ("skip", [1500, 2, 0, 63, 1024, 1, 65]),
        ("draw", [1] * 7),
        ("draw", [7, 8, 9, 15, 16, 17, 0]),
        ("skip", [3, 0, 1, 2, 5, 8, 9]),
        ("draw", [17, 16, 15, 9, 8, 7, 1]),
    ])
    rng = np.random.default_rng(12)
    steps = []
    for _ in range(6):
        steps.append(("draw", rng.integers(0, 40, 1000).tolist()))
        steps.append(("skip", rng.integers(0, 1500, 1000).tolist()))
    steps.append(("draw", rng.integers(0, 3, 1000).tolist()))
    steps.append(("draw", np.resize([7, 8, 9, 15, 16, 17], 1000).tolist()))
    check([mix_seed(77, i) for i in range(1000)], steps)


def test_pcg64_cursor_draws_and_skips_match_numpy():
    # each stream moves by exactly its own length, drawn or skipped; lengths
    # of 0, on either side of one and two batch widths and past 64, and
    # skips past 64 and 1,000 values.  A batch widens as the streams thin
    # out: 128 steps for the 7 edge seeds, 8 for 1,000 streams
    assert (randomness._batch_width(7), randomness._batch_width(1000)) == (128, 8)
    assert_cursors_match_numpy()


@pytest.mark.parametrize("batch_values, widths", [(0, (8, 8)), (32_000, (128, 32))])
def test_pcg64_cursors_match_numpy_at_other_batch_widths(monkeypatch, batch_values, widths):
    # the same draws and skips with 8-step batches for every stream count,
    # and with 32-step batches for 1,000 streams
    monkeypatch.setattr(randomness, "_BATCH_VALUES", batch_values)
    assert (randomness._batch_width(7), randomness._batch_width(1000)) == widths
    assert_cursors_match_numpy()


def test_seed_sequence_words_match_numpy():
    # the stacked hashing against numpy's SeedSequence loop: the edge
    # seeds, seeds below 2^32 (one entropy word, where numpy hashes zeros
    # into the rest of the pool) and 10,000 derived run seeds
    below = [0, 1, 2, 12345, 2**31, 2**32 - 2]
    below += np.random.default_rng(8).integers(0, 2**32, 1000).tolist()
    seeds = EDGE_SEEDS + below + [mix_seed(2024, i) for i in range(10_000)]
    got = _seed_sequence_words(np.array(seeds, dtype=np.uint64))
    want = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want.T)


def _poisson_loop(u: float, mean: float) -> int:
    """CDF inversion by the term recurrence, stopping where the table ends."""
    k = 0
    p = math.exp(-mean)
    cdf = p
    while u >= cdf:
        k += 1
        p *= mean / k
        cdf += p
        if p == 0.0 or (p < 1e-18 and cdf >= 1.0 - 1e-15):
            break
    return k


@pytest.mark.parametrize("mean", [1e-9, 0.7, 5.0, 16.223781689084454, 20.0, 700.0, 708.0])
def test_poisson_table_matches_inverse(mean):
    table = np.array(_poisson_cdf_table(mean))
    us = np.concatenate([
        np.linspace(0.0, 1.0, 2001, endpoint=False),
        table,
        np.nextafter(table, 0.0),
        [1.0 - 2**-53],
    ])
    want = [_poisson_loop(u, mean) for u in us.tolist()]
    assert np.searchsorted(table, us, side="right").tolist() == want
    assert [_poisson_inverse(u, mean) for u in us.tolist()] == want


@pytest.mark.parametrize("width_a", [1, 2, 4])
@pytest.mark.parametrize("width_b", [1, 3])
def test_first_flashes_follow_the_stable_sort(width_a, width_b):
    # small integer keys tie within and across regions, and inf pads each
    # region after its count; the first A and first B flash must sit where
    # the stable sort of a run's keys puts A's and B's first column
    rng = np.random.default_rng(100 * width_a + width_b)
    runs = 3000
    keys = rng.integers(-2, 3, size=(runs, width_a + width_b)).astype(float)
    n_a = rng.integers(1, width_a + 1, size=runs)
    n_b = rng.integers(1, width_b + 1, size=runs)
    column = np.arange(keys.shape[1])
    keys[(column < width_a) & (column >= n_a[:, None])] = np.inf
    keys[column >= width_a + n_b[:, None]] = np.inf
    block = models._Patterns.__new__(models._Patterns)
    block.width_a = width_a
    first_a, first_b = block.first_flashes(keys)
    in_a = np.argsort(keys, axis=1, kind="stable") < width_a
    np.testing.assert_array_equal(first_a, np.argmax(in_a, axis=1))
    np.testing.assert_array_equal(first_b, np.argmax(~in_a, axis=1))
    # both region orders, and ties across regions, occur
    min_a, min_b = keys[:, :width_a].min(axis=1), keys[:, width_a:].min(axis=1)
    assert (min_a < min_b).any() and (min_b < min_a).any() and (min_a == min_b).any()


@pytest.mark.parametrize("model", list(ModelId))
def test_kernel_matches_scalar_at_defaults(model):
    assert_run_for_run(model, [(0.0, math.pi / 3)], Frame(0.0), ModelParams(), 10_000, 31)


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("chi", [-0.5, 0.0, 0.5, 1.0, 10.0])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_kernel_matches_scalar_frames_and_softening(model, chi, epsilon):
    # two arms that differ in the distant setting, as in a flip probe
    pairs = [(0.4, 1.3), (0.4, 2.9)]
    assert_run_for_run(model, pairs, Frame(chi), ModelParams(epsilon=epsilon), 2000, 17)


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("rate", [0.7, 20.0])
def test_kernel_matches_scalar_complex_state_and_rates(model, rate):
    params = ModelParams(
        state=random_pure_state(np.random.default_rng(5)), flash_rate=rate, epsilon=0.02
    )
    assert_run_for_run(model, [(2.2, 0.9), (5.0, 0.9)], Frame(0.8), params, 2000, 23)


@pytest.mark.parametrize("model", list(ModelId))
def test_ensemble_counts_across_blocks(small_blocks, model):
    # 5000 runs span two kernel blocks, or three where the sweep reads
    # positions; the joint table must equal the scalar runs tallied one by one
    pairs = [SettingPair(0.0, 1.0), SettingPair(0.0, 2.0)]
    params = ModelParams(flash_rate=1.0)
    requests = [EnsembleRequest(pairs, Frame(0.6), 5000, 77)]
    assert block_count(model, requests, params) >= 2
    ((joint, inconclusive),) = ensembles(model, requests, params)
    want = scalar_cells(model, pairs, Frame(0.6), params, run_seeds(77, 5000).tolist())
    ok = want[0] >= 0
    expected = np.zeros((4, 4), dtype=np.int64)
    np.add.at(expected, (want[0, ok], want[1, ok]), 1)
    np.testing.assert_array_equal(joint, expected)
    assert inconclusive == int((~ok).sum()) > 0


@pytest.mark.parametrize("model", list(ModelId))
def test_kernel_reads_and_skips_match_scalar_in_mixed_blocks(small_blocks, model):
    # one sweep whose first block holds lab-frame runs beside moving-frame
    # runs, so that the lab-frame runs read their positions too, as the
    # block's runs do not all skip them (local_hv skips both patterns
    # everywhere); checked run for run, block by block.  At
    # these small rapidities the two boxes overlap in frame time, so the
    # positions decide how A and B flashes interleave.
    params = ModelParams(epsilon=0.02)
    arms = [SettingPair(0.4, 1.3), SettingPair(0.4, 2.9)]
    requests = [
        EnsembleRequest(arms, Frame(0.0), 700, 3),
        EnsembleRequest(arms, Frame(0.04), 900, 5),
        EnsembleRequest(arms, Frame(0.0), 300, 7),
        EnsembleRequest(arms, Frame(-0.02), 250, 11),
    ]
    got = [_kernel_block(model, rows, params, seeds)
           for _, _, rows, seeds in _blocks(model, requests, params)]
    assert len(got) >= 2
    got = np.hstack(got)
    want = np.hstack([
        scalar_cells(model, arms, r.frame, params, run_seeds(r.master_seed, r.n).tolist())
        for r in requests
    ])
    mismatched = np.flatnonzero((got != want).any(axis=0))
    assert mismatched.size == 0, f"{mismatched.size} runs differ, first at row {mismatched[0]}"


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("chi", [0.0, 0.02])
def test_kernel_matches_scalar_with_long_skips(model, chi):
    # about 600 flashes per unit box: a lab-frame run skips about 600
    # positions per region and a local_hv run about 1,200 uniforms
    assert_run_for_run(model, [(0.4, 1.3), (0.4, 2.9)], Frame(chi),
                       ModelParams(flash_rate=600.0), 30, 19)


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("chi", [0.0, 0.8, "flip"])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_stacked_arms_match_one_arm_blocks(model, chi, epsilon):
    # a block collapses all its arms in one call, a run's arms in adjacent
    # rows; each arm must get the cells its own one-arm block gives it, on
    # the same seeds.  The arms differ in both settings.
    params = ModelParams(epsilon=epsilon)
    flip = order_flip_rapidity(params.regions[0].center(), params.regions[1].center())
    frame = flip if chi == "flip" else Frame(chi)
    arms = [SettingPair(0.4, 1.3), SettingPair(2.0, 2.9)]
    seeds = run_seeds(29, 2048)

    def cells(pairs):
        request = EnsembleRequest(pairs, frame, seeds.size, 29)
        rows = _stack(model, [request]).take(np.zeros(seeds.size, dtype=np.intp))
        return _kernel_block(model, rows, params, seeds)

    stacked = cells(arms)
    assert stacked.shape == (2, seeds.size)
    for arm, pair in enumerate(arms):
        np.testing.assert_array_equal(stacked[arm], cells([pair])[0])


def test_ensembles_and_classify_reject_a_runner_callable():
    # a model is named by its ModelId (or its value); a scalar runner is
    # not a model handle, even one of a built-in model
    runner = _RUNNERS[ModelId.RGRWF]
    with pytest.raises(ValueError, match="is not a valid ModelId"):
        ensembles(runner, [EnsembleRequest([(0.0, 1.0)], Frame(0.0), 10, 4)])
    with pytest.raises(ValueError, match="is not a valid ModelId"):
        classify(runner)


def test_ensembles_reject_a_request_without_arms():
    with pytest.raises(ValueError, match="at least one settings arm"):
        ensembles(ModelId.RGRWF, [EnsembleRequest([], Frame(0.0), 5, 0)])
    with pytest.raises(ValueError, match="at least one settings arm"):
        ensembles(ModelId.LOCAL_HV, [EnsembleRequest([(0.0, 1.0)], Frame(0.0), 5, 1),
                                     EnsembleRequest((), Frame(0.0), 5, 1)])


@pytest.mark.parametrize("model", list(ModelId))
def test_runner_table_binds_each_model(model, monkeypatch):
    # perfbench/tracing.py calls the _RUNNERS entries with this signature
    # and counts uniforms by rebinding models.GeneratorSource
    pair, frame, seed = SettingPair(0.4, 1.3), Frame(0.3), mix_seed(5, 2)
    want = run_model(model, pair, frame, seed, None, record_trace=False)
    got = _RUNNERS[model](pair, frame, seed, None, record_trace=False)
    for name in ExperimentRun.__dataclass_fields__:
        assert getattr(got, name) == getattr(want, name), name
    built = []

    class CountingSource(models.GeneratorSource):
        __slots__ = ()

        def __init__(self, seed):
            super().__init__(seed)
            built.append(seed)

    monkeypatch.setattr(models, "GeneratorSource", CountingSource)
    assert run_model(model.value, pair, frame, seed, record_trace=False) == want
    assert _RUNNERS[model](pair, frame, seed, None, record_trace=False) == want
    assert built == [seed, seed]


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_batch_matches_separate_calls(small_blocks, model, epsilon):
    # one and two arms, the order-flip frame among others, n = 1 and n on
    # both sides of a block boundary: every request of the stacked batch
    # gets exactly the counts of its own ensembles call
    params = ModelParams(epsilon=epsilon)
    flip = order_flip_rapidity(params.regions[0].center(), params.regions[1].center())
    requests = [
        EnsembleRequest([(0.0, 1.0)], Frame(0.0), 1, 3),
        EnsembleRequest([(0.4, 1.3), (0.4, 2.9)], flip, 2085, 5),
        EnsembleRequest([(2.2, 0.9)], Frame(-0.7), 300, 7),
        EnsembleRequest([(0.0, 0.0), (math.pi / 2, 0.0)], Frame(1.0), 1, 11),
        EnsembleRequest([(1.0, 5.0)], flip, 2043, 13),
        EnsembleRequest([(0.0, math.pi / 2), (0.0, 0.0)], Frame(-1.0), 700, 17),
        EnsembleRequest([(3.0, 0.5)], Frame(2.0), 450, 19),
    ]
    for arms in (1, 2):
        assert block_count(model, [r for r in requests if len(r.arms) == arms], params) >= 2
    batch = ensembles(model, requests, params)
    assert len(batch) == len(requests)
    for request, (joint, inconclusive) in zip(requests, batch):
        ((want_joint, want_inconclusive),) = ensembles(model, [request], params)
        np.testing.assert_array_equal(joint, want_joint)
        assert joint.shape == (4,) * len(request.arms)
        assert inconclusive == want_inconclusive
        assert int(joint.sum()) + inconclusive == request.n


@pytest.mark.parametrize("rate, lab, moving, flashes", [
    (0.02, 8192, 8192, 8192),
    (5.0, 8192, 4096, 2048),
    (100.0, 1481, 740, 370),
    (700.0, 313, 156, 78),
])
def test_block_rows_follow_the_flash_cells(rate, lab, moving, flashes):
    # a block's rows come from the Poisson tables' lengths under params (16
    # flash cells per row at rate 0.02, 72 at 5, 398 at 100, 1,880 at 700),
    # halved where the sweep reads positions and halved again on the flash
    # path, up to 8,192 rows, so that a block's memory stays bounded at
    # every accepted rate
    params = ModelParams(flash_rate=rate)

    def rows(model, frames, every_flash=False):
        requests = [EnsembleRequest([SettingPair(0.4, 1.3)], Frame(chi), 10_000, 3)
                    for chi in frames]
        return [req.size for _, req, _, _ in _blocks(model, requests, params, every_flash)]

    for model in ModelId:
        assert rows(model, [0.0])[0] == lab
        assert rows(model, [0.0], every_flash=True)[0] == flashes
    # one moving frame makes the whole sweep read positions, except under
    # preferred_frame, which processes in the lab frame
    assert rows(ModelId.RGRWF, [0.0, 0.5])[:2] == [moving, moving]
    assert rows(ModelId.LOCAL_HV, [0.5])[0] == moving
    assert rows(ModelId.PREFERRED_FRAME, [0.0, 0.5])[0] == lab


@st.composite
def model_params(draw, rates=st.floats(0.05, 12.0)):
    t_min = draw(st.floats(-2.0, 2.0))
    span_a = draw(st.floats(0.1, 2.0))
    span_b = draw(st.floats(0.1, 2.0))
    t_b = t_min + draw(st.floats(-1.0, 1.0))
    x_a = draw(st.floats(-20.0, 0.0))
    width_a = draw(st.floats(0.1, 2.0))
    # B starts further right than any light signal from A can reach in time
    reach = max(t_min + span_a, t_b + span_b) - min(t_min, t_b)
    x_b = x_a + width_a + reach + draw(st.floats(0.1, 5.0))
    regions = (
        Region(t_min, t_min + span_a, x_a, x_a + width_a),
        Region(t_b, t_b + span_b, x_b, x_b + draw(st.floats(0.1, 2.0))),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return ModelParams(
        state=random_pure_state(np.random.default_rng(seed)),
        flash_rate=draw(rates),
        epsilon=draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.1))])),
        regions=regions,
    )


@settings(max_examples=25, deadline=None)
@given(
    model=st.sampled_from(list(ModelId)),
    params=model_params(),
    chi=st.floats(-3.0, 3.0),
    angles=st.tuples(*(st.floats(-7.0, 7.0) for _ in range(3))),
    master_seed=st.integers(0, 2**64 - 1),
)
def test_kernel_matches_scalar_property(model, params, chi, angles, master_seed):
    a, b1, b2 = angles
    assert_run_for_run(model, [(a, b1), (a, b2)], Frame(chi), params, 60, master_seed)


# --- flashes -----------------------------------------------------------------


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    model=st.sampled_from(list(ModelId)),
    # rates down to 1e-3 give blocks with no conclusive run and with no flash
    params=model_params(rates=st.floats(1e-3, 12.0)),
    chi=st.floats(-3.0, 3.0),
    angles=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
    master_seed=st.integers(0, 2**64 - 1),
)
def test_flash_blocks_match_scalar_property(model, params, chi, angles, master_seed):
    n, frame = 40, Frame(chi)
    flashes = FlashEnsemble(model, angles, frame, params, n, master_seed)
    blocks = list(flashes)
    got = [row for block in blocks for row in zip(*(field.tolist() for field in block[:7]))]
    want, cells = [], []
    for i in range(n):
        try:
            run = run_model(model, SettingPair(*angles), frame, mix_seed(master_seed, i), params,
                            record_trace=False)
        except InconclusiveRunError:
            cells.append(-1)
            continue
        cells.append(OUTCOME_CELLS.index((run.outcome.alpha, run.outcome.beta)))
        want += [(i, f.region, f.index, f.event.t, f.event.x,
                  boost_time(f.event.t, f.event.x, chi), f.channel) for f in run.flashes]
    assert got == want
    assert np.concatenate([block.cells for block in blocks]).tolist() == cells
    assert flashes.inconclusive == cells.count(-1)
    assert flashes.joint.tolist() == [cells.count(k) for k in range(len(OUTCOME_CELLS))]


@pytest.mark.parametrize("model", list(ModelId))
def test_block_with_no_conclusive_run_keeps_its_dtypes(tmp_path, model):
    def first_block(rate):
        params = ModelParams(flash_rate=rate)
        return next(iter(FlashEnsemble(model, (0.0, 1.0), Frame(0.0), params, n=10)))

    empty, full = first_block(1e-6), first_block(5.0)
    assert (empty.cells == -1).all() and empty.run_id.size == 0
    assert (full.cells >= 0).any() and full.run_id.size > 0
    assert [field.dtype for field in empty] == [field.dtype for field in full]
    path = tmp_path / "flashes.csv"
    assert write_flash_csv(path, [empty]) == 0
    assert path.read_bytes() == b"run_id,region,t_lab,x_lab,t_frame,channel,index\r\n"


# --- flash CSV ---------------------------------------------------------------

# a prime, so never a multiple of a block's rows; under small_blocks it spans
# five flash blocks at the default parameters
CSV_RUNS = 2161


def scalar_flash_csv(model, pair, frame, params, n, master_seed) -> bytes:
    """The flash CSV as written from the scalar runs' ExperimentRun.flashes
    with csv.writer, before the kernel wrote it."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["run_id", "region", "t_lab", "x_lab", "t_frame", "channel", "index"])
    for i in range(n):
        try:
            run = run_model(model, pair, frame, mix_seed(master_seed, i), params,
                            record_trace=False)
        except InconclusiveRunError:
            continue
        for flash in run.flashes:
            writer.writerow([
                i,
                flash.region,
                repr(flash.event.t),
                repr(flash.event.x),
                repr(boost_time(flash.event.t, flash.event.x, frame.rapidity)),
                flash.channel,
                flash.index,
            ])
    return out.getvalue().encode()


def first_flash_tally(model, csv_bytes: bytes, n: int):
    """Outcome counts and inconclusive total read off the CSV: a run's
    outcome is the channel of each region's first flash in processing
    order, which is the report order unless the model decides in the lab
    frame."""
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    by_run: dict[int, list] = {}
    for row in rows:
        by_run.setdefault(int(row["run_id"]), []).append(row)
    counts = dict.fromkeys(("++", "+-", "-+", "--"), 0)
    for flashes in by_run.values():
        if model is ModelId.PREFERRED_FRAME:
            flashes = sorted(flashes, key=lambda r: (float(r["t_lab"]), r["region"],
                                                     int(r["index"])))
        first = {}
        for row in flashes:
            first.setdefault(row["region"], int(row["channel"]))
        counts["+-"[first["A"] < 0] + "+-"[first["B"] < 0]] += 1
    return counts, n - len(by_run)


def assert_csv_matches_scalar(tmp_path, model, pair, chi, params, n, master_seed):
    state = " ".join(f"{z.real!r},{z.imag!r}" for z in params.state.amplitudes.tolist())
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[experiment]\nmodel = {model.value}\nstate = {state}\na = {pair[0]!r}\n"
        f"b = {pair[1]!r}\nframe = {chi!r}\nn = {n}\nmaster_seed = {master_seed}\n"
        f"flash_rate = {params.flash_rate!r}\nepsilon = {params.epsilon!r}\n"
    )
    assert main(["run", "--csv", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    got = (tmp_path / f"flashes_{model.value}.csv").read_bytes()
    want = scalar_flash_csv(model, SettingPair(*pair), Frame(chi), params, n, master_seed)
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        first = next(
            (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
            min(len(got_lines), len(want_lines)),
        )
        pytest.fail(
            f"{model.value}: CSV differs from line {first} "
            f"({len(got_lines)} lines, scalar {len(want_lines)})"
        )
    request = EnsembleRequest([pair], Frame(chi), n, master_seed)
    assert block_count(model, [request], params, every_flash=True) >= 2
    payload = json.loads((tmp_path / f"run_{model.value}.json").read_text())
    counts, inconclusive = first_flash_tally(model, got, n)
    assert payload["counts"] == counts
    assert payload["inconclusive"] == inconclusive


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("chi", [-0.7, 0.0, 1.0])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_flash_csv_matches_scalar(small_blocks, tmp_path, capsys, model, chi, epsilon):
    params = ModelParams(epsilon=epsilon)
    assert_csv_matches_scalar(tmp_path, model, (0.4, 1.3), chi, params, CSV_RUNS, 29)


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("rate", [0.7, 20.0])
def test_flash_csv_matches_scalar_complex_state_and_rates(small_blocks, tmp_path, capsys, model,
                                                          rate):
    params = ModelParams(
        state=random_pure_state(np.random.default_rng(11)), flash_rate=rate, epsilon=0.02
    )
    assert_csv_matches_scalar(tmp_path, model, (2.2, 0.9), -0.3, params, CSV_RUNS, 41)


# The collapse holds a state with no nonzero imaginary part as one plane
# of real parts, any other state as two planes: a real state, the singlet
# with every imaginary part -0.0 (one plane: -0.0 is not nonzero) and a real
# state with one imaginary part of 1e-12 (two planes) sit on either side.
_REAL = np.random.default_rng(13).normal(size=4)
_REAL /= np.linalg.norm(_REAL)
PLANE_STATES = {
    "real": PureState(_REAL),
    "singlet_minus_zero": PureState(
        np.array([complex(x, -0.0) for x in singlet().amplitudes.real])
    ),
    "tiny_imaginary": PureState(_REAL + [0, 0, 1e-12j, 0]),
}


def test_plane_states_straddle_the_boundary():
    states = {name: state.amplitudes for name, state in PLANE_STATES.items()}
    assert not states["real"].imag.any()
    assert not states["singlet_minus_zero"].imag.any()
    assert np.signbit(states["singlet_minus_zero"].imag).all()
    assert np.count_nonzero(states["tiny_imaginary"].imag) == 1


class ScriptedSource:
    """A uniform source that returns the given draws in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def uniform(self, label=""):
        return next(self._draws)


def test_tiny_imaginary_part_decides_a_channel():
    # at side A angle 0 the + channel has probability |1e-10j|^2 = 1e-20, so
    # the draw 5e-21 gives +1 only if the collapse keeps the imaginary part,
    # which no magnitude threshold between 1e-10 and 1 would do
    params = ModelParams(state=PureState(np.array([1e-10j, 0, math.sqrt(0.5), math.sqrt(0.5)])))
    # one flash per region (at mean 5, 0.02 draws a count of 1): A at
    # t = 0.1, then B at t = 0.9
    pattern = (0.02, 0.1, 0.5, 0.02, 0.9, 0.5)
    draws = (5e-21, 0.5)
    run = models._simulate_run(ModelId.RGRWF, ScriptedSource(pattern + draws), (0.0, 0.0),
                               Frame(0.0), params, False)
    trig = np.array([[[1.0], [0.0]]] * 2)  # cos and sin of half of each angle 0
    plus = models._collapse(params, trig, np.array([[True], [False]]),
                            np.array(draws)[:, None], [1, 1])
    assert run.outcome.alpha == 1
    assert (run.outcome.alpha, run.outcome.beta) == tuple(np.where(plus[:, 0], 1, -1))


@pytest.mark.parametrize("model", [ModelId.RGRWF, ModelId.PREFERRED_FRAME])
@pytest.mark.parametrize("state", list(PLANE_STATES))
def test_kernel_matches_scalar_either_side_of_one_plane(model, state):
    params = ModelParams(state=PLANE_STATES[state], epsilon=0.02)
    assert_run_for_run(model, [(2.2, 0.9), (5.0, 0.9)], Frame(0.8), params, 2000, 23)


@pytest.mark.parametrize("model", [ModelId.RGRWF, ModelId.PREFERRED_FRAME])
@pytest.mark.parametrize("state", list(PLANE_STATES))
def test_flash_csv_matches_scalar_either_side_of_one_plane(small_blocks, tmp_path, capsys, model,
                                                           state):
    params = ModelParams(state=PLANE_STATES[state], epsilon=0.02)
    assert_csv_matches_scalar(tmp_path, model, (2.2, 0.9), -0.3, params, CSV_RUNS, 41)


def test_flash_csv_at_rate_700_is_the_same_in_one_block(tmp_path, monkeypatch):
    # 200 runs at flash rate 700 take three 78-row flash blocks; with a
    # budget that holds them all in one block, the CSV is byte for byte the
    # same
    def csv_bytes(name):
        ensemble = FlashEnsemble(ModelId.RGRWF, (0.4, 1.3), Frame(1.0),
                                 ModelParams(flash_rate=700.0), n=200, master_seed=29)
        blocks = list(ensemble)
        write_flash_csv(tmp_path / name, blocks)
        return [block.cells.size for block in blocks], (tmp_path / name).read_bytes()

    rows, blocked = csv_bytes("blocks.csv")
    assert rows == [78, 78, 44]
    monkeypatch.setattr(models, "_BLOCK_CELLS", 1 << 62)
    rows, single = csv_bytes("single.csv")
    assert rows == [200]
    assert single == blocked


@pytest.mark.parametrize("make", [
    lambda: ensembles(ModelId.RGRWF, [EnsembleRequest([(0.0, 1.0)], Frame(0.0), -1, 0)]),
    lambda: FlashEnsemble(ModelId.RGRWF, (0.0, 1.0), Frame(0.0), n=-1),
], ids=["ensembles", "FlashEnsemble"])
def test_negative_n_is_rejected(make):
    with pytest.raises(ValueError, match="n must be >= 0"):
        make()


# --- the counts path's closed form at epsilon = 0 ------------------------------

U = 2.0**-53  # the unit roundoff of models._closed_form's bound


class ScriptedStreams:
    """PCG64Streams.draw over the given (runs, width) uniforms."""

    def __init__(self, draws):
        self._draws = np.array(draws, dtype=float)

    def draw(self, lengths):
        return self._draws[:, : int(lengths.max())]


def scripted_pattern(params, first, k):
    """Pattern uniforms of a lab-frame run in which region ``first`` ("A"
    or "B") has k flashes, all before the other region's one flash."""
    table = _poisson_cdf_table(params.flash_rate)  # the default regions last 1
    assert _poisson_inverse(table[k - 1], params.flash_rate) == k

    def region(n, late):
        times = [0.9] if late else [0.1 + 0.5 * i / n for i in range(n)]
        return [table[n - 1], *times, *[0.5] * n]

    if first == "A":
        return region(k, False) + region(1, True)
    return region(1, True) + region(k, False)


def scalar_p_plus(amplitudes, setting, rank):
    """The probability of +1 _simulate_run compares a side-``rank`` draw
    against, from the state before the step."""
    m00, m01, m10, m11 = (complex(z) for z in amplitudes)
    c, s = setting.cos_half, setting.sin_half
    if rank == 0:
        f0, f1 = c * m00 + s * m10, c * m01 + s * m11
    else:
        f0, f1 = m00 * c + m01 * s, m10 * c + m11 * s
    return (f0.real * f0.real + f0.imag * f0.imag) + (f1.real * f1.real + f1.imag * f1.imag)


@pytest.fixture
def replayed(monkeypatch):
    """The runs of each call of models._collapse_runs, the replay."""
    calls = []
    collapse_runs = models._collapse_runs

    def spy(params, cos, sin, side_a, steps, draws):
        calls.append(steps.size)
        return collapse_runs(params, cos, sin, side_a, steps, draws)

    monkeypatch.setattr(models, "_collapse_runs", spy)
    return calls


def closed_form_matches_scalar(params, pair, first, k, channel_draws):
    """The counts path's first channels of lab-frame runs in which region
    ``first`` has k flashes before the other's one, one run per row of
    ``channel_draws`` (k + 1 draws each), against _simulate_run's."""
    block = models._Patterns.__new__(models._Patterns)
    block.params = params
    block._streams = ScriptedStreams(channel_draws)
    block.conclusive = np.ones(len(channel_draws), dtype=bool)
    n = np.full(len(channel_draws), k)
    zero = np.zeros_like(n)
    cos = np.tile([[[pair.a.cos_half], [pair.b.cos_half]]], (1, 1, n.size))
    sin = np.tile([[[pair.a.sin_half], [pair.b.sin_half]]], (1, 1, n.size))
    plus_a, plus_b = block.first_channels(cos, sin, *((zero, n) if first == "A" else (n, zero)))
    pattern = scripted_pattern(params, first, k)
    for row, draws in enumerate(channel_draws):
        run = models._simulate_run(ModelId.RGRWF, ScriptedSource(pattern + list(draws)), pair,
                                   Frame(0.0), params, False)
        assert (plus_a[0, row], plus_b[0, row]) == (run.outcome.alpha > 0, run.outcome.beta > 0)


@pytest.mark.parametrize("first", ["A", "B"])
@pytest.mark.parametrize("k", [1, 3])
def test_closed_form_replays_at_the_collapse_probability(replayed, first, k):
    # L's draw at the probability the collapse compares it against, and an
    # ulp to either side: each run replays, and matches _simulate_run
    params, pair = ModelParams(), SettingPair(0.4, 1.3)
    rank_e, rank_l = (0, 1) if first == "A" else (1, 0)
    rows = []
    for u0 in (0.3, 0.8):
        draws = [u0] + [0.5] * (k - 1)
        run = models._simulate_run(ModelId.RGRWF, ScriptedSource(
            scripted_pattern(params, first, k) + draws + [0.5]), pair, Frame(0.0), params, True)
        p_l = scalar_p_plus(run.state_trace[k - 1].amplitudes, (pair.a, pair.b)[rank_l], rank_l)
        rows += [draws + [u] for u in (np.nextafter(p_l, 0.0), p_l, np.nextafter(p_l, 1.0))]
    closed_form_matches_scalar(params, pair, first, k, rows)
    assert replayed == [len(rows)]
    # E's first draw needs no band: at its probability and an ulp to either
    # side the closed form decides it, as the collapse does
    replayed.clear()
    p0 = scalar_p_plus(params.state.amplitudes, (pair.a, pair.b)[rank_e], rank_e)
    rows = [[u] + [0.5] * k for u in (np.nextafter(p0, 0.0), p0, np.nextafter(p0, 1.0))]
    closed_form_matches_scalar(params, pair, first, k, rows)
    assert replayed == []


@pytest.mark.parametrize("first", ["A", "B"])
def test_closed_form_replays_a_repeat_at_the_edge(replayed, first):
    # a repeat of E's channel at 1 - 2^-53 on channel +1, and at 0.0 on
    # channel -1, where the collapse's probability is within rounding of 1
    # or of 0
    params, pair = ModelParams(state=random_pure_state(np.random.default_rng(3))), (2.2, 0.9)
    rows = [[0.0, 1.0 - 2.0**-53, 0.5, 0.5], [1.0 - 2.0**-53, 0.0, 0.5, 0.5],
            [0.0, 0.5, 1.0 - 2.0**-53, 0.5], [1.0 - 2.0**-53, 0.5, 0.0, 0.5]]
    closed_form_matches_scalar(params, SettingPair(*pair), first, 3, rows)
    assert replayed == [len(rows)]


def test_closed_form_replays_an_ill_conditioned_branch(replayed):
    # test_tiny_imaginary_part_decides_a_channel's state: A's + channel has
    # weight 1e-20, below _ETA, so a run that draws it replays
    params = ModelParams(state=PureState(np.array([1e-10j, 0, math.sqrt(0.5), math.sqrt(0.5)])))
    closed_form_matches_scalar(params, SettingPair(0.0, 0.0), "A", 1, [[5e-21, 0.5]])
    assert replayed == [1]
    closed_form_matches_scalar(params, SettingPair(0.0, 0.0), "A", 1, [[0.5, 0.3]])
    assert replayed == [1]


@pytest.mark.parametrize("model", [ModelId.RGRWF, ModelId.PREFERRED_FRAME])
@pytest.mark.parametrize("state", ["singlet", "complex"])
def test_kernel_matches_scalar_with_a_wide_band(monkeypatch, replayed, model, state):
    # with _DELTA at 0.25 most runs replay and the rest are decided in
    # closed form, side by side in each block
    monkeypatch.setattr(models, "_DELTA", 0.25)
    params = ModelParams() if state == "singlet" else ModelParams(
        state=random_pure_state(np.random.default_rng(5)))
    assert_run_for_run(model, [(0.4, 1.3), (0.4, 2.9)], Frame(0.3), params, 2000, 43)
    assert 1000 < sum(replayed) < 2000


@pytest.mark.parametrize("model", [ModelId.RGRWF, ModelId.PREFERRED_FRAME])
@pytest.mark.parametrize("chi", [-1.0, 0.0, 1.0])
def test_zero_weight_branch_does_not_warn(model, chi):
    # |00> at angle 0 gives E's -1 channel weight 0, whose Born conditional
    # the tables leave at 0 without dividing (tier-1 turns a warning into a
    # failure); angle pi gives the +1 channel weight 3.7e-33
    params = ModelParams(state=PureState(np.array([1.0, 0.0, 0.0, 0.0])))
    pairs = [(0.0, 0.0), (math.pi, 0.0), (0.0, math.pi)]
    assert_run_for_run(model, pairs, Frame(chi), params, 300, 7)


@st.composite
def states(draw):
    """Pure states, real (one plane) or complex, with exact zeros and tiny
    amplitudes among the generic ones."""
    part = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 1e-9, -1e-6]))
    amps = np.array([complex(draw(part), draw(part)) for _ in range(4)])
    if draw(st.booleans()):
        amps = amps.real.astype(complex)
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return PureState(amps / norm)


@settings(max_examples=40, deadline=None)
@given(
    state=states(),
    angles=st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
    first=st.sampled_from(["A", "B"]),
    plus=st.booleans(),
    k=st.integers(1, len(_poisson_cdf_table(models.MAX_FLASH_MEAN))),
)
def test_collapse_stays_within_the_closed_form_bound(state, angles, first, plus, k):
    # the bound of models._closed_form's docstring on the probabilities the
    # scalar collapse computes: each repeat's within 26u of 1 or 10u^2 of 0,
    # and L's within (16.4 / sqrt(P) + 16.3 (k - 1) + C) u of the table's
    params = ModelParams(state=state, flash_rate=models.MAX_FLASH_MEAN)
    table = _poisson_cdf_table(params.flash_rate)
    assume(bisect.bisect_right(table, table[k - 1]) == k)
    pair = SettingPair(*angles)
    rank_e, rank_l = (0, 1) if first == "A" else (1, 0)
    weight, cond = models._born_tables(
        state, np.array([[[pair.a.cos_half], [pair.b.cos_half]]]),
        np.array([[[pair.a.sin_half], [pair.b.sin_half]]]))
    p, q = weight[0, rank_e, 1 - plus, 0], cond[0, rank_e, 1 - plus, 0]
    assume(p >= models._ETA)
    u0 = 0.0 if plus else 1.0 - 2.0**-53
    run = models._simulate_run(ModelId.RGRWF, ScriptedSource(
        scripted_pattern(params, first, k) + [u0] + [0.5] * k), pair, Frame(0.0), params, True)
    assert {f.channel for f in run.flashes if f.region == first} == {1 if plus else -1}
    settings_ = (pair.a, pair.b)
    for state_before in run.state_trace[: k - 1]:
        p_repeat = scalar_p_plus(state_before.amplitudes, settings_[rank_e], rank_e)
        assert abs(p_repeat - 1.0) <= 26 * U if plus else p_repeat <= 10 * U * U
    p_l = scalar_p_plus(run.state_trace[k - 1].amplitudes, settings_[rank_l], rank_l)
    c = 34 if state.amplitudes.imag.any() else 30
    assert abs(p_l - q) <= (16.4 / math.sqrt(p) + 16.3 * (k - 1) + c) * U
