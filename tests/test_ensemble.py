"""Differential tests: the vectorized ensemble kernel against the scalar
engine it reimplements, run for run, and its PCG64 streams against numpy.

The scalar ``_simulate_run`` (behind ``run_rgrwf`` and friends) is the
specification.  A failure here means some run's outcome changed, which
breaks the reproducibility contract even when every distribution test
still passes.  A numpy release that changes SeedSequence, PCG64 or
``Generator.random`` fails ``test_pcg64_streams_match_numpy``.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashlab.classify import classify
from flashlab.cli import main
from flashlab.minkowski import Frame, Region, boost_time, order_flip_rapidity
from flashlab.models import (
    _KERNEL_BLOCK,
    OUTCOME_CELLS,
    InconclusiveRunError,
    ModelId,
    EnsembleRequest,
    FlashEnsemble,
    ModelParams,
    _blocks,
    _kernel_block,
    _poisson_cdf_table,
    _poisson_inverse,
    _stack,
    ensemble,
    ensembles,
    run_local_hv,
    run_preferred_frame,
    run_rgrwf,
    write_flash_csv,
)
from flashlab.quantum import PureState, SettingPair
from flashlab.randomness import PCG64Streams, mix_seed, mix_seeds

RUNNERS = {
    ModelId.RGRWF: run_rgrwf,
    ModelId.PREFERRED_FRAME: run_preferred_frame,
    ModelId.LOCAL_HV: run_local_hv,
}
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def scalar_cells(model, pairs, frame, params, seeds) -> np.ndarray:
    """Per-run outcome cells from the scalar runner; -1 if inconclusive."""
    runner = RUNNERS[model]
    out = np.full((len(pairs), len(seeds)), -1)
    for i, seed in enumerate(seeds):
        for arm, pair in enumerate(pairs):
            try:
                outcome = runner(pair, frame, int(seed), params, record_trace=False).outcome
            except InconclusiveRunError:
                continue
            out[arm, i] = OUTCOME_CELLS.index((outcome.alpha, outcome.beta))
    return out


def assert_run_for_run(model, pairs, frame, params, n, master_seed):
    seeds = mix_seeds(master_seed, 0, n)
    request = EnsembleRequest([SettingPair(*p) for p in pairs], frame, n, master_seed)
    rows = _stack(model, [request]).take(np.zeros(n, dtype=np.intp))
    got = _kernel_block(model, rows, params, seeds)
    want = scalar_cells(model, [SettingPair(*p) for p in pairs], frame, params, seeds.tolist())
    mismatched = np.flatnonzero((got != want).any(axis=0))
    assert mismatched.size == 0, (
        f"{model.value}: {mismatched.size} of {n} runs differ, first at index "
        f"{mismatched[0]} (kernel {got[:, mismatched[0]]}, scalar {want[:, mismatched[0]]})"
    )


def random_state(rng) -> PureState:
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PureState(z / np.linalg.norm(z))


def test_mix_seeds_match_scalar():
    for master in (0, 1, 7, -3, 2**64 - 1, 2**70 + 5):
        assert mix_seeds(master, 0, 300).tolist() == [mix_seed(master, i) for i in range(300)]
    assert mix_seeds(9, 4090, 4100).tolist() == [mix_seed(9, i) for i in range(4090, 4100)]


def test_pcg64_streams_match_numpy():
    def reference(seeds, k):
        return np.array([np.random.Generator(np.random.PCG64(s)).random(k) for s in seeds])

    edge = PCG64Streams(np.array(EDGE_SEEDS, dtype=np.uint64))
    first, more = edge.random(5), edge.random(60)
    np.testing.assert_array_equal(np.hstack([first, more]), reference(EDGE_SEEDS, 65))
    seeds = [mix_seed(2024, i) for i in range(10_000)]
    got = PCG64Streams(np.array(seeds, dtype=np.uint64)).random(6)
    np.testing.assert_array_equal(got, reference(seeds, 6))


def test_pcg64_cursor_draws_and_skips_match_numpy():
    # each stream moves by exactly its own length, drawn or skipped; lengths
    # of 0, across the batch width (64 for 7 streams, 16 for 1,000) and
    # skips past 64 and 1,000 values
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
    ])
    rng = np.random.default_rng(12)
    steps = []
    for _ in range(6):
        steps.append(("draw", rng.integers(0, 40, 1000).tolist()))
        steps.append(("skip", rng.integers(0, 1500, 1000).tolist()))
    steps.append(("draw", rng.integers(0, 3, 1000).tolist()))
    check([mix_seed(77, i) for i in range(1000)], steps)


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
        state=random_state(np.random.default_rng(5)), flash_rate=rate, epsilon=0.02
    )
    assert_run_for_run(model, [(2.2, 0.9), (5.0, 0.9)], Frame(0.8), params, 2000, 23)


@pytest.mark.parametrize("model", list(ModelId))
def test_ensemble_counts_across_blocks(model):
    # 5000 runs span three kernel blocks; the joint table must equal the
    # scalar runs tallied one by one
    pairs = [SettingPair(0.0, 1.0), SettingPair(0.0, 2.0)]
    params = ModelParams(flash_rate=1.0)
    joint, inconclusive = ensemble(model, pairs, Frame(0.6), params, 5000, 77)
    want = scalar_cells(model, pairs, Frame(0.6), params, mix_seeds(77, 0, 5000).tolist())
    ok = want[0] >= 0
    expected = np.zeros((4, 4), dtype=np.int64)
    np.add.at(expected, (want[0, ok], want[1, ok]), 1)
    np.testing.assert_array_equal(joint, expected)
    assert inconclusive == int((~ok).sum()) > 0


@pytest.mark.parametrize("model", list(ModelId))
def test_kernel_reads_and_skips_match_scalar_in_mixed_blocks(model):
    # one sweep whose first block holds lab-frame runs, which skip their
    # positions, beside moving-frame runs, which read them (local_hv skips
    # both patterns everywhere); checked run for run, block by block.  At
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
    assert sum(r.n for r in requests) > _KERNEL_BLOCK
    got = [_kernel_block(model, rows, params, seeds) for _, _, rows, seeds in _blocks(model, requests)]
    got = np.hstack(got)
    want = np.hstack([
        scalar_cells(model, arms, r.frame, params, mix_seeds(r.master_seed, 0, r.n).tolist())
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


def test_ensembles_and_classify_reject_a_runner_callable():
    # a model is named by its ModelId (or its value); a scalar runner is
    # not a model handle, even one of a built-in model
    with pytest.raises(ValueError, match="is not a valid ModelId"):
        ensembles(run_rgrwf, [EnsembleRequest([(0.0, 1.0)], Frame(0.0), 10, 4)])
    with pytest.raises(ValueError, match="is not a valid ModelId"):
        ensemble(run_rgrwf, [(0.0, 1.0)], Frame(0.0), None, 10, 4)
    with pytest.raises(ValueError, match="is not a valid ModelId"):
        classify(run_rgrwf)


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_batch_matches_separate_calls(model, epsilon):
    # one and two arms, the order-flip frame among others, n = 1 and n on
    # both sides of a block boundary: every request of the stacked batch
    # gets exactly the counts of its own ensemble call
    params = ModelParams(epsilon=epsilon)
    flip = order_flip_rapidity(params.regions[0].center(), params.regions[1].center())
    requests = [
        EnsembleRequest([(0.0, 1.0)], Frame(0.0), 1, 3),
        EnsembleRequest([(0.4, 1.3), (0.4, 2.9)], flip, _KERNEL_BLOCK + 37, 5),
        EnsembleRequest([(2.2, 0.9)], Frame(-0.7), 300, 7),
        EnsembleRequest([(0.0, 0.0), (math.pi / 2, 0.0)], Frame(1.0), 1, 11),
        EnsembleRequest([(1.0, 5.0)], flip, _KERNEL_BLOCK - 5, 13),
        EnsembleRequest([(0.0, math.pi / 2), (0.0, 0.0)], Frame(-1.0), 700, 17),
        EnsembleRequest([(3.0, 0.5)], Frame(2.0), 450, 19),
    ]
    batch = ensembles(model, requests, params)
    assert len(batch) == len(requests)
    for request, (joint, inconclusive) in zip(requests, batch):
        want_joint, want_inconclusive = ensemble(
            model, request.arms, request.frame, params, request.n, request.master_seed
        )
        np.testing.assert_array_equal(joint, want_joint)
        assert joint.shape == (4,) * len(request.arms)
        assert inconclusive == want_inconclusive
        assert int(joint.sum()) + inconclusive == request.n


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
        Region("A", t_min, t_min + span_a, x_a, x_a + width_a),
        Region("B", t_b, t_b + span_b, x_b, x_b + draw(st.floats(0.1, 2.0))),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return ModelParams(
        state=random_state(np.random.default_rng(seed)),
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
            run = RUNNERS[model](SettingPair(*angles), frame, mix_seed(master_seed, i), params,
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
    assert flashes.counts == {cell: cells.count(k) for k, cell in enumerate(OUTCOME_CELLS)}


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

# spans two flash blocks and is not a multiple of the block size
CSV_RUNS = _KERNEL_BLOCK + 113


def scalar_flash_csv(model, pair, frame, params, n, master_seed) -> bytes:
    """The flash CSV as written from the scalar runs' ExperimentRun.flashes
    with csv.writer, before the kernel wrote it."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["run_id", "region", "t_lab", "x_lab", "t_frame", "channel", "index"])
    for i in range(n):
        try:
            run = RUNNERS[model](pair, frame, mix_seed(master_seed, i), params,
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
    payload = json.loads((tmp_path / f"run_{model.value}.json").read_text())
    counts, inconclusive = first_flash_tally(model, got, n)
    assert payload["counts"] == counts
    assert payload["inconclusive"] == inconclusive


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("chi", [-0.7, 0.0, 1.0])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
def test_flash_csv_matches_scalar(tmp_path, capsys, model, chi, epsilon):
    params = ModelParams(epsilon=epsilon)
    assert_csv_matches_scalar(tmp_path, model, (0.4, 1.3), chi, params, CSV_RUNS, 29)


@pytest.mark.parametrize("model", list(ModelId))
@pytest.mark.parametrize("rate", [0.7, 20.0])
def test_flash_csv_matches_scalar_complex_state_and_rates(tmp_path, capsys, model, rate):
    params = ModelParams(
        state=random_state(np.random.default_rng(11)), flash_rate=rate, epsilon=0.02
    )
    assert_csv_matches_scalar(tmp_path, model, (2.2, 0.9), -0.3, params, CSV_RUNS, 41)


@pytest.mark.parametrize("make", [
    lambda: ensemble(ModelId.RGRWF, [(0.0, 1.0)], Frame(0.0), n=-1),
    lambda: ensembles(ModelId.RGRWF, [EnsembleRequest([(0.0, 1.0)], Frame(0.0), -1, 0)]),
    lambda: FlashEnsemble(ModelId.RGRWF, (0.0, 1.0), Frame(0.0), n=-1),
], ids=["ensemble", "ensembles", "FlashEnsemble"])
def test_negative_n_is_rejected(make):
    with pytest.raises(ValueError, match="n must be >= 0"):
        make()
