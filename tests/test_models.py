"""Model runner tests: reproducibility, flash structure, distributions."""

import math

import numpy as np
import pytest

from flashlab.minkowski import Frame, Region, boost_time
from flashlab.models import (
    DEFAULT_REGION_A,
    DEFAULT_REGION_B,
    FlashEnsemble,
    InconclusiveRunError,
    ModelId,
    ModelParams,
    EnsembleRequest,
    _lhv_channel,
    _lhv_plus,
    _poisson_inverse,
    ensembles,
    lhv_correlator,
    run_model,
    write_flash_csv,
)
from flashlab.quantum import SettingPair, born_joint, collapse, singlet
from flashlab.randomness import mix_seed
from flashlab.stats import chi2_gof, chi2_homogeneity

LAB = Frame(0.0)
CELLS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _counts(model, settings, frame, n, master_seed, params=None):
    """The ensembles counts (joint, n_inconclusive) of one settings pair."""
    return ensembles(model, [EnsembleRequest((settings,), frame, n, master_seed)], params)[0]


def _correlator(joint) -> float:
    """E(alpha beta) over the conclusive runs of a one-arm joint table."""
    pp, pm, mp, mm = joint.tolist()
    return (pp - pm - mp + mm) / (pp + pm + mp + mm)


def _runs(model, settings, frame, n, master_seed, **kwargs):
    for i in range(n):
        try:
            yield run_model(model, settings, frame, mix_seed(master_seed, i), **kwargs)
        except InconclusiveRunError:
            continue


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(flash_rate=0.0)
    with pytest.raises(ValueError):
        ModelParams(epsilon=0.2)
    with pytest.raises(ValueError):
        ModelParams(regions=(Region(0, 1, 0, 1), Region(0, 1, 1.5, 2.5)))


@pytest.mark.parametrize("rate", [760.0, math.inf, math.nan])
def test_params_reject_runaway_flash_rate(rate):
    # above a mean of 708 flashes exp(-mean) is no longer a normal double
    # and the Poisson inversion used to loop for ever
    with pytest.raises(ValueError, match="flash_rate"):
        ModelParams(flash_rate=rate)


def test_params_bound_flash_mean_per_region():
    ModelParams(flash_rate=700.0)
    wide_a = Region(0.0, 2.0, -11.0, -10.0)
    far_b = Region(0.0, 1.0, 20.0, 21.0)
    ModelParams(flash_rate=354.0, regions=(wide_a, far_b))
    with pytest.raises(ValueError, match="region A"):
        ModelParams(flash_rate=400.0, regions=(wide_a, far_b))


def test_poisson_inverse_stops_when_the_term_underflows():
    # at this mean the partial sums settle below 1 - 1e-15, so the largest
    # uniform never met the old stopping rule
    assert _poisson_inverse(1.0 - 2**-53, 16.223781689084454) > 40


def test_equal_settings_always_anticorrelated():
    for run in _runs(ModelId.RGRWF, (0.7, 0.7), LAB, 300, 5):
        assert run.outcome.alpha == -run.outcome.beta


def test_bit_identical_reproducibility():
    for model in ModelId:
        r1 = run_model(model, (0.3, 1.1), Frame(0.4), 991)
        r2 = run_model(model, (0.3, 1.1), Frame(0.4), 991)
        assert r1.outcome == r2.outcome
        assert r1.flashes == r2.flashes
        assert all(
            (s1.amplitudes == s2.amplitudes).all()
            for s1, s2 in zip(r1.state_trace, r2.state_trace)
        )


def test_run_model_requires_a_seed():
    # PCG64 seeded with None draws from the operating system's entropy,
    # so such a run could not be replayed
    for model in ModelId:
        with pytest.raises(ValueError, match="needs a seed"):
            run_model(model, (0.0, 1.0), LAB, None)


def test_channel_persistence_within_region():
    for run in _runs(ModelId.RGRWF, (0.2, 2.0), Frame(0.8), 200, 17):
        for region in ("A", "B"):
            channels = {f.channel for f in run.flashes if f.region == region}
            assert len(channels) == 1


def test_outcome_matches_first_flash_channels():
    for run in _runs(ModelId.RGRWF, (0.0, 1.0), LAB, 100, 23):
        first = {}
        for f in run.flashes:  # flashes are reported in frame-time order
            first.setdefault(f.region, f.channel)
        assert run.outcome.alpha == first["A"]
        assert run.outcome.beta == first["B"]


def test_flashes_inside_regions_and_sorted():
    boxes = {"A": DEFAULT_REGION_A, "B": DEFAULT_REGION_B}
    chi = 0.6
    for run in _runs(ModelId.RGRWF, (0.0, 1.0), Frame(chi), 50, 29):
        times = [boost_time(f.event.t, f.event.x, chi) for f in run.flashes]
        assert times == sorted(times)
        for f in run.flashes:
            box = boxes[f.region]
            assert box.t_min <= f.event.t <= box.t_max
            assert box.x_min <= f.event.x <= box.x_max


def test_state_trace_follows_collapses():
    run = run_model(ModelId.RGRWF, (0.4, 1.3), LAB, 4242)
    assert len(run.state_trace) == len(run.flashes)
    # replay: the first snapshot is the initial state collapsed by the
    # frame-earliest flash
    first = run.flashes[0]
    angle = 0.4 if first.region == "A" else 1.3
    expected = collapse(singlet(), first.region, angle, first.channel)
    np.testing.assert_allclose(
        run.state_trace[0].amplitudes, expected.amplitudes, atol=1e-12
    )


def test_preferred_frame_processes_in_lab_order():
    # in any requested frame, the first snapshot corresponds to the
    # lab-earliest flash, not the frame-earliest one
    frame = Frame(1.0)
    checked = 0
    for run in _runs(ModelId.PREFERRED_FRAME, (0.4, 1.3), frame, 50, 77):
        lab_first = min(run.flashes, key=lambda f: (f.event.t, f.region, f.index))
        angle = 0.4 if lab_first.region == "A" else 1.3
        expected = collapse(singlet(), lab_first.region, angle, lab_first.channel)
        np.testing.assert_allclose(
            run.state_trace[0].amplitudes, expected.amplitudes, atol=1e-12
        )
        checked += 1
    assert checked > 40


def test_rgrwf_joint_matches_born(n=30_000):
    pair = SettingPair(0.0, math.pi / 3)
    joint, _ = _counts(ModelId.RGRWF, pair, LAB, n, 101)
    expected = born_joint(singlet(), pair)
    res = chi2_gof(joint.tolist(), [expected[c] for c in CELLS])
    assert res.p_value > 1e-3


def test_preferred_frame_joint_matches_born(n=30_000):
    pair = SettingPair(0.0, math.pi / 3)
    joint, _ = _counts(ModelId.PREFERRED_FRAME, pair, Frame(0.7), n, 103)
    expected = born_joint(singlet(), pair)
    res = chi2_gof(joint.tolist(), [expected[c] for c in CELLS])
    assert res.p_value > 1e-3


def test_rgrwf_frame_covariance(n=25_000):
    pair = SettingPair(0.0, math.pi / 3)
    j0, _ = _counts(ModelId.RGRWF, pair, Frame(0.0), n, 7)
    j1, _ = _counts(ModelId.RGRWF, pair, Frame(1.0), n, 8)
    res = chi2_homogeneity(j0.tolist(), j1.tolist())
    assert res.p_value > 1e-3


def test_rgrwf_qf_grid(n=1_500):
    # chi-square goodness of fit over an angle grid, Bonferroni across cells
    angles = (0.0, math.pi / 4, math.pi / 2, 2.2)
    p_values = []
    for i, a in enumerate(angles):
        for k, b in enumerate(angles):
            pair = SettingPair(a, b)
            joint, _ = _counts(ModelId.RGRWF, pair, LAB, n, mix_seed(55, 10 * i + k))
            expected = born_joint(singlet(), pair)
            res = chi2_gof(joint.tolist(), [expected[c] for c in CELLS])
            p_values.append(res.p_value)
    assert min(p_values) * len(p_values) > 1e-3


def test_first_flash_balance(n=20_000):
    in_a = total = 0
    for run in _runs(ModelId.RGRWF, (0.0, 0.0), LAB, n, 31, record_trace=False):
        total += 1
        in_a += run.flashes[0].region == "A"
    frac = in_a / total
    assert 0.48 < frac < 0.52


def test_poisson_count_sanity(n=10_000):
    rate, span = 5.0, 1.0
    counts = []
    for i in range(n):
        try:
            run = run_model(ModelId.RGRWF, (0.0, 0.0), LAB, mix_seed(61, i), record_trace=False)
        except InconclusiveRunError as exc:
            run = None
            counts.append(sum(1 for f in exc.flashes if f.region == "A"))
            continue
        counts.append(sum(1 for f in run.flashes if f.region == "A"))
    mean = np.mean(counts)
    se = np.std(counts) / math.sqrt(len(counts))
    assert abs(mean - rate * span) < 3 * se + 1e-9


def test_local_hv_alpha_never_reads_b():
    for i in range(300):
        seed = mix_seed(71, i)
        try:
            r1 = run_model(ModelId.LOCAL_HV, (0.9, 0.1), LAB, seed, record_trace=False)
            r2 = run_model(ModelId.LOCAL_HV, (0.9, 2.7), LAB, seed, record_trace=False)
        except InconclusiveRunError:
            continue
        assert r1.outcome.alpha == r2.outcome.alpha


def test_local_hv_equal_settings_anticorrelated():
    for run in _runs(ModelId.LOCAL_HV, (1.5, 1.5), LAB, 300, 83):
        assert run.outcome.alpha == -run.outcome.beta


def test_local_hv_correlator_matches_analytic(n=30_000):
    for b in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        joint, _ = _counts(ModelId.LOCAL_HV, (0.0, b), LAB, n, 87)
        se = 2.0 / math.sqrt(joint.sum())
        e = lhv_correlator(0.0, b)
        assert abs(_correlator(joint) - e) < 4 * se
        # uniform marginals: the joint law is (1 + alpha beta E) / 4
        expected = [(1.0 + alpha * beta * e) / 4.0 for alpha, beta in CELLS]
        assert chi2_gof(joint.tolist(), expected).p_value >= 1e-3


def test_local_hv_chsh_within_local_bound(n=20_000):
    a, a_p, b, b_p = 0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4
    e = {}
    for i, (x, y) in enumerate([(a, b), (a, b_p), (a_p, b), (a_p, b_p)]):
        e[(x, y)] = _correlator(_counts(ModelId.LOCAL_HV, (x, y), LAB, n, mix_seed(91, i))[0])
    s = e[(a, b)] - e[(a, b_p)] + e[(a_p, b)] + e[(a_p, b_p)]
    assert abs(s) <= 2.0 + 0.02


def _near_a_sign_change():
    """(mechanism, theta, lam, arg) for 400 runs of each mechanism, whose
    cosine argument ``arg`` lies within 1e-12 of +-pi/2."""
    rng = np.random.default_rng(17)
    lam = 2.0 * math.pi * rng.random(400)
    offset = rng.uniform(-1e-12, 1e-12, 400)
    quarter = np.where(rng.random(400) < 0.5, math.pi / 2, -math.pi / 2)
    for mech, theta in ((0, lam + quarter + offset), (1, lam + (quarter + offset) / 2)):
        yield mech, theta, lam, theta - lam if mech == 0 else 2.0 * (theta - lam)


def _check_lhv_plus_near_a_sign_change():
    for mech, theta, lam, _ in _near_a_sign_change():
        mechanism = np.full(400, bool(mech))
        scalar = [_lhv_channel(t, l, mech) == 1 for t, l in zip(theta.tolist(), lam.tolist())]
        assert _lhv_plus(theta, lam, mechanism).tolist() == scalar


def test_lhv_plus_near_a_sign_change_matches_the_scalar_channel():
    # arguments where np.cos may differ from math.cos in the last bit and
    # the kernel redoes the value with math.cos
    for _, _, _, arg in _near_a_sign_change():
        assert np.all(np.abs(np.cos(arg)) < 1e-9)
    _check_lhv_plus_near_a_sign_change()


def test_lhv_plus_redoes_near_zero_cosines(monkeypatch):
    # an np.cos that gets the sign of every near-zero value wrong, as one
    # that differs from math.cos in the last bit may get some: the
    # math.cos redo must still give the scalar channel's decisions
    np_cos = np.cos

    def wrong_sign_cos(x):
        value = np_cos(x)
        return np.where(np.abs(value) < 1e-9, -value, value)

    monkeypatch.setattr(np, "cos", wrong_sign_cos)
    _check_lhv_plus_near_a_sign_change()


def test_ensembles_reproducible():
    j1, dropped1 = _counts(ModelId.RGRWF, (0.0, 1.0), LAB, 2000, 3)
    j2, dropped2 = _counts(ModelId.RGRWF, (0.0, 1.0), LAB, 2000, 3)
    assert j1.tolist() == j2.tolist()
    assert dropped1 == dropped2


def test_inconclusive_runs_counted_and_carried():
    # a tiny flash rate makes zero-flash regions overwhelmingly likely
    params = ModelParams(flash_rate=1e-9)
    with pytest.raises(InconclusiveRunError) as err:
        run_model(ModelId.RGRWF, (0.0, 0.0), LAB, 12, params)
    assert err.value.empty_labels
    # every run is counted as inconclusive, with no outcome in any cell;
    # `flashlab run` turns that into an error (tests/test_cli.py)
    joint, inconclusive = _counts(ModelId.RGRWF, (0.0, 0.0), LAB, 5, 1, params)
    assert joint.tolist() == [0, 0, 0, 0] and inconclusive == 5


def test_epsilon_softening_allows_channel_breaks():
    params = ModelParams(epsilon=0.1)
    broke = 0
    for run in _runs(ModelId.RGRWF, (0.0, 1.0), LAB, 400, 19, params=params):
        for region in ("A", "B"):
            channels = {f.channel for f in run.flashes if f.region == region}
            broke += len(channels) > 1
    assert broke > 0  # soft collapse leaves the other channel reachable


def test_write_flash_csv(tmp_path):
    path = tmp_path / "flashes.csv"
    runs = FlashEnsemble(ModelId.RGRWF, (0.0, 1.0), Frame(0.3), n=5, master_seed=43)
    rows = write_flash_csv(path, runs)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "run_id,region,t_lab,x_lab,t_frame,channel,index"
    assert len(lines) == rows + 1
    first = lines[1].split(",")
    assert first[1] in ("A", "B")
    t_lab, x_lab, t_frame = float(first[2]), float(first[3]), float(first[4])
    assert t_frame == pytest.approx(boost_time(t_lab, x_lab, 0.3), abs=1e-12)
