"""Classifier tests: the verdict table, each test's failure modes, report
shape, and estimator behavior."""

import dataclasses
import math

import numpy as np
import pytest

from flashlab.classify import (
    ClassifyConfig,
    _effective_causality_verdict,
    _effective_locality_verdict,
    _flip_plan,
    _locality_plan,
    _no_signalling_plan,
    _qf_plan,
    classify,
    collect_samples,
    default_frames_probe,
    paired_flip_fraction,
    test_effective_causality as eff_causality_test,
    test_effective_locality as eff_locality_test,
    test_locality as locality_test,
    test_no_signalling as no_signalling_test,
    test_qf as qf_test,
)
from flashlab.minkowski import Frame
from flashlab.models import (
    OUTCOME_CELLS,
    InconclusiveRunError,
    ModelId,
    ModelParams,
    _coerce_pair,
    ensembles,
    run_local_hv,
    run_preferred_frame,
    run_rgrwf,
)
from flashlab.quantum import Outcome, SettingPair, born_joint
from flashlab.randomness import mix_seed
from flashlab.stats import chi2_gof

FAST = ClassifyConfig(master_seed=97, n_qf=1200, n_nosig=2000, n_locality=2000, n_eff=800)

EXPECTED_ROWS = {
    ModelId.RGRWF: {
        "qf_agreement": "pass",
        "no_signalling": "pass",
        "locality": "fail",
        "effective_locality": "pass",
        "effective_causality": "pass",
    },
    ModelId.PREFERRED_FRAME: {
        "qf_agreement": "pass",
        "no_signalling": "pass",
        "locality": "fail",
        "effective_locality": "fail",
        "effective_causality": "fail",
    },
    ModelId.LOCAL_HV: {
        "qf_agreement": "fail",
        "no_signalling": "pass",
        "locality": "pass",
        "effective_locality": "pass",
        "effective_causality": "pass",
    },
}


@pytest.fixture(scope="module")
def reports():
    return {model: classify(model, config=FAST) for model in EXPECTED_ROWS}


def test_classification_rows(reports):
    for model, expected in EXPECTED_ROWS.items():
        assert reports[model].verdicts() == expected, model


def test_locality_pass_implies_effective_locality_pass(reports):
    for report in reports.values():
        verdicts = report.verdicts()
        if verdicts["locality"] == "pass":
            assert verdicts["effective_locality"] == "pass"


def test_report_json_shape(reports):
    payload = reports[ModelId.RGRWF].to_json_dict()
    assert set(payload) == {"model", "params_digest", "tests", "seeds", "n"}
    assert payload["model"] == "rgrwf"
    assert len(payload["tests"]) == 5
    for entry in payload["tests"]:
        assert set(entry) == {"name", "statistic", "threshold", "p_bound", "verdict"}


def test_classify_deterministic():
    cfg = ClassifyConfig(master_seed=5, n_qf=400, n_nosig=500, n_locality=500, n_eff=300)
    r1 = classify(ModelId.LOCAL_HV, config=cfg)
    r2 = classify(ModelId.LOCAL_HV, config=cfg)
    assert r1.to_json_dict() == r2.to_json_dict()


SCALAR_RUNNERS = {
    ModelId.RGRWF: run_rgrwf,
    ModelId.PREFERRED_FRAME: run_preferred_frame,
    ModelId.LOCAL_HV: run_local_hv,
}


def scalar_counts(runner, requests, params) -> list[tuple[np.ndarray, int]]:
    """The (joint, n_inconclusive) that ensembles() gives each request,
    tallied run by run through a scalar runner; a run is dropped at its
    first inconclusive arm."""
    results = []
    for request in requests:
        joint = np.zeros((len(OUTCOME_CELLS),) * len(request.arms), dtype=np.int64)
        for i in range(request.n):
            seed = mix_seed(request.master_seed, i)
            try:
                runs = [runner(_coerce_pair(pair), request.frame, seed, params, record_trace=False)
                        for pair in request.arms]
            except InconclusiveRunError:
                continue
            joint[tuple(OUTCOME_CELLS.index((r.outcome.alpha, r.outcome.beta)) for r in runs)] += 1
        results.append((joint, request.n - int(joint.sum())))
    return results


@pytest.mark.parametrize("master_seed", [3, 11])
@pytest.mark.parametrize("model", list(ModelId))
def test_classify_matches_tests_one_by_one(model, master_seed):
    # classify() runs the five tests' requests as two stacked sweeps; each
    # result, details included, must be what the test gives on its own, and
    # the kernel's counts for each of the tests' requests must be the
    # scalar runner's, run by run
    config = ClassifyConfig(master_seed=master_seed, n_qf=60, n_nosig=80, n_locality=100,
                            n_eff=40)
    params = ModelParams()
    report = classify(model, params, config)
    seeds = report.seeds
    frames = default_frames_probe(params)
    alone = [
        qf_test(model, params, config.qf_grid, config.n_qf, seeds["qf_agreement"]),
        no_signalling_test(model, params, config.n_nosig, seeds["no_signalling"]),
        locality_test(model, params, config.n_locality, seeds["locality"]),
        eff_locality_test(model, params, frames, config.n_eff, seeds["effective_locality"]),
        eff_causality_test(model, params, frames, config.n_eff, seeds["effective_causality"]),
    ]
    for result in alone:
        got = report.results[result.name]
        assert (got, got.details) == (result, result.details), result.name
    plans = [
        _qf_plan(params, config.qf_grid, config.n_qf, seeds["qf_agreement"]),
        _no_signalling_plan(config.n_nosig, seeds["no_signalling"]),
        _locality_plan(config.n_locality, seeds["locality"]),
        _flip_plan(params, frames, config.n_eff, seeds["effective_locality"], 0,
                   _effective_locality_verdict),
        _flip_plan(params, frames, config.n_eff, seeds["effective_causality"], 1000,
                   _effective_causality_verdict),
    ]
    for plan in plans:
        kernel = ensembles(model, plan.requests, params)
        scalar = scalar_counts(SCALAR_RUNNERS[model], plan.requests, params)
        for request, (joint, dropped), (want, want_dropped) in zip(plan.requests, kernel, scalar):
            np.testing.assert_array_equal(joint, want, err_msg=str(request))
            assert dropped == want_dropped, request


def test_sample_and_probe_helpers_match_the_battery():
    # collect_samples and paired_flip_fraction are one cell and one probe
    # of the battery, with the seeds classify() derives for them
    model, params = ModelId.PREFERRED_FRAME, ModelParams()
    config = ClassifyConfig(master_seed=5, n_qf=60, n_nosig=80, n_locality=100, n_eff=40)
    report = classify(model, params, config)
    pair = SettingPair(*config.qf_grid[1])
    sample = collect_samples(model, params, pair, Frame(0.0), config.n_qf,
                             mix_seed(report.seeds["qf_agreement"], 1))
    expected = born_joint(params.state, pair)
    p_value = chi2_gof([sample.counts[c] for c in OUTCOME_CELLS],
                       [expected[c] for c in OUTCOME_CELLS]).p_value
    assert p_value == report.results["qf_agreement"].details["p_values"][1]
    seed = report.seeds["effective_causality"]
    probes = report.results["effective_causality"].details["probes"]
    assert sum(p["flips"] for p in probes) > 0
    for k, probe in enumerate(probes):
        assert paired_flip_fraction(model, params, probe["frame"], probe["earlier"], config.n_eff,
                                    mix_seed(seed, 1000 + k)) == probe


def _signalling_toy(settings, frame, seed, params=None, record_trace=True):
    """Deliberately signalling model: alpha is set by B's field direction."""
    run = run_local_hv(settings, frame, seed, params, record_trace)
    alpha = 1 if settings.b.angle > math.pi / 2 else -1
    return dataclasses.replace(run, outcome=Outcome(alpha, run.outcome.beta))


def test_no_signalling_catches_toy_model():
    params = ModelParams()
    plan = _no_signalling_plan(n=800, master_seed=13)
    result = plan.verdict(scalar_counts(_signalling_toy, plan.requests, params))
    assert result.verdict == "fail"
    honest = no_signalling_test(ModelId.RGRWF, params, n=800, master_seed=13)
    assert honest.verdict == "pass"


def test_qf_fails_local_model_on_tsirelson_grid():
    params = ModelParams()
    a, a_p, b, b_p = 0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4
    grid = [(a, b), (a, b_p), (a_p, b), (a_p, b_p)]
    result = qf_test(ModelId.LOCAL_HV, params, grid, n=1500, master_seed=29)
    assert result.verdict == "fail"


def test_locality_verdicts():
    params = ModelParams()
    res = locality_test(ModelId.RGRWF, params, n=2000, master_seed=31)
    assert res.verdict == "fail"
    assert res.statistic == pytest.approx(2 * math.sqrt(2), abs=0.15)
    res = locality_test(ModelId.LOCAL_HV, params, n=2000, master_seed=31)
    assert res.verdict == "pass"
    assert res.statistic == pytest.approx(1.0, abs=0.15)


def test_effective_tests_need_both_orderings():
    params = ModelParams()
    one_sided = (Frame(0.5), Frame(1.0))  # B-first only
    with pytest.raises(ValueError, match="both ways"):
        eff_locality_test(ModelId.RGRWF, params, one_sided, n=50, master_seed=1)
    with pytest.raises(ValueError, match="both ways"):
        eff_causality_test(ModelId.RGRWF, params, one_sided, n=50, master_seed=1)


def _blind_at_half(settings, frame, seed, params=None, record_trace=True):
    """preferred_frame, except that every run in frame 0.5 is inconclusive."""
    if frame.rapidity == 0.5:
        raise InconclusiveRunError(("A", "B"), ())
    return run_preferred_frame(settings, frame, seed, params, record_trace)


def test_probe_without_conclusive_pairs_is_skipped():
    # The frame-0.5 probe has no conclusive pair, so its fraction is NaN.
    # It comes first in its direction and first overall, where a fold that
    # let NaN through would return it; both statistics skip it instead.
    params = ModelParams()
    frames = (Frame(0.5), Frame(1.0), Frame(-0.5), Frame(-1.0))

    def run_blind(first_index, verdict):
        plan = _flip_plan(params, frames, 60, 3, first_index, verdict)
        return plan.verdict(scalar_counts(_blind_at_half, plan.requests, params))

    loc = run_blind(0, _effective_locality_verdict)
    assert math.isnan(loc.details["probes"][0]["fraction"])
    assert loc.details["directions"] == {"A->B": 13 / 58, "B->A": 13 / 60}
    assert (loc.statistic, loc.verdict) == (13 / 58, "inconclusive")
    causal = run_blind(1000, _effective_causality_verdict)
    assert [(p["flips"], p["pairs"], p["dropped"]) for p in causal.details["probes"]] == [
        (0, 0, 60), (12, 59, 1), (8, 58, 2), (17, 60, 0)
    ]
    assert (causal.statistic, causal.verdict) == (17 / 60, "inconclusive")


def test_default_frames_probe_orders_both_ways():
    params = ModelParams()
    frames = default_frames_probe(params)
    from flashlab.minkowski import region_frame_order

    orders = {region_frame_order(*params.regions, f) for f in frames}
    assert {"A", "B"} <= orders


def test_preferred_frame_flips_in_reversed_frames():
    params = ModelParams()
    frames = default_frames_probe(params)
    res = eff_causality_test(ModelId.PREFERRED_FRAME, params, frames, n=400, master_seed=41)
    assert res.verdict == "fail"
    assert res.statistic > 0.05  # a sizeable flip fraction, not a fluke
    res = eff_causality_test(ModelId.RGRWF, params, frames, n=400, master_seed=41)
    assert res.verdict == "pass"
    assert res.statistic == 0.0


def test_chsh_standard_error_scaling():
    # the standard error of the CHSH estimator scales as n^(-1/2)
    params = ModelParams()
    ses = {}
    for n in (1_000, 10_000, 100_000):
        ses[n] = locality_test(ModelId.RGRWF, params, n, master_seed=59).details["se"]
    for n_small, n_big in ((1_000, 10_000), (10_000, 100_000)):
        ratio = ses[n_small] / ses[n_big]
        expected = math.sqrt(n_big / n_small)
        assert expected / 2 < ratio < expected * 2
