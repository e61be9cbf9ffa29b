"""Acceptance suite: one test per criterion, at the stated sample sizes
and tolerances, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines live.
"""

import math

import numpy as np

from flashlab.classify import ClassifyConfig, classify
from flashlab.determinism import (
    JanusRealization,
    chsh_of,
    enumerate_strategies,
    epr_filter,
    influence_witness_search,
    janus_run,
    past_influence_probe,
    wigner_check,
)
from flashlab.minkowski import Event, Frame, boost, interval, order_flip_rapidity
from flashlab.models import (
    EnsembleRequest,
    InconclusiveRunError,
    ModelId,
    ensembles,
    run_model,
)
from flashlab.quantum import (
    SettingPair,
    born_conditional,
    born_joint,
    born_marginal,
    collapse,
    random_pure_state,
)
from flashlab.randomness import mix_seed, random_bits
from flashlab.stats import chi2_gof, chi2_homogeneity

LAB = Frame(0.0)
CELLS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
CHSH_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
N = 100_000


def _counts(settings, frame, master_seed):
    """The ensembles counts (joint, n_inconclusive) of N rgrwf runs."""
    return ensembles(ModelId.RGRWF, [EnsembleRequest((settings,), frame, N, master_seed)])[0]


def _report(number, name, ok, detail):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_first_flash_balance():
    in_a = total = 0
    for i in range(N):
        try:
            run = run_model(ModelId.RGRWF, (0.0, 0.0), LAB, mix_seed(20260810, i),
                            record_trace=False)
            flashes = run.flashes
        except InconclusiveRunError as exc:
            flashes = exc.flashes
        if not flashes:
            continue
        total += 1
        in_a += flashes[0].region == "A"
    frac = in_a / total
    _report(1, "first-flash balance", 0.49 <= frac <= 0.51,
            f"P(first flash in A) = {frac:.4f} over {total} runs")


def test_criterion_02_qf_agreement():
    pair = SettingPair(0.0, math.pi / 3)
    joint, _ = _counts(pair, LAB, 102)
    expected = [0.125, 0.375, 0.375, 0.125]
    res = chi2_gof(joint.tolist(), expected)
    _report(2, "QF agreement", res.p_value >= 1e-3,
            f"chi2 = {res.statistic:.2f}, p = {res.p_value:.4f} vs (1/8, 3/8, 3/8, 1/8)")


def test_criterion_03_frame_covariance():
    pair = SettingPair(0.0, math.pi / 3)
    j0, _ = _counts(pair, Frame(0.0), 103)
    j1, _ = _counts(pair, Frame(1.0), 104)
    res = chi2_homogeneity(j0.tolist(), j1.tolist())
    _report(3, "frame covariance", res.p_value >= 1e-3,
            f"chi = 0 vs chi = 1 homogeneity p = {res.p_value:.4f}")


def test_criterion_04_nonlocality():
    a, a_p, b, b_p = CHSH_ANGLES
    e = {}
    for i, pair in enumerate([(a, b), (a, b_p), (a_p, b), (a_p, b_p)]):
        pp, pm, mp, mm = _counts(pair, LAB, mix_seed(105, i))[0].tolist()
        e[pair] = (pp - pm - mp + mm) / (pp + pm + mp + mm)
    s = e[(a, b)] - e[(a, b_p)] + e[(a_p, b)] + e[(a_p, b_p)]
    _report(4, "nonlocality", abs(s) >= 2.7,
            f"|CHSH| = {abs(s):.4f} (analytic 2*sqrt(2) = {2 * math.sqrt(2):.4f})")


def test_criterion_05_no_signalling():
    a, a_p, b, b_p = CHSH_ANGLES
    base = _counts((a, b), LAB, 106)[0].tolist()
    b_moved = _counts((a, b_p), LAB, 107)[0].tolist()
    a_moved = _counts((a_p, b), LAB, 108)[0].tolist()

    def marginal(counts, side):
        pp, pm, mp, mm = (c / sum(counts) for c in counts)
        if side == "A":
            return (pp + pm, mp + mm)
        return (pp + mp, pm + mm)

    def marg_counts(counts, side):
        pp, pm, mp, mm = counts
        if side == "A":
            return [pp + pm, mp + mm]
        return [pp + mp, pm + mm]

    disc_a = max(
        abs(x - y) for x, y in zip(marginal(base, "A"), marginal(b_moved, "A"))
    )
    disc_b = max(
        abs(x - y) for x, y in zip(marginal(base, "B"), marginal(a_moved, "B"))
    )
    p_a = chi2_homogeneity(marg_counts(base, "A"), marg_counts(b_moved, "A")).p_value
    p_b = chi2_homogeneity(marg_counts(base, "B"), marg_counts(a_moved, "B")).p_value
    disc = max(disc_a, disc_b)
    ok = disc < 0.02 and min(p_a, p_b) >= 1e-3
    _report(5, "no-signalling", ok,
            f"max marginal discrepancy = {disc:.4f}, homogeneity p >= {min(p_a, p_b):.4f}")


def test_criterion_06_classification_table():
    expected = {
        "rgrwf": ("pass", "pass", "fail", "pass", "pass"),
        "preferred_frame": ("pass", "pass", "fail", "fail", "fail"),
        "local_hv": ("fail", "pass", "pass", "pass", "pass"),
    }
    order = (
        "qf_agreement", "no_signalling", "locality",
        "effective_locality", "effective_causality",
    )
    failures = []
    for seed in (11, 22, 33, 44, 55):
        for model in (ModelId.RGRWF, ModelId.PREFERRED_FRAME, ModelId.LOCAL_HV):
            report = classify(model, config=ClassifyConfig(master_seed=seed))
            got = tuple(report.verdicts()[name] for name in order)
            if got != expected[model.value]:
                failures.append((seed, model.value, got))
    _report(6, "classification table", not failures,
            "3 models x 5 master seeds reproduce the expected verdict rows"
            if not failures else f"mismatches: {failures}")


def test_criterion_07_local_bound_certificate():
    maxima = {}
    pool = None
    for k in (0, 1, 2):
        strategies = enumerate_strategies(2, 2, k)
        maxima[k] = float(chsh_of(strategies).max())
        if k == 1:
            pool = strategies
    exact = all(m == 2.0 for m in maxima.values())
    rng = np.random.default_rng(777)
    worst_mix = -math.inf
    for _ in range(10_000):
        members = rng.choice(len(pool), size=4, replace=False)
        weights = rng.dirichlet(np.ones(4))
        worst_mix = max(worst_mix, float(weights @ chsh_of(pool[members])))
    ok = exact and worst_mix <= 2.0 + 1e-12
    _report(7, "local bound certificate", ok,
            f"max CHSH by k = {maxima}, max over 10^4 mixtures = {worst_mix:.12f}")


def test_criterion_08_epr_filter_and_wigner():
    theta = math.pi / 3
    common = (0.0, theta, 2 * theta)
    survivors = epr_filter(
        enumerate_strategies(3, 3, 0, settings_a=common, settings_b=common), common
    )
    report = wigner_check(survivors, theta)
    ok = (
        len(survivors) == 8
        and report.all_satisfied
        and abs(report.quantum_lhs - 3.0 / 8.0) < 1e-12
        and abs(report.quantum_rhs - 1.0 / 4.0) < 1e-12
        and report.quantum_lhs > report.quantum_rhs
    )
    _report(8, "EPR filter + Wigner", ok,
            f"{len(survivors)} survivors all satisfy the inequality; "
            f"quantum {report.quantum_lhs:.4f} > {report.quantum_rhs:.4f} violates")


def test_criterion_09_janus_asymmetry():
    j = JanusRealization(LAB)
    rng = np.random.default_rng(909)
    counts = dict.fromkeys(CELLS, 0)
    for _ in range(N):
        bits = random_bits(rng, j.bit_budget)
        try:
            run = janus_run(j, (0.0, math.pi / 3), bits, record_trace=False)
        except InconclusiveRunError:
            continue
        counts[(run.outcome.alpha, run.outcome.beta)] += 1
    joint, _ = _counts((0.0, math.pi / 3), LAB, 909)
    res = chi2_homogeneity([counts[c] for c in CELLS], joint.tolist())
    faithful = res.p_value >= 1e-3

    native_witness = influence_witness_search(j, j.native_frame, 10_000, master_seed=910)
    ra, rb = j.params.regions
    flip = order_flip_rapidity(ra.center(), rb.center())
    flipped_witness = past_influence_probe(j, flip, 1_000, master_seed=911)
    ok = faithful and native_witness is None and flipped_witness is not None
    _report(9, "Janus asymmetry", ok,
            f"distribution p = {res.p_value:.4f}; native witness: "
            f"{native_witness is None and 'none in 10^4 samples'}; "
            f"flipped witness found: {flipped_witness is not None}")


def test_criterion_10_analytic_micro_suite():
    rng = np.random.default_rng(1010)
    worst_quantum = 0.0
    worst_geometry = 0.0
    for _ in range(1000):
        state = random_pure_state(rng)
        pair = SettingPair(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        joint = born_joint(state, pair)
        worst_quantum = max(worst_quantum, abs(sum(joint.values()) - 1.0))
        marg_a = born_marginal(state, "A", pair.a)
        marg_b = born_marginal(state, "B", pair.b)
        for alpha, p_alpha in zip((1, -1), marg_a):
            if p_alpha < 1e-9:
                continue
            cond = born_conditional(state, pair, "A", alpha)
            collapsed = collapse(state, "A", pair.a, alpha)
            worst_quantum = max(worst_quantum, abs(collapsed.norm() - 1.0))
            for beta, p_beta in zip((1, -1), cond):
                # chain rule
                worst_quantum = max(
                    worst_quantum, abs(joint[(alpha, beta)] - p_alpha * p_beta)
                )
        # conditioning symmetry: both factorizations rebuild the joint
        for beta, p_beta in zip((1, -1), marg_b):
            if p_beta < 1e-9:
                continue
            cond = born_conditional(state, pair, "B", beta)
            for alpha, p_alpha_given in zip((1, -1), cond):
                worst_quantum = max(
                    worst_quantum,
                    abs(joint[(alpha, beta)] - p_beta * p_alpha_given),
                )

        e1 = Event(rng.uniform(-10, 10), rng.uniform(-10, 10))
        e2 = Event(rng.uniform(-10, 10), rng.uniform(-10, 10))
        chi1, chi2 = rng.uniform(-3, 3, size=2)
        once = boost(boost(e1, Frame(chi1)), Frame(chi2))
        combined = boost(e1, Frame(chi1 + chi2))
        worst_geometry = max(
            worst_geometry, abs(once.t - combined.t), abs(once.x - combined.x)
        )
        f = Frame(chi1)
        worst_geometry = max(
            worst_geometry,
            abs(interval(boost(e1, f), boost(e2, f)) - interval(e1, e2))
            / max(1.0, abs(interval(e1, e2))),
        )
    ok = worst_quantum < 1e-12 and worst_geometry < 1e-9
    _report(10, "analytic micro-suite", ok,
            f"worst quantum deviation {worst_quantum:.2e} (tol 1e-12), "
            f"worst geometry deviation {worst_geometry:.2e} (tol 1e-9) over 1000 cases")
