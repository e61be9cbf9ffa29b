"""Strategy enumeration, local bounds, EPR filter, Wigner, and Janus tests."""

import math

import numpy as np
import pytest

from flashlab import determinism
from flashlab.determinism import (
    DEFAULT_BIT_BUDGET,
    CertifyConfig,
    DeterministicStrategy,
    InfluenceEvidence,
    JanusRealization,
    chsh_of,
    enumerate_strategies,
    epr_filter,
    influence_witness_search,
    janus_run,
    no_effectively_causal_nonlocal_determinism_check,
    past_influence_probe,
    wigner_check,
)
from flashlab.minkowski import Frame, order_flip_rapidity
from flashlab.models import EnsembleRequest, InconclusiveRunError, ModelId, ModelParams, ensembles
from flashlab.quantum import CHSH_ANGLES, SettingPair
from flashlab.randomness import BitsExhausted, BitSource, random_bits
from flashlab.stats import chi2_homogeneity

CELLS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def test_enumeration_counts():
    assert len(enumerate_strategies(2, 2, 0)) == 16
    assert len(enumerate_strategies(3, 3, 0)) == 64
    assert len(enumerate_strategies(2, 2, 1)) == 256


def test_enumeration_guard(monkeypatch):
    with pytest.raises(ValueError, match="guard"):
        enumerate_strategies(2, 2, 4)  # 2^32 per side, 2^64 total
    # the best-response bound enumerates side A alone: 2^16 tables at k = 3
    # fit, 2^32 at k = 4 do not, and the guard builds none of them
    assert np.all(determinism._best_response_chsh(3) == 2 << 3)
    monkeypatch.setattr(determinism, "_side_tables", None)
    with pytest.raises(ValueError, match=r"guard: would require 2\^32 side A tables"):
        determinism._best_response_chsh(4)
    with pytest.raises(ValueError, match="guard"):
        enumerate_strategies(11, 11, 1)
    # 2^22528 strategies: the guard compares exponents, so no count that
    # large is built or printed
    with pytest.raises(ValueError, match=r"guard: would require 2\^22528 strategies"):
        enumerate_strategies(11, 11, 10)


def test_all_plus_strategy_chsh_two():
    strategies = enumerate_strategies(2, 2, 0)
    all_plus = ((strategies.table_a == 1).all(axis=(1, 2))
                & (strategies.table_b == 1).all(axis=(1, 2)))
    assert np.count_nonzero(all_plus) == 1
    assert chsh_of(strategies[all_plus]).tolist() == [2.0]
    assert chsh_of(strategies[int(np.argmax(all_plus))]).tolist() == [2.0]


def test_local_bound_exhaustive_and_exact():
    for k in (0, 1):
        strategies = enumerate_strategies(2, 2, k)
        values = chsh_of(strategies)
        assert values.shape == (len(strategies),)
        assert values.max() == 2.0
        assert values.min() == -2.0


def test_mixtures_never_beat_pure_max():
    strategies = enumerate_strategies(2, 2, 1)
    rng = np.random.default_rng(3)
    for _ in range(300):
        members = rng.choice(len(strategies), size=5, replace=False)
        weights = rng.dirichlet(np.ones(5))
        value = float(weights @ chsh_of(strategies[members]))
        pure = [chsh_of(strategies[i]).item() for i in members]
        assert value == pytest.approx(sum(w * v for w, v in zip(weights, pure)), abs=1e-12)
        assert value <= 2.0 + 1e-12


def test_chsh_setting_mismatch_errors():
    strategy = enumerate_strategies(2, 2, 0)[5]
    with pytest.raises(ValueError, match="setting") as stack_error:
        chsh_of(strategy, (0.1, 0.2, 0.3, 0.4))
    with pytest.raises(ValueError) as best_response_error:
        determinism._best_response_chsh(0, (0.1, 0.2, 0.3, 0.4))
    assert str(best_response_error.value) == str(stack_error.value)


@pytest.mark.parametrize("angles", [
    CHSH_ANGLES,
    (math.pi / 2, 0.0, 3 * math.pi / 4, math.pi / 4),  # a <-> a', b <-> b'
    (0.0, 0.0, math.pi / 4, math.pi / 4),  # b and b' read one column of side B
])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_best_response_matches_the_stack_per_side_a_table(k, angles):
    # every side A table's best is 2, so the maximum alone would pass many
    # wrong formulas; a wrong sign in one term makes some tables read 0 or 4
    best = determinism._best_response_chsh(k, angles)
    assert best.dtype == np.int64 and best.shape == (1 << (2 << k),)
    by_table = chsh_of(enumerate_strategies(2, 2, k), angles).reshape(len(best), -1)
    assert np.array_equal(best / 2**k, by_table.max(axis=1))


def _brute_side_tables(n_settings, k):
    """Side tables straight from the enumeration order: table i sets entry
    (s, m) to +1 when bit s * 2**k + m of i is set, else -1."""
    width = 1 << k
    return [
        [[1 if i >> (s * width + m) & 1 else -1 for m in range(width)]
         for s in range(n_settings)]
        for i in range(1 << (n_settings * width))
    ]


def _brute_correlation(row_a, row_b):
    return sum(x * y for x, y in zip(row_a, row_b)) / len(row_a)


def _brute_p_plus_plus(row_a, row_b):
    return sum(1 for x, y in zip(row_a, row_b) if x == 1 and y == 1) / len(row_a)


@pytest.mark.parametrize("n, k", [(2, 0), (2, 1), (3, 0)])
def test_stacked_tables_match_brute_force(n, k):
    theta = 0.7
    if n == 2:  # A at (0, t), B at (t, 2t): CHSH, EPR at t and Wigner all apply
        settings_a, settings_b, common = (0.0, theta), (theta, 2 * theta), (theta,)
    else:
        settings_a = settings_b = common = (0.0, theta, 2 * theta)
    stack = enumerate_strategies(n, n, k, settings_a, settings_b)
    side_a, side_b = _brute_side_tables(n, k), _brute_side_tables(n, k)
    rows = [(side_a[i // len(side_b)], side_b[i % len(side_b)]) for i in range(len(stack))]
    assert len(stack) == len(side_a) * len(side_b)
    assert stack.table_a.dtype == stack.table_b.dtype == np.int8
    assert np.array_equal(stack.table_a, [ta for ta, _ in rows])
    assert np.array_equal(stack.table_b, [tb for _, tb in rows])

    ia, ib = settings_a.index, settings_b.index
    if n == 2:
        chsh = [
            _brute_correlation(ta[0], tb[0]) - _brute_correlation(ta[0], tb[1])
            + _brute_correlation(ta[1], tb[0]) + _brute_correlation(ta[1], tb[1])
            for ta, tb in rows
        ]
        assert np.array_equal(chsh_of(stack, (0.0, theta, theta, 2 * theta)), chsh)
    else:
        with pytest.raises(ValueError, match="2 settings"):
            chsh_of(stack, (0.0, theta, theta, 2 * theta))

    keep = [
        all(tb[ib(c)][m] == -ta[ia(c)][m] for c in common for m in range(1 << k))
        for ta, tb in rows
    ]
    survivors = epr_filter(stack, common)
    assert np.array_equal(survivors.table_a, stack.table_a[keep])
    assert np.array_equal(survivors.table_b, stack.table_b[keep])

    lhs = [_brute_p_plus_plus(ta[ia(0.0)], tb[ib(2 * theta)]) for ta, tb in rows]
    rhs = [
        _brute_p_plus_plus(ta[ia(0.0)], tb[ib(theta)])
        + _brute_p_plus_plus(ta[ia(theta)], tb[ib(2 * theta)])
        for ta, tb in rows
    ]
    for i in range(len(stack)):
        report = wigner_check(stack[i], theta)
        assert (report.lhs, report.rhs) == (lhs[i], rhs[i])
    # the report holds the first row with the largest margin, in stack order;
    # rows that tie on the margin can differ in lhs and rhs
    shuffled = np.random.default_rng(5).permutation(len(stack))
    for order in (np.arange(len(stack)), shuffled, np.flatnonzero(keep), shuffled[::-1]):
        margins = [lhs[i] - rhs[i] for i in order]
        worst = order[margins.index(max(margins))]
        report = wigner_check(stack[order], theta)
        assert (report.lhs, report.rhs) == (lhs[worst], rhs[worst])
        assert report.worst_margin == lhs[worst] - rhs[worst]
        assert report.all_satisfied == (report.worst_margin <= 1e-12)


def test_stack_indexing():
    stack = enumerate_strategies(2, 2, 1)
    assert len(stack[7]) == 1 and len(stack[-1]) == 1
    assert np.array_equal(stack[-1].table_a, stack.table_a[-1:])
    assert len(stack[10:20]) == 10
    assert np.array_equal(stack[[3, 1]].table_b, stack.table_b[[3, 1]])
    assert stack[5].settings_a == stack.settings_a and stack[5].k_bits == 1
    with pytest.raises(IndexError):
        stack[len(stack)]
    with pytest.raises(ValueError, match="same number"):
        DeterministicStrategy(stack.settings_a, stack.settings_b, 1,
                              stack.table_a, stack.table_b[1:])


def test_epr_filter_counts():
    theta = math.pi / 3
    common3 = (0.0, theta, 2 * theta)
    survivors = epr_filter(enumerate_strategies(3, 3, 0, common3, common3), common3)
    assert len(survivors) == 8
    common2 = (0.0, theta)
    survivors2 = epr_filter(enumerate_strategies(2, 2, 0, common2, common2), common2)
    assert len(survivors2) == 4
    # anticorrelated subset still obeys the local bound
    assert (np.abs(chsh_of(survivors2, (0.0, theta, 0.0, theta))) <= 2.0).all()


def test_epr_filter_survivors_are_anticorrelated():
    theta = 0.9
    common = (0.0, theta, 2 * theta)
    survivors = epr_filter(enumerate_strategies(3, 3, 0, common, common), common)
    assert len(survivors) == 8
    assert np.array_equal(survivors.table_b, -survivors.table_a)


def test_wigner_deterministic_vs_quantum():
    theta = math.pi / 3
    common = (0.0, theta, 2 * theta)
    survivors = epr_filter(enumerate_strategies(3, 3, 0, common, common), common)
    report = wigner_check(survivors, theta)
    assert report.all_satisfied
    assert report.worst_margin <= 1e-12
    assert report.quantum_lhs == pytest.approx(3.0 / 8.0, abs=1e-12)
    assert report.quantum_rhs == pytest.approx(1.0 / 4.0, abs=1e-12)
    assert report.quantum_lhs > report.quantum_rhs  # the quantum values violate


def test_wigner_mixtures_inherit_by_linearity():
    theta = math.pi / 3
    common = (0.0, theta, 2 * theta)
    survivors = epr_filter(enumerate_strategies(3, 3, 0, common, common), common)
    rng = np.random.default_rng(11)

    def p_pp(table_a, table_b, ia, ib):
        return float(np.mean((table_a[ia] == 1) & (table_b[ib] == 1)))

    rows = [(survivors.table_a[r], survivors.table_b[r]) for r in range(len(survivors))]
    for _ in range(200):
        weights = rng.dirichlet(np.ones(len(survivors)))
        lhs = sum(w * p_pp(ta, tb, 0, 2) for w, (ta, tb) in zip(weights, rows))
        rhs = sum(
            w * (p_pp(ta, tb, 0, 1) + p_pp(ta, tb, 1, 2))
            for w, (ta, tb) in zip(weights, rows)
        )
        assert lhs <= rhs + 1e-12


def test_wigner_degenerate_angle_equality():
    # theta = 0 collapses {0, theta, 2 theta} to one setting: 0 <= 0
    common = (0.0,)
    strategies = enumerate_strategies(1, 1, 0, common, common)
    survivors = epr_filter(strategies, common)
    assert len(survivors) == 2
    report = wigner_check(survivors, 0.0)
    assert report.lhs == pytest.approx(report.rhs, abs=1e-12)
    assert report.all_satisfied
    assert report.quantum_lhs == pytest.approx(0.0, abs=1e-12)
    assert report.quantum_rhs == pytest.approx(0.0, abs=1e-12)


def test_janus_run_deterministic():
    j = JanusRealization(Frame(0.0))
    bits = random_bits(np.random.default_rng(2), j.bit_budget)
    r1 = janus_run(j, (0.0, 1.0), bits)
    r2 = janus_run(j, (0.0, 1.0), bits)
    assert r1.outcome == r2.outcome
    assert r1.flashes == r2.flashes


def test_janus_equal_settings_anticorrelated():
    j = JanusRealization(Frame(0.0))
    rng = np.random.default_rng(4)
    seen = 0
    for _ in range(300):
        bits = random_bits(rng, j.bit_budget)
        try:
            run = janus_run(j, (0.5, 0.5), bits, record_trace=False)
        except InconclusiveRunError:
            continue
        assert run.outcome.alpha == -run.outcome.beta
        seen += 1
    assert seen > 250


def test_janus_matches_stochastic_law(n=20_000):
    j = JanusRealization(Frame(0.0))
    rng = np.random.default_rng(6)
    counts = dict.fromkeys(CELLS, 0)
    for _ in range(n):
        bits = random_bits(rng, j.bit_budget)
        try:
            run = janus_run(j, (0.0, math.pi / 3), bits, record_trace=False)
        except InconclusiveRunError:
            continue
        counts[(run.outcome.alpha, run.outcome.beta)] += 1
    ((joint, _),) = ensembles(
        ModelId.RGRWF, [EnsembleRequest(((0.0, math.pi / 3),), Frame(0.0), n, 606)]
    )
    res = chi2_homogeneity([counts[c] for c in CELLS], joint.tolist())
    assert res.p_value > 1e-3


def test_bit_source_raises_once_its_bits_are_spent():
    # 70 bits hold two whole 32-bit words; the last 6 make no uniform
    source = BitSource(np.ones(70, dtype=np.uint8))
    assert [source.uniform(), source.uniform()] == [(2**32 - 1) / 2**32] * 2
    with pytest.raises(BitsExhausted, match="64 of 70 bits"):
        source.uniform()


def test_janus_budget_follows_the_flash_rate():
    assert JanusRealization(Frame(0.0)).bit_budget == DEFAULT_BIT_BUDGET == 8192
    j = JanusRealization(Frame(0.0), ModelParams(flash_rate=45))
    # 116 partial sums per region's Poisson table at mean 45: 2 + 3 * 232 uniforms
    assert j.bit_budget == 32 * (2 + 3 * 232)
    # a fixed 8192-bit budget ran out in 147 of these 200 bit strings
    rng = np.random.default_rng(45)
    for _ in range(200):
        janus_run(j, (0.0, 1.0), random_bits(rng, j.bit_budget), record_trace=False)
    # all ones draw the largest uniform every time, so each region gets the
    # most flashes its Poisson table allows; 708 is the highest mean accepted
    for rate in (5, 45, 708):
        j = JanusRealization(Frame(0.0), ModelParams(flash_rate=rate))
        janus_run(j, (0.0, 1.0), np.ones(j.bit_budget, dtype=np.uint8), record_trace=False)


def test_witness_found_in_order_flip_frame():
    j = JanusRealization(Frame(0.0))
    ra, rb = j.params.regions
    flip = order_flip_rapidity(ra.center(), rb.center())
    witness = past_influence_probe(j, flip, 1000, master_seed=21)
    assert witness is not None
    assert witness.outcomes[0] != witness.outcomes[1]
    assert witness.region == "B"  # the flip frame puts B strictly first


def test_witness_replays_from_bits():
    j = JanusRealization(Frame(0.0))
    ra, rb = j.params.regions
    flip = order_flip_rapidity(ra.center(), rb.center())
    w = past_influence_probe(j, flip, 1000, master_seed=21)
    outs = []
    for pair in w.setting_pairs:
        run = janus_run(j, pair, w.witness_bits, record_trace=False)
        outs.append(run.outcome.beta if w.region == "B" else run.outcome.alpha)
    assert tuple(outs) == w.outcomes


def test_witness_in_region_a_for_a_b_first_realization():
    ra, rb = ModelParams().regions
    native = order_flip_rapidity(ra.center(), rb.center())  # chi = 10 puts B first
    probe = Frame(-native.rapidity)  # and chi = -10 puts A first
    j = JanusRealization(native)
    w = past_influence_probe(j, probe, 1000, master_seed=5)
    assert w is not None and w.region == "A"
    alphas = tuple(
        janus_run(j, pair, w.witness_bits, record_trace=False).outcome.alpha
        for pair in w.setting_pairs
    )
    assert alphas == w.outcomes and alphas[0] != alphas[1]
    local = JanusRealization(native, model=ModelId.LOCAL_HV)
    assert past_influence_probe(local, probe, 1000, master_seed=5) is None


def test_probe_requires_order_reversal():
    j = JanusRealization(Frame(0.0))
    with pytest.raises(ValueError, match="reverse"):
        past_influence_probe(j, j.native_frame, 10)


def test_no_witness_in_native_frame():
    j = JanusRealization(Frame(0.0))
    assert influence_witness_search(j, j.native_frame, 2000, master_seed=33) is None


def test_local_hv_realization_has_no_witness_anywhere():
    j = JanusRealization(Frame(0.0), model=ModelId.LOCAL_HV)
    ra, rb = j.params.regions
    flip = order_flip_rapidity(ra.center(), rb.center())
    assert past_influence_probe(j, flip, 2000, master_seed=35) is None


def test_certificate_bundle():
    cfg = CertifyConfig(k_max=1, witness_samples=500, master_seed=9)
    certificate = no_effectively_causal_nonlocal_determinism_check(cfg)
    assert [e["k"] for e in certificate.enumeration] == [0, 1]
    assert all(e["max_chsh"] == 2.0 for e in certificate.enumeration)
    assert certificate.enumeration[0]["count"] == 16
    assert certificate.enumeration[1]["count"] == 256
    assert certificate.epr_filter["survivor_count"] == 8
    assert certificate.wigner.quantum_lhs > certificate.wigner.quantum_rhs
    payload = certificate.to_json_dict()
    assert set(payload) == {"enumeration", "epr_filter", "wigner", "janus_witness"}
    assert set(payload["wigner"]) == {"theta", "lhs", "rhs", "quantum_lhs", "quantum_rhs"}
    jw = payload["janus_witness"]
    assert jw["region"] in ("A", "B")
    assert len(jw["witness_bits_hex"]) == jw["n_bits"] // 4


def test_certificate_builds_no_two_by_two_stack(monkeypatch):
    calls = []

    def recording_enumerate(*args, **kwargs):
        calls.append(args)
        return enumerate_strategies(*args, **kwargs)

    def recording_chsh(*args, **kwargs):
        calls.append("chsh_of")
        return chsh_of(*args, **kwargs)

    monkeypatch.setattr(determinism, "enumerate_strategies", recording_enumerate)
    monkeypatch.setattr(determinism, "chsh_of", recording_chsh)
    certificate = no_effectively_causal_nonlocal_determinism_check(CertifyConfig(k_max=2))
    assert calls == [(3, 3, 0)]  # the EPR/Wigner stack only
    assert [e["count"] for e in certificate.enumeration] == [16, 256, 65536]
    assert [e["max_chsh"] for e in certificate.enumeration] == [2.0, 2.0, 2.0]


def test_influence_evidence_invariants():
    with pytest.raises(ValueError, match="differ"):
        InfluenceEvidence(
            Frame(1.0),
            "B",
            np.zeros(32, dtype=np.uint8),
            (SettingPair(0.0, 0.0), SettingPair(1.0, 0.0)),
            (1, 1),
        )
    with pytest.raises(ValueError, match="own setting"):
        InfluenceEvidence(
            Frame(1.0),
            "B",
            np.zeros(32, dtype=np.uint8),
            (SettingPair(0.0, 0.0), SettingPair(1.0, 0.5)),
            (1, -1),
        )
