"""Statistical classification of outcome models.

Five verdicts per model: agreement with the quantum formalism,
no-signalling, locality, effective locality, and effective causality.

The first three are distributional: chi-square goodness of fit against
the Born law, marginal homogeneity across distant settings, and a CHSH
estimate against the local bound 2.

The two "effective" properties cannot be distributional: every model here
that matches the quantum formalism produces the same outcome law, so no
test on outcome frequencies alone can tell a frame-adapted conditioning
structure from a preferred-frame one.  They are therefore tested through
the models' seed interface: the run seed is the model's entire hidden
randomness, so re-running with the seed held fixed and only the distant
setting changed asks directly whether the model's outcome *function*
transmits the distant setting into the frame-earlier region.  A model is
transmission-free in a frame exactly when the paired flip count is zero.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .minkowski import Frame, order_flip_rapidity, region_frame_order
from .models import (
    _DEFAULT_PARAMS,
    OUTCOME_CELLS,
    EnsembleRequest,
    ModelId,
    ModelParams,
    OutcomeDistribution,
    _coerce_pair,
    ensembles,
)
from .quantum import CHSH_ANGLES, born_joint, flip_arms
from .randomness import mix_seed
from .stats import bonferroni, chi2_gof, chi2_homogeneity

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

TEST_NAMES = (
    "qf_agreement",
    "no_signalling",
    "locality",
    "effective_locality",
    "effective_causality",
)

_MAX_INCONCLUSIVE_FRACTION = 0.05
_ALPHA = 1e-3  # significance of the chi-square verdicts


@dataclass(frozen=True)
class TestResult:
    """One verdict: statistic against threshold, with a p-value bound.

    The comparison direction is per test and documented on the test
    function; ``details`` carries auxiliary numbers (standard errors,
    per-frame counts) and is not serialized.
    """

    name: str
    statistic: float
    threshold: float
    p_bound: float
    verdict: str
    details: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class ClassificationReport:
    model: str
    results: dict[str, TestResult]
    sample_sizes: dict[str, int]
    seeds: dict[str, int]
    params_digest: str

    def __post_init__(self):
        missing = [n for n in TEST_NAMES if n not in self.results]
        if missing:
            raise ValueError(f"report is missing tests: {missing}")

    def verdicts(self) -> dict[str, str]:
        return {name: self.results[name].verdict for name in TEST_NAMES}

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "params_digest": self.params_digest,
            "tests": [
                {
                    "name": r.name,
                    "statistic": r.statistic,
                    "threshold": r.threshold,
                    "p_bound": r.p_bound,
                    "verdict": r.verdict,
                }
                for r in (self.results[n] for n in TEST_NAMES)
            ],
            "seeds": self.seeds,
            "n": self.sample_sizes,
        }


_QUARTER = math.pi / 4


@dataclass(frozen=True)
class ClassifyConfig:
    """Sample sizes, qf grid and probe frames for one classification report.

    Defaults are sized so that each verdict is wrong with probability
    well below 1e-2 per report: the chi-square tests run at significance
    1e-3 (Bonferroni-corrected), the CHSH verdict uses 5-standard-error
    decision bands around 2, and the flip tests are noise-free.
    """

    master_seed: int = 1
    qf_grid: tuple = tuple(
        (a, b) for a in (0.0, _QUARTER, 2 * _QUARTER) for b in (0.0, _QUARTER, 2 * _QUARTER)
    )
    n_qf: int = 2500
    n_nosig: int = 3000
    n_locality: int = 3000
    n_eff: int = 1500
    frames_probe: tuple | None = None  # default built from the region geometry


def default_frames_probe(params: ModelParams) -> tuple[Frame, ...]:
    """Rapidities -1, -0.5, 0, 0.5, 1 plus the order-flip frame of the
    region centers, guaranteeing both temporal orderings appear."""
    ra, rb = params.regions
    flip = order_flip_rapidity(ra.center(), rb.center())
    return (Frame(-1.0), Frame(-0.5), Frame(0.0), Frame(0.5), Frame(1.0), flip)


def params_digest(params: ModelParams) -> str:
    state = ",".join(repr(complex(z)) for z in params.state.amplitudes)
    ra, rb = params.regions
    blob = "|".join(
        [
            state,
            repr(params.flash_rate),
            repr(params.epsilon),
            f"{ra.label}:{ra.t_min},{ra.t_max},{ra.x_min},{ra.x_max}",
            f"{rb.label}:{rb.t_min},{rb.t_max},{rb.x_min},{rb.x_max}",
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Each test is a _Plan: the ensemble requests it needs, and its verdict
# from their counts.  A test_* function runs its own plan; classify()
# stacks the requests of all five plans, so that the kernel sweeps the
# one-arm requests together and the two-arm flip probes together.


class _Plan(NamedTuple):
    requests: list[EnsembleRequest]
    verdict: Callable[[list[tuple]], TestResult]  # from ensembles() of the requests


def _run(model, params: ModelParams, plan: _Plan) -> TestResult:
    return plan.verdict(ensembles(model, plan.requests, params))


def collect_samples(
    model, params: ModelParams, settings, frame: Frame, n: int, master_seed: int
) -> OutcomeDistribution:
    """Run the model n times with counter-derived seeds; unlike
    outcome_distribution, all n runs may be inconclusive."""
    ((joint, inconclusive),) = ensembles(
        model, [EnsembleRequest((settings,), frame, n, master_seed)], params
    )
    return OutcomeDistribution(dict(zip(OUTCOME_CELLS, joint.tolist())), n, inconclusive)


def _cell_requests(pairs, n: int, master_seed: int) -> list:
    """One one-arm lab-frame request per settings pair, pair i seeded with
    mix_seed(master_seed, i)."""
    return [
        EnsembleRequest((pair,), Frame(0.0), n, mix_seed(master_seed, i))
        for i, pair in enumerate(pairs)
    ]


def _gated(ok: bool, dropped: int, total: int) -> str:
    """PASS iff ok, else FAIL; INCONCLUSIVE when no run was made or more
    than _MAX_INCONCLUSIVE_FRACTION of them were dropped."""
    if total == 0 or dropped > _MAX_INCONCLUSIVE_FRACTION * total:
        return INCONCLUSIVE
    return PASS if ok else FAIL


def _qf_plan(params: ModelParams, settings_grid, n: int, master_seed: int) -> _Plan:
    grid = [_coerce_pair(c) for c in settings_grid]
    if not grid:
        raise ValueError("settings grid must be nonempty")
    requests = _cell_requests(grid, n, master_seed)

    def decide(counts) -> TestResult:
        p_values = []
        for pair, (joint, _) in zip(grid, counts):
            expected = born_joint(params.state, pair)
            p_values.append(chi2_gof(joint.tolist(), [expected[c] for c in OUTCOME_CELLS]).p_value)
        p_adj = bonferroni(p_values)
        return TestResult(
            "qf_agreement",
            statistic=p_adj,
            threshold=_ALPHA,
            p_bound=p_adj,
            verdict=_gated(p_adj >= _ALPHA, sum(d for _, d in counts), n * len(counts)),
            details={"cells": len(grid), "p_values": p_values},
        )

    return _Plan(requests, decide)


def test_qf(model, params: ModelParams, settings_grid, n: int, master_seed: int) -> TestResult:
    """Goodness of fit against the Born joint law over a settings grid.

    statistic = smallest Bonferroni-adjusted p-value across grid cells;
    pass iff statistic >= 1e-3.
    """
    return _run(model, params, _qf_plan(params, settings_grid, n, master_seed))


def _no_signalling_plan(n: int, master_seed: int) -> _Plan:
    a, a_p, b, b_p = CHSH_ANGLES
    requests = _cell_requests([(a, b), (a, b_p), (a_p, b)], n, master_seed)

    def marginal(counts, side):
        """Counts of +1 and of -1 on one side: the rows (side A) or the
        columns (side B) of the joint table, summed."""
        joint, _ = counts
        return joint.reshape(2, 2).sum(axis=1 if side == "A" else 0).tolist()

    def decide(counts) -> TestResult:
        ab, ab_p, a_p_b = counts
        comparisons = {
            "alpha_across_b": chi2_homogeneity(marginal(ab, "A"), marginal(ab_p, "A")),
            "beta_across_a": chi2_homogeneity(marginal(ab, "B"), marginal(a_p_b, "B")),
        }
        p_min = min(r.p_value for r in comparisons.values())
        return TestResult(
            "no_signalling",
            statistic=p_min,
            threshold=_ALPHA,
            p_bound=p_min,
            verdict=_gated(p_min >= _ALPHA, sum(d for _, d in counts), n * len(counts)),
            details={"comparisons": {key: res.statistic for key, res in comparisons.items()}},
        )

    return _Plan(requests, decide)


def test_no_signalling(model, params: ModelParams, n: int, master_seed: int) -> TestResult:
    """Marginal homogeneity across distant settings, at the CHSH angles.

    Side A's outcome counts are compared across b vs b' (a fixed), side
    B's across a vs a' (b fixed), each with a two-sample chi-square.
    statistic = smallest p-value; pass iff statistic >= 1e-3.
    """
    return _run(model, params, _no_signalling_plan(n, master_seed))


def _locality_plan(n: int, master_seed: int) -> _Plan:
    a, a_p, b, b_p = CHSH_ANGLES
    requests = _cell_requests([(a, b), (a, b_p), (a_p, b), (a_p, b_p)], n, master_seed)

    def decide(counts) -> TestResult:
        # S_hat = E(a,b) - E(a,b') + E(a',b) + E(a',b'), with its standard error
        s_hat = 0.0
        var = 0.0
        for sign, (joint, dropped) in zip((+1, -1, +1, +1), counts):
            m = n - dropped
            if m == 0:
                raise RuntimeError("no conclusive runs for CHSH estimation")
            pp, pm, mp, mm = joint.tolist()
            e = (pp - pm - mp + mm) / m
            s_hat += sign * e
            var += (1.0 - e * e) / m  # products are +-1, so Var(E_hat) = (1-E^2)/m
        se = math.sqrt(var)
        stat = abs(s_hat)
        if stat > 2.0 + 5.0 * se:
            verdict = FAIL
        elif stat < 2.0 - 5.0 * se:
            verdict = PASS
        else:
            verdict = INCONCLUSIVE
        margin = abs(stat - 2.0) / se if se > 0 else math.inf
        # Gaussian tail bound on the observed deviation from the bound
        p_bound = min(1.0, math.erfc(margin / math.sqrt(2.0)))
        return TestResult(
            "locality",
            statistic=stat,
            threshold=2.0,
            p_bound=p_bound,
            verdict=verdict,
            details={"S": s_hat, "se": se},
        )

    return _Plan(requests, decide)


def test_locality(model, params: ModelParams, n: int, master_seed: int) -> TestResult:
    """CHSH at the CHSH angles against the local bound with 5-sigma
    decision bands.

    statistic = |S_hat|, threshold = 2.  fail (not local) iff
    |S_hat| > 2 + 5 se; pass iff |S_hat| < 2 - 5 se; inconclusive between.
    """
    return _run(model, params, _locality_plan(n, master_seed))


def _flip_probe(frame: Frame, earlier: str, counts) -> dict:
    """A flip probe's counts, from the joint table of its two arms."""
    joint, dropped = counts
    side = 1 if earlier == "B" else 0
    pairs = int(joint.sum())
    flips = sum(
        int(joint[i, j])
        for i, c1 in enumerate(OUTCOME_CELLS)
        for j, c2 in enumerate(OUTCOME_CELLS)
        if c1[side] != c2[side]
    )
    return {
        "frame": frame,
        "earlier": earlier,
        "flips": flips,
        "pairs": pairs,
        "dropped": dropped,
        "fraction": flips / pairs if pairs else math.nan,
    }


def paired_flip_fraction(
    model, params: ModelParams, frame: Frame, earlier: str, n: int, master_seed: int
) -> dict:
    """Seed-paired dependence probe for one frame and one direction.

    Runs the model twice per seed, changing only the frame-later region's
    setting (quantum.flip_arms), and counts how often the frame-earlier
    region's outcome differs.  A model whose outcome function does not
    read the distant setting gives exactly zero flips.
    """
    (counts,) = ensembles(
        model, [EnsembleRequest(flip_arms(earlier), frame, n, master_seed)], params
    )
    return _flip_probe(frame, earlier, counts)


def _flip_plan(
    params: ModelParams,
    frames_probe,
    n: int,
    master_seed: int,
    first_index: int,
    verdict: Callable[[list[dict]], TestResult],
) -> _Plan:
    """A paired flip probe in each probe frame that orders the region
    boxes, probe k seeded with mix_seed(master_seed, first_index + k);
    ``verdict`` reads the probes' dicts.

    Frames that leave the boxes overlapping in frame time identify no
    earlier region and are skipped; the rest must order them both ways.
    """
    ra, rb = params.regions
    ordered = [(frame, region_frame_order(ra, rb, frame)) for frame in frames_probe]
    ordered = [(frame, earlier) for frame, earlier in ordered if earlier is not None]
    have = {earlier for _, earlier in ordered}
    if have != {"A", "B"}:
        raise ValueError(
            "frames_probe must order the regions both ways; "
            f"got earlier-region set {sorted(have)}"
        )
    requests = [
        EnsembleRequest(flip_arms(earlier), frame, n, mix_seed(master_seed, first_index + k))
        for k, (frame, earlier) in enumerate(ordered)
    ]
    return _Plan(requests, lambda counts: verdict([
        _flip_probe(frame, earlier, c) for (frame, earlier), c in zip(ordered, counts)
    ]))


def _flip_result(name: str, stat: float, probes: list[dict], details: dict) -> TestResult:
    """A flip verdict against threshold 0: pass iff stat is zero, gated
    on the runs the probes dropped."""
    dropped = sum(p["dropped"] for p in probes)
    total = sum(p["pairs"] + p["dropped"] for p in probes)
    p_bound = 1.0 if stat == 0.0 else 0.0
    return TestResult(name, stat, 0.0, p_bound, _gated(stat == 0.0, dropped, total), details)


def _effective_locality_verdict(probes: list[dict]) -> TestResult:
    per_direction = {}
    detail = []
    for direction, receiver in (("A->B", "B"), ("B->A", "A")):
        received = [p for p in probes if p["earlier"] == receiver]
        detail += [{"direction": direction, **p} for p in received]
        # min keeps its current value against a NaN (a probe with no
        # conclusive pair), so starting from inf skips those probes
        per_direction[direction] = min([math.inf, *(p["fraction"] for p in received)])
    details = {"directions": per_direction, "probes": detail}
    return _flip_result("effective_locality", max(per_direction.values()), probes, details)


def test_effective_locality(
    model, params: ModelParams, frames_probe, n: int, master_seed: int
) -> TestResult:
    """No *effective* transmission between the regions.

    For each transmission direction (setting of one region into the
    outcome of the other), the probe set must contain a frame in which the
    receiving region is frame-earlier and its outcome shows zero
    seed-paired dependence on the distant setting.  statistic = the worse
    direction's best flip fraction, threshold = 0; pass iff statistic = 0
    for both directions.
    """
    plan = _flip_plan(params, frames_probe, n, master_seed, 0, _effective_locality_verdict)
    return _run(model, params, plan)


def _effective_causality_verdict(probes: list[dict]) -> TestResult:
    worst = max([0.0, *(p["fraction"] for p in probes if not math.isnan(p["fraction"]))])
    return _flip_result("effective_causality", worst, probes, {"probes": probes})


def test_effective_causality(
    model, params: ModelParams, frames_probe, n: int, master_seed: int
) -> TestResult:
    """The frame-earlier region never depends on the frame-later setting.

    Probes every frame in the set that orders the region boxes.
    statistic = worst flip fraction over probed frames (probes with no
    conclusive pair are skipped), threshold = 0; pass iff zero flips
    everywhere.
    """
    plan = _flip_plan(params, frames_probe, n, master_seed, 1000, _effective_causality_verdict)
    return _run(model, params, plan)


def classify(
    model,
    params: ModelParams | None = None,
    config: ClassifyConfig | None = None,
) -> ClassificationReport:
    """Run the full five-test battery with independent derived seeds.

    The requests of all five tests go to the kernel together, so it makes
    one sweep over the one-arm cells and one over the flip probes; each
    verdict is the one its test_* function gives on its own.
    """
    model = ModelId(model)
    params = params if params is not None else _DEFAULT_PARAMS
    config = config if config is not None else ClassifyConfig()
    frames = config.frames_probe
    if frames is None:
        frames = default_frames_probe(params)
    seeds = {name: mix_seed(config.master_seed, 101 + i) for i, name in enumerate(TEST_NAMES)}
    plans = {
        "qf_agreement": _qf_plan(params, config.qf_grid, config.n_qf, seeds["qf_agreement"]),
        "no_signalling": _no_signalling_plan(config.n_nosig, seeds["no_signalling"]),
        "locality": _locality_plan(config.n_locality, seeds["locality"]),
        "effective_locality": _flip_plan(
            params, frames, config.n_eff, seeds["effective_locality"], 0,
            _effective_locality_verdict,
        ),
        "effective_causality": _flip_plan(
            params, frames, config.n_eff, seeds["effective_causality"], 1000,
            _effective_causality_verdict,
        ),
    }
    counts = iter(ensembles(model, [r for p in plans.values() for r in p.requests], params))
    results = {
        name: plan.verdict([next(counts) for _ in plan.requests]) for name, plan in plans.items()
    }
    sample_sizes = {
        "qf_agreement": config.n_qf,
        "no_signalling": config.n_nosig,
        "locality": config.n_locality,
        "effective_locality": config.n_eff,
        "effective_causality": config.n_eff,
    }
    return ClassificationReport(
        model=model.value,
        results=results,
        sample_sizes=sample_sizes,
        seeds=seeds,
        params_digest=params_digest(params),
    )
