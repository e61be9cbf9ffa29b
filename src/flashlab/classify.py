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
    _coerce_pair,
    ensembles,
)
from .quantum import CHSH_ANGLES, CHSH_TERMS, SIDES, born_joint, flip_arms
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

    A test is INCONCLUSIVE when no run was made, when more than 5% of its
    runs were dropped (_MAX_INCONCLUSIVE_FRACTION), or, with statistic and
    p_bound NaN, when a cell test (qf_agreement, no_signalling, locality)
    has a settings cell with no conclusive run.

    The defaults aim at a per-report error rate of each verdict well
    below 1e-2, by design: the chi-square tests run at significance 1e-3
    after a Bonferroni correction over their cells, the CHSH verdict
    decides only outside 5-standard-error bands around 2, and the flip
    tests have no noise, as a model that does not transmit flips no pair.
    The only check of the rate is acceptance criterion 6
    (tests/test_acceptance.py::test_criterion_06_classification_table),
    the README table on 5 master seeds for each of the 3 models; ROADMAP
    item 7 plans its calibration.
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
    boxes = [
        f"{side}:{r.t_min},{r.t_max},{r.x_min},{r.x_max}"
        for side, r in zip(SIDES, params.regions)
    ]
    blob = "|".join([state, repr(params.flash_rate), repr(params.epsilon), *boxes])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class _Plan(NamedTuple):
    """A test's ensemble requests, and its verdict from their counts.  A
    test_* function runs its own plan; classify() stacks the requests of
    all five, so that the kernel sweeps the one-arm requests together and
    the two-arm flip probes together."""

    requests: list[EnsembleRequest]
    verdict: Callable[[list[tuple]], TestResult]  # from ensembles() of the requests

    def run(self, model, params: ModelParams) -> TestResult:
        return self.verdict(ensembles(model, self.requests, params))


def _plan(name: str, threshold: float, requests, decide, cells: bool = True) -> _Plan:
    """Test ``name``'s plan, whose verdict is ``decide(counts)``'s
    ``(statistic, p_bound, verdict, details)``, made INCONCLUSIVE when no
    run was made or more than _MAX_INCONCLUSIVE_FRACTION of the runs were
    dropped.  In a cell test (``cells``) a request with no conclusive run
    leaves nothing to compare: the test is INCONCLUSIVE with statistic and
    p_bound NaN."""
    total = sum(r.n for r in requests)

    def result(counts) -> TestResult:
        if cells and any(not joint.any() for joint, _ in counts):
            return TestResult(name, math.nan, threshold, math.nan, INCONCLUSIVE)
        statistic, p_bound, verdict, details = decide(counts)
        if total == 0 or sum(d for _, d in counts) > _MAX_INCONCLUSIVE_FRACTION * total:
            verdict = INCONCLUSIVE
        return TestResult(name, statistic, threshold, p_bound, verdict, details)

    return _Plan(requests, result)


def collect_samples(
    model, params: ModelParams, settings, frame: Frame, n: int, master_seed: int
) -> tuple:
    """The ``ensembles`` counts ``(joint, n_inconclusive)`` of n runs of
    one settings pair in ``frame``."""
    return ensembles(model, [EnsembleRequest((settings,), frame, n, master_seed)], params)[0]


def _cell_requests(pairs, n: int, master_seed: int) -> list:
    """One one-arm lab-frame request per settings pair, pair i seeded with
    mix_seed(master_seed, i)."""
    return [
        EnsembleRequest((pair,), Frame(0.0), n, mix_seed(master_seed, i))
        for i, pair in enumerate(pairs)
    ]


def _qf_plan(params: ModelParams, settings_grid, n: int, master_seed: int) -> _Plan:
    grid = [_coerce_pair(c) for c in settings_grid]
    if not grid:
        raise ValueError("settings grid must be nonempty")

    def decide(counts):
        p_values = []
        for pair, (joint, _) in zip(grid, counts):
            expected = born_joint(params.state, pair)
            p_values.append(chi2_gof(joint.tolist(), [expected[c] for c in OUTCOME_CELLS]).p_value)
        p_adj = bonferroni(p_values)
        details = {"cells": len(grid), "p_values": p_values}
        return p_adj, p_adj, PASS if p_adj >= _ALPHA else FAIL, details

    return _plan("qf_agreement", _ALPHA, _cell_requests(grid, n, master_seed), decide)


def test_qf(model, params: ModelParams, settings_grid, n: int, master_seed: int) -> TestResult:
    """Goodness of fit against the Born joint law over a settings grid.

    statistic = smallest Bonferroni-adjusted p-value across grid cells;
    pass iff statistic >= 1e-3.
    """
    return _qf_plan(params, settings_grid, n, master_seed).run(model, params)


# The CHSH cells (a,b), (a,b'), (a',b), (a',b'), each with its sign in S
_CHSH_TERMS = tuple(((CHSH_ANGLES[i], CHSH_ANGLES[2 + j]), sign) for i, j, sign in CHSH_TERMS)


def _no_signalling_plan(n: int, master_seed: int) -> _Plan:
    # the first three CHSH cells: a fixed across b, b', and b fixed across a, a'
    requests = _cell_requests([pair for pair, _ in _CHSH_TERMS[:3]], n, master_seed)

    def marginal(counts, side):
        """Side A's (rows summed) or side B's (columns summed) counts of +1 and -1."""
        joint, _ = counts
        return joint.reshape(2, 2).sum(axis=1 if side == "A" else 0).tolist()

    def decide(counts):
        ab, ab_p, a_p_b = counts
        comparisons = {
            "alpha_across_b": chi2_homogeneity(marginal(ab, "A"), marginal(ab_p, "A")),
            "beta_across_a": chi2_homogeneity(marginal(ab, "B"), marginal(a_p_b, "B")),
        }
        p_min = min(r.p_value for r in comparisons.values())
        details = {"comparisons": {key: res.statistic for key, res in comparisons.items()}}
        return p_min, p_min, PASS if p_min >= _ALPHA else FAIL, details

    return _plan("no_signalling", _ALPHA, requests, decide)


def test_no_signalling(model, params: ModelParams, n: int, master_seed: int) -> TestResult:
    """Marginal homogeneity across distant settings, at the CHSH angles.

    Side A's outcome counts are compared across b vs b' (a fixed), side
    B's across a vs a' (b fixed), each with a two-sample chi-square.
    statistic = smallest p-value; pass iff statistic >= 1e-3.
    """
    return _no_signalling_plan(n, master_seed).run(model, params)


def _locality_plan(n: int, master_seed: int) -> _Plan:
    requests = _cell_requests([pair for pair, _ in _CHSH_TERMS], n, master_seed)

    def decide(counts):
        # S_hat from _CHSH_TERMS, with its standard error
        s_hat = var = 0.0
        for (_, sign), (joint, dropped) in zip(_CHSH_TERMS, counts):
            m = n - dropped
            pp, pm, mp, mm = joint.tolist()
            e = (pp - pm - mp + mm) / m
            s_hat += sign * e
            var += (1.0 - e * e) / m  # products are +-1, so Var(E_hat) = (1-E^2)/m
        se = math.sqrt(var)
        stat = abs(s_hat)
        details = {"S": s_hat, "se": se}
        if se == 0.0:  # every cell's E is +-1, as with one run per cell: no band to decide in
            return stat, math.nan, INCONCLUSIVE, details
        if stat > 2.0 + 5.0 * se:
            verdict = FAIL
        elif stat < 2.0 - 5.0 * se:
            verdict = PASS
        else:
            verdict = INCONCLUSIVE
        # Gaussian tail bound on the observed deviation from the bound
        p_bound = min(1.0, math.erfc(abs(stat - 2.0) / se / math.sqrt(2.0)))
        return stat, p_bound, verdict, details

    return _plan("locality", 2.0, requests, decide)


def test_locality(model, params: ModelParams, n: int, master_seed: int) -> TestResult:
    """CHSH at the CHSH angles against the local bound with 5-sigma
    decision bands.

    statistic = |S_hat|, threshold = 2.  fail (not local) iff
    |S_hat| > 2 + 5 se; pass iff |S_hat| < 2 - 5 se; inconclusive between,
    and inconclusive with p_bound NaN where se is 0.
    """
    return _locality_plan(n, master_seed).run(model, params)


def _flip_probe(frame: Frame, earlier: str, counts) -> dict:
    """A flip probe's counts, from the joint table of its two arms."""
    joint, dropped = counts
    # axes (alpha, beta) of the first arm, then of the second, as in
    # OUTCOME_CELLS; the earlier region's outcomes of the two arms remain
    earlier_outcomes = joint.reshape(2, 2, 2, 2).sum(axis=(0, 2) if earlier == "B" else (1, 3))
    pairs = int(joint.sum())
    flips = pairs - int(earlier_outcomes.trace())
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


def _flip_probes(params: ModelParams, frames_probe) -> list[tuple[Frame, str, tuple]]:
    """The probe frames that order the region boxes, each with its
    frame-earlier region and its two flip arms (quantum.flip_arms).

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
    return [(frame, earlier, flip_arms(earlier)) for frame, earlier in ordered]


def _fractions(probes: list[dict]) -> list[float]:
    """The flip fractions of the probes with a conclusive pair: the rest have none."""
    return [p["fraction"] for p in probes if p["pairs"]]


def _flip_plan(name: str, probes, n: int, master_seed: int, first_index: int, statistic) -> _Plan:
    """A paired flip probe for each of _flip_probes' ``probes``, probe k
    seeded with mix_seed(master_seed, first_index + k).  ``statistic``
    gives (statistic, details) from the probes' dicts; pass iff it is 0."""
    requests = [
        EnsembleRequest(arms, frame, n, mix_seed(master_seed, first_index + k))
        for k, (frame, _, arms) in enumerate(probes)
    ]

    def decide(counts):
        stat, details = statistic([
            _flip_probe(frame, earlier, c) for (frame, earlier, _), c in zip(probes, counts)
        ])
        return (stat, 1.0, PASS, details) if stat == 0.0 else (stat, 0.0, FAIL, details)

    return _plan(name, 0.0, requests, decide, cells=False)


def _effective_locality_plan(probes, n: int, master_seed: int) -> _Plan:
    def statistic(found: list[dict]):
        per_direction, detail = {}, []
        for direction, receiver in (("A->B", "B"), ("B->A", "A")):
            received = [p for p in found if p["earlier"] == receiver]
            detail += [{"direction": direction, **p} for p in received]
            per_direction[direction] = min(_fractions(received), default=math.inf)
        return max(per_direction.values()), {"directions": per_direction, "probes": detail}

    return _flip_plan("effective_locality", probes, n, master_seed, 0, statistic)


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
    probes = _flip_probes(params, frames_probe)
    return _effective_locality_plan(probes, n, master_seed).run(model, params)


def _effective_causality_plan(probes, n: int, master_seed: int) -> _Plan:
    return _flip_plan("effective_causality", probes, n, master_seed, 1000,
                      lambda found: (max(_fractions(found), default=0.0), {"probes": found}))


def test_effective_causality(
    model, params: ModelParams, frames_probe, n: int, master_seed: int
) -> TestResult:
    """The frame-earlier region never depends on the frame-later setting.

    Probes every frame in the set that orders the region boxes.
    statistic = worst flip fraction over probed frames (probes with no
    conclusive pair are skipped), threshold = 0; pass iff zero flips
    everywhere.
    """
    probes = _flip_probes(params, frames_probe)
    return _effective_causality_plan(probes, n, master_seed).run(model, params)


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
    probes = _flip_probes(params, frames)  # both flip tests probe the same frames
    seeds = {name: mix_seed(config.master_seed, 101 + i) for i, name in enumerate(TEST_NAMES)}
    plans = {
        "qf_agreement": _qf_plan(params, config.qf_grid, config.n_qf, seeds["qf_agreement"]),
        "no_signalling": _no_signalling_plan(config.n_nosig, seeds["no_signalling"]),
        "locality": _locality_plan(config.n_locality, seeds["locality"]),
        "effective_locality": _effective_locality_plan(
            probes, config.n_eff, seeds["effective_locality"]
        ),
        "effective_causality": _effective_causality_plan(
            probes, config.n_eff, seeds["effective_causality"]
        ),
    }
    counts = iter(ensembles(model, [r for p in plans.values() for r in p.requests], params))
    results = {
        name: plan.verdict([next(counts) for _ in plan.requests]) for name, plan in plans.items()
    }
    return ClassificationReport(
        model=model.value,
        results=results,
        sample_sizes={name: plan.requests[0].n for name, plan in plans.items()},
        seeds=seeds,
        params_digest=params_digest(params),
    )
