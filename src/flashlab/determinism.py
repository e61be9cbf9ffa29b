"""Deterministic strategies, the local CHSH bound, and Janus realizations.

Two complementary halves:

* Deterministic local strategies whose outputs are functions of the
  local setting and a pre-given bit string: their enumeration as one
  stack, the CHSH bound over the whole class (each side A table against
  side B's best response), the perfect-anticorrelation (EPR) filter, and
  the Wigner inequality over the filtered set.  This is the "randomness
  given in advance" class: no member reaches the quantum CHSH value.

* The Janus construction: the flash-collapse law re-expressed as a total
  deterministic function of (settings, bit string), with every random
  decision made by inverse-CDF consumption of the bits in one fixed
  frame's temporal order.  It reproduces the stochastic law exactly when
  the bits are uniform, is transmission-free in its native frame, and
  demonstrably reads the frame-later setting when examined from a frame
  that reverses the regions' order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .minkowski import Frame, SimultaneityTie, order_flip_rapidity, precedes
from .models import (
    ExperimentRun, InconclusiveRunError, ModelId, ModelParams, _max_draws, _simulate_run,
)
from .quantum import CHSH_ANGLES, CHSH_TERMS, SettingPair, _angle, flip_arms
from .randomness import BITS_PER_UNIFORM, BitSource, mix_seed, random_bits

_ANGLE_TOL = 1e-12

MAX_K_BITS = 10
MAX_TOTAL_STRATEGIES = 1 << 20

DEFAULT_BIT_BUDGET = 8192


@dataclass(frozen=True, eq=False)
class DeterministicStrategy:
    """A stack of deterministic strategies over shared settings.

    Row r has the +-1 lookup tables alpha(a_index, bits) =
    table_a[r, a_index, bits] and beta(b_index, bits) = table_b[r, b_index,
    bits].  ``len()`` counts the rows; indexing by an int, a slice, an index
    array or a boolean mask returns another stack.
    """

    settings_a: tuple[float, ...]
    settings_b: tuple[float, ...]
    k_bits: int
    table_a: np.ndarray  # shape (count, len(settings_a), 2**k_bits), int8
    table_b: np.ndarray  # shape (count, len(settings_b), 2**k_bits), int8

    def __post_init__(self):
        if not 0 <= self.k_bits <= MAX_K_BITS:
            raise ValueError(f"k_bits must lie in [0, {MAX_K_BITS}]")
        width = 1 << self.k_bits
        for name, table, settings in (
            ("table_a", self.table_a, self.settings_a),
            ("table_b", self.table_b, self.settings_b),
        ):
            if table.ndim != 3 or table.shape[1:] != (len(settings), width):
                raise ValueError(f"{name} must have shape (count, {len(settings)}, {width})")
        if self.table_a.shape[0] != self.table_b.shape[0]:
            raise ValueError("table_a and table_b must stack the same number of strategies")

    def __len__(self) -> int:
        return self.table_a.shape[0]

    def __getitem__(self, rows) -> DeterministicStrategy:
        if isinstance(rows, (int, np.integer)):
            rows = [rows]
        return replace(self, table_a=self.table_a[rows], table_b=self.table_b[rows])


def _default_settings(n: int, offset: float) -> tuple[float, ...]:
    return tuple(_angle(offset + i * math.pi / 2) for i in range(n))


def _side_tables(n_settings: int, k_bits: int) -> np.ndarray:
    """All +-1 tables of shape (n_settings, 2**k_bits), enumeration order:
    table index i sets entry (s, m) from bit s * 2**k_bits + m of i."""
    entries = n_settings << k_bits
    count = 1 << entries
    idx = np.arange(count, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(entries, dtype=np.uint32)[None, :]) & 1
    tables = (2 * bits.astype(np.int8) - 1).reshape(count, n_settings, 1 << k_bits)
    return tables


def _k_bits_limit(n_a: int, n_b: int) -> int:
    """The largest k_bits for which enumerate_strategies(n_a, n_b, k_bits)
    stays within MAX_TOTAL_STRATEGIES; -1 if none does.  The count is
    2^((n_a + n_b) 2^k_bits), so the guard compares exponents and never
    builds it."""
    return ((MAX_TOTAL_STRATEGIES.bit_length() - 1) // (n_a + n_b)).bit_length() - 1


def enumerate_strategies(
    n_a: int,
    n_b: int,
    k_bits: int,
    settings_a: tuple[float, ...] | None = None,
    settings_b: tuple[float, ...] | None = None,
) -> DeterministicStrategy:
    """All deterministic strategies on n_a x n_b settings with k shared bits,
    as one stack.

    The count is 2**(n_a 2**k) * 2**(n_b 2**k), in a fixed order: row i
    pairs side A table i // N_B with side B table i % N_B, where N_B =
    2**(n_b 2**k), so side B varies fastest.  Default settings are 0,
    pi/2, ... on side A and pi/4, 3pi/4, ... on side B, so (2, 2) lands on
    the CHSH angles.
    """
    if n_a < 1 or n_b < 1:
        raise ValueError("need at least one setting per side")
    if not 0 <= k_bits <= MAX_K_BITS:
        raise ValueError(f"k_bits must lie in [0, {MAX_K_BITS}]")
    if k_bits > _k_bits_limit(n_a, n_b):
        raise ValueError(
            f"enumeration guard: would require 2^{(n_a + n_b) << k_bits} strategies "
            f"(limit {MAX_TOTAL_STRATEGIES})"
        )
    sa = tuple(_angle(t) for t in settings_a) if settings_a else _default_settings(n_a, 0.0)
    sb = tuple(_angle(t) for t in settings_b) if settings_b else _default_settings(n_b, math.pi / 4)
    if len(sa) != n_a or len(sb) != n_b:
        raise ValueError("settings lists must match n_a, n_b")
    tables_a = _side_tables(n_a, k_bits)
    tables_b = _side_tables(n_b, k_bits)
    return DeterministicStrategy(
        sa,
        sb,
        k_bits,
        np.repeat(tables_a, len(tables_b), axis=0),
        np.tile(tables_b, (len(tables_a), 1, 1)),
    )


def _match_setting(settings: tuple[float, ...], theta: float) -> int:
    target = _angle(theta)
    for i, s in enumerate(settings):
        delta = abs(s - target)
        if min(delta, math.tau - delta) <= _ANGLE_TOL:
            return i
    raise ValueError(f"strategy does not use setting {theta!r}; has {settings}")


def _chsh_columns(settings_a, settings_b, angles) -> list[tuple[int, int, int]]:
    """quantum.CHSH_TERMS as (side A table column, side B table column,
    sign), the columns of the settings that match ``angles``."""
    a, a_p, b, b_p = angles
    cols_a = _match_setting(settings_a, a), _match_setting(settings_a, a_p)
    cols_b = _match_setting(settings_b, b), _match_setting(settings_b, b_p)
    return [(cols_a[i], cols_b[j], sign) for i, j, sign in CHSH_TERMS]


def chsh_of(strategies: DeterministicStrategy, angles: tuple = CHSH_ANGLES) -> np.ndarray:
    """CHSH value E(a,b) - E(a,b') + E(a',b) + E(a',b') of every strategy
    of a stack, as a float array, averaging products over the uniform bit
    string.  A convex mixture of the stack's strategies has the weighted
    sum of their values, ``weights @ chsh_of(stack)``.

    The strategies must use exactly the two given settings per side.
    """
    if len(strategies.settings_a) != 2 or len(strategies.settings_b) != 2:
        raise ValueError("CHSH needs exactly 2 settings per side")
    table_a, table_b = strategies.table_a, strategies.table_b

    def total(i, j):
        # sum over the bit strings of alpha * beta, without the int8 product
        return np.einsum("rb,rb->r", table_a[:, i], table_b[:, j], dtype=np.int64)

    # one division by 2^k: exact, so the same doubles as four divided terms
    terms = _chsh_columns(strategies.settings_a, strategies.settings_b, angles)
    s = sum(sign * total(i, j) for i, j, sign in terms)
    return s / table_a.shape[2]


def _best_response_chsh(k_bits: int, angles: tuple = CHSH_ANGLES) -> np.ndarray:
    """2^k_bits times the largest CHSH value over all side B tables, for
    each side A table of enumerate_strategies(2, 2, k_bits) in its order,
    as an int64 array; divided by 2^k_bits it is
    chsh_of(stack, angles).reshape(N_A, N_B).max(axis=1).

    CHSH * 2^k is a sum over the bit columns m of alpha(0,m) w_0 +
    alpha(1,m) w_1, where w_i is the signed sum of the beta(j,m) that
    CHSH_TERMS pairs side A's setting i with.  Column m of side B's table
    appears only in term m, so the best side B table takes the best of the
    four (beta(0,m), beta(1,m)) pairs in each column.
    """
    if k_bits > _k_bits_limit(2, 0):
        raise ValueError(
            f"enumeration guard: would require 2^{2 << k_bits} side A tables "
            f"(limit {MAX_TOTAL_STRATEGIES})"
        )
    terms = _chsh_columns(_default_settings(2, 0.0), _default_settings(2, math.pi / 4), angles)
    tables = _side_tables(2, k_bits)
    # (w_0, w_1) under each side B column (beta(0,m), beta(1,m))
    columns = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    weights = [[sum(s * col[j] for i, j, s in terms if i == a) for a in (0, 1)] for col in columns]
    best = np.maximum.reduce([tables[:, 0] * w_0 + tables[:, 1] * w_1 for w_0, w_1 in weights])
    return best.sum(axis=1, dtype=np.int64)


def epr_filter(
    strategies: DeterministicStrategy, common_settings: tuple[float, ...]
) -> DeterministicStrategy:
    """Keep the strategies that are perfectly anticorrelated at every
    common setting: beta(theta, bits) = -alpha(theta, bits) pointwise."""
    keep = np.ones(len(strategies), dtype=bool)
    for theta in common_settings:
        ia = _match_setting(strategies.settings_a, theta)
        ib = _match_setting(strategies.settings_b, theta)
        keep &= (strategies.table_b[:, ib] == -strategies.table_a[:, ia]).all(axis=1)
    return strategies[keep]


@dataclass(frozen=True)
class WignerReport:
    """Wigner inequality P++(0, 2t) <= P++(0, t) + P++(t, 2t) over the
    anticorrelated strategies, with the quantum values for contrast:
    ``quantum_lhs`` and ``quantum_rhs`` are the singlet's, whatever state
    is configured."""

    theta: float
    lhs: float
    rhs: float
    quantum_lhs: float
    quantum_rhs: float
    all_satisfied: bool
    worst_margin: float  # max over strategies of lhs - rhs (<= 0 when satisfied)


def wigner_check(filtered: DeterministicStrategy, theta: float) -> WignerReport:
    """Check the Wigner inequality for every filtered strategy; lhs and rhs
    are those of the first strategy with the largest lhs - rhs.

    Mixtures satisfy it automatically because both sides are linear in
    the strategy.  The quantum singlet values are (1/2) sin^2(theta) on
    the left against sin^2(theta/2) on the right, which violate the
    inequality for 0 < theta < pi/2.
    """
    if len(filtered) == 0:
        raise ValueError("no strategies to check")
    i0 = _match_setting(filtered.settings_a, 0.0)
    i1 = _match_setting(filtered.settings_a, theta)
    j1 = _match_setting(filtered.settings_b, theta)
    j2 = _match_setting(filtered.settings_b, 2.0 * theta)

    def p_plus_plus(ia, ib):
        hits = (filtered.table_a[:, ia] == 1) & (filtered.table_b[:, ib] == 1)
        return np.count_nonzero(hits, axis=1) / filtered.table_a.shape[2]

    lhs = p_plus_plus(i0, j2)
    rhs = p_plus_plus(i0, j1) + p_plus_plus(i1, j2)
    worst = int(np.argmax(lhs - rhs))
    margin = float(lhs[worst] - rhs[worst])
    return WignerReport(
        theta=theta,
        lhs=float(lhs[worst]),
        rhs=float(rhs[worst]),
        quantum_lhs=0.5 * math.sin(theta) ** 2,
        quantum_rhs=math.sin(theta / 2.0) ** 2,
        all_satisfied=margin <= 1e-12,
        worst_margin=margin,
    )


@dataclass(frozen=True)
class JanusRealization:
    """The flash-collapse law as a deterministic function of pre-given bits.

    Bits are consumed 32 per uniform, pattern draws first (a
    settings-independent prefix), then channel decisions in the native
    frame's temporal order.  ``model`` (a ModelId or its value) gives the
    channel rule, so ``ModelId.LOCAL_HV`` wraps the local model instead.
    ``bit_budget`` holds the most uniforms one run under ``params`` can
    draw (models._max_draws), and at least DEFAULT_BIT_BUDGET bits.
    """

    native_frame: Frame
    params: ModelParams = field(default_factory=ModelParams)
    model: ModelId = ModelId.RGRWF
    bit_budget: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "model", ModelId(self.model))
        budget = max(DEFAULT_BIT_BUDGET, BITS_PER_UNIFORM * _max_draws(self.params))
        object.__setattr__(self, "bit_budget", budget)


def janus_run(
    j: JanusRealization,
    settings,
    bits: np.ndarray,
    record_trace: bool = True,
) -> ExperimentRun:
    """One deterministic run: the law of ``j.model``, with every draw
    inverted from the fixed bit string."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (j.bit_budget,):
        raise ValueError(f"bits must have length {j.bit_budget}, got {bits.shape}")
    return _simulate_run(j.model, BitSource(bits), settings, j.native_frame, j.params, record_trace)


@dataclass(frozen=True, eq=False)
class InfluenceEvidence:
    """A witness bit string for which changing only the frame-later
    setting changes the frame-earlier region's outcome."""

    frame: Frame
    region: str
    witness_bits: np.ndarray
    setting_pairs: tuple[SettingPair, SettingPair]
    outcomes: tuple[int, int]

    def __post_init__(self):
        if self.outcomes[0] == self.outcomes[1]:
            raise ValueError("witness outcomes must differ")
        own = (
            (self.setting_pairs[0].b, self.setting_pairs[1].b)
            if self.region == "B"
            else (self.setting_pairs[0].a, self.setting_pairs[1].a)
        )
        if own[0] != own[1]:
            raise ValueError("witness must hold the region's own setting fixed")

    def to_json_dict(self) -> dict:
        return {
            "frame_rapidity": self.frame.rapidity,
            "region": self.region,
            "n_bits": int(self.witness_bits.size),
            "witness_bits_hex": np.packbits(self.witness_bits).tobytes().hex(),
            "setting_pairs": [
                [sp.a.angle, sp.b.angle] for sp in self.setting_pairs
            ],
            "outcomes": list(self.outcomes),
        }


def _first_region_in_frame(run: ExperimentRun, frame: Frame) -> str:
    best = min(run.flashes, key=lambda f: (frame.time(f.event.t, f.event.x), f.region, f.index))
    return best.region


def _center_order(params: ModelParams, frame: Frame) -> str:
    ra, rb = params.regions
    try:
        return "A" if precedes(ra.center(), rb.center(), frame) else "B"
    except SimultaneityTie:
        return "A"


def influence_witness_search(
    j: JanusRealization, probe_frame: Frame, n_samples: int, master_seed: int = 0
) -> InfluenceEvidence | None:
    """Search sampled bit strings for a past-influence witness in
    ``probe_frame``.

    Per sample: identify the region whose first flash is earliest in the
    probe frame (identical across arms, since the flash pattern does not
    read the settings), hold its own setting fixed, switch the other
    region's setting (quantum.flip_arms), and compare its outcome.
    Returns the first witness found, or None.
    """
    rng = np.random.Generator(np.random.PCG64(mix_seed(master_seed, 0)))
    for _ in range(n_samples):
        bits = random_bits(rng, j.bit_budget)
        try:
            # the first arm is the same pair whichever region is earlier
            run1 = janus_run(j, flip_arms("B")[0], bits, record_trace=False)
        except InconclusiveRunError:
            continue
        earlier = _first_region_in_frame(run1, probe_frame)
        pairs = flip_arms(earlier)
        # the same bits give the same flash pattern, so this run is conclusive too
        run2 = janus_run(j, pairs[1], bits, record_trace=False)
        o1 = run1.outcome.beta if earlier == "B" else run1.outcome.alpha
        o2 = run2.outcome.beta if earlier == "B" else run2.outcome.alpha
        if o1 != o2:
            return InfluenceEvidence(probe_frame, earlier, bits, pairs, (o1, o2))
    return None


def past_influence_probe(
    j: JanusRealization, other_frame: Frame, n_bits_samples: int, master_seed: int = 0
) -> InfluenceEvidence | None:
    """Witness search in a frame that reverses the regions' temporal order.

    For a realization native to an A-first frame probed in a B-first
    frame, B's channel was decided from the conditional given A's, so a
    witness exists and is typically found within tens of samples.
    """
    if _center_order(j.params, other_frame) == _center_order(j.params, j.native_frame):
        raise ValueError(
            "other_frame must reverse the regions' temporal order "
            "relative to the native frame"
        )
    return influence_witness_search(j, other_frame, n_bits_samples, master_seed)


@dataclass(frozen=True)
class CertifyConfig:
    params: ModelParams = field(default_factory=ModelParams)
    k_max: int = 2
    theta: float = math.pi / 3
    witness_samples: int = 1000
    master_seed: int = 1


@dataclass(frozen=True)
class Certificate:
    """Machine-readable bundle: exhaustive local bound + Janus witness."""

    enumeration: tuple[dict, ...]
    epr_filter: dict
    wigner: WignerReport
    janus_witness: InfluenceEvidence

    def to_json_dict(self) -> dict:
        return {
            "enumeration": list(self.enumeration),
            "epr_filter": dict(self.epr_filter),
            "wigner": {
                "theta": self.wigner.theta,
                "lhs": self.wigner.lhs,
                "rhs": self.wigner.rhs,
                "quantum_lhs": self.wigner.quantum_lhs,
                "quantum_rhs": self.wigner.quantum_rhs,
            },
            "janus_witness": self.janus_witness.to_json_dict(),
        }


def no_effectively_causal_nonlocal_determinism_check(
    config: CertifyConfig | None = None,
) -> Certificate:
    """Desk-scale certificate that determinism cannot be both effectively
    causal and adequate to the quantum statistics.

    (i) Every deterministic strategy of the pre-given-bits class has a
    frame-independent dependence pattern (each output reads only its own
    setting and the bits), so for this class effective causality in every
    frame is the same thing as locality; the CHSH maximum over the class
    is exactly 2, short of the quantum 2 sqrt(2).  The maximum covers
    every strategy of the class: each side A table meets side B's best
    response, which is the best side B column in each bit column, because
    CHSH is a sum over the bit columns and side B's column m enters only
    term m.
    (ii) The perfect-anticorrelation survivors all satisfy the Wigner
    inequality that the quantum values violate.
    (iii) The bit-consuming realization that *is* adequate (the Janus
    realization of the flash process) carries a past-influence witness in
    any order-reversing frame.
    """
    config = config if config is not None else CertifyConfig()
    entries = []
    for k in range(config.k_max + 1):
        entries.append(
            {
                "n_a": 2,
                "n_b": 2,
                "k": k,
                "count": 1 << (4 << k),
                "max_chsh": float(_best_response_chsh(k).max() / 2**k),
            }
        )

    theta = config.theta
    common = (0.0, theta, 2.0 * theta)
    filtered = epr_filter(
        enumerate_strategies(3, 3, 0, settings_a=common, settings_b=common), common
    )
    wigner = wigner_check(filtered, theta)

    j = JanusRealization(Frame(0.0), config.params)
    ra, rb = config.params.regions
    flip_frame = order_flip_rapidity(ra.center(), rb.center())
    witness = past_influence_probe(
        j, flip_frame, config.witness_samples, config.master_seed
    )
    if witness is None:
        raise RuntimeError(
            f"no past-influence witness found in {config.witness_samples} samples; "
            "the Janus construction should yield one"
        )
    return Certificate(
        enumeration=tuple(entries),
        epr_filter={"survivor_count": len(filtered)},
        wigner=wigner,
        janus_witness=witness,
    )
