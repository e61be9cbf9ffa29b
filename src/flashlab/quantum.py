"""Exact two-qubit quantum formalism: states, Born rule, projective collapse.

This is the analytic oracle the stochastic models are judged against.
States live in the fixed z-basis ordered

    BASIS = ((+1,+1), (+1,-1), (-1,+1), (-1,-1))

with (s_A, s_B) the spin signs of the two particles.  Measurement
directions are confined to one great circle and parameterized by a single
angle theta, with spin operator cos(theta) sigma_z + sin(theta) sigma_x,
which is all that CHSH and Wigner-type arguments require.  For the spin
singlet this gives the textbook joint law

    P(alpha, beta) = 1/4 (1 - alpha beta cos(a - b)).

All operations are pure functions over immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12
_TWO_PI = 2.0 * math.pi

BASIS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

CHANNELS = (+1, -1)
SIDES = ("A", "B")

# The CHSH settings (a, a', b, b'), at which the singlet reaches the
# Tsirelson value.
CHSH_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
# S = E(a,b) - E(a,b') + E(a',b) + E(a',b'): each term's index into (a, a'), into (b, b'), sign
CHSH_TERMS = ((0, 0, +1), (0, 1, -1), (1, 0, +1), (1, 1, +1))

# The flip probe: the frame-later region's setting moves from the first of
# these to the second while the frame-earlier region keeps the first, so
# the probe's first arm is the same pair whichever region is earlier.
FLIP_SETTINGS = (0.0, math.pi / 2)


class NormalizationError(ValueError):
    """State vector is not normalized within NORM_TOL."""


class ZeroProbabilityError(ValueError):
    """Conditioning or collapsing on an outcome of zero Born probability."""


@dataclass(frozen=True)
class Setting:
    """An idealized Stern-Gerlach direction: one angle, normalized to [0, 2pi),
    with the cos and sin of half the angle that every collapse reads."""

    angle: float
    cos_half: float = field(init=False, repr=False, compare=False)
    sin_half: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError("setting angle must be finite")
        object.__setattr__(self, "angle", self.angle % _TWO_PI)
        object.__setattr__(self, "cos_half", math.cos(0.5 * self.angle))
        object.__setattr__(self, "sin_half", math.sin(0.5 * self.angle))


@dataclass(frozen=True)
class SettingPair:
    """The pair of field directions chosen on side A and side B."""

    a: Setting
    b: Setting

    def __post_init__(self):
        if not isinstance(self.a, Setting):
            object.__setattr__(self, "a", Setting(float(self.a)))
        if not isinstance(self.b, Setting):
            object.__setattr__(self, "b", Setting(float(self.b)))


def flip_arms(earlier: str) -> tuple[SettingPair, SettingPair]:
    """The two settings pairs of a flip probe in which region ``earlier``
    is frame-earlier: it keeps its own setting while the other region's
    setting moves (FLIP_SETTINGS)."""
    keep = FLIP_SETTINGS[0]
    if _require_side(earlier) == "B":
        return tuple(SettingPair(s, keep) for s in FLIP_SETTINGS)
    return tuple(SettingPair(keep, s) for s in FLIP_SETTINGS)


@dataclass(frozen=True)
class Outcome:
    """Detected channels on the two sides, each +1 or -1."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha not in (1, -1):
            raise ValueError(f"alpha must be +1 or -1, got {self.alpha}")
        if self.beta not in (1, -1):
            raise ValueError(f"beta must be +1 or -1, got {self.beta}")


@dataclass(frozen=True)
class PureState:
    """Normalized two-particle spin state in the fixed z-basis.

    ``amplitudes`` holds four complex components in BASIS order.  The
    constructor enforces normalization within NORM_TOL and freezes the
    array.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (4,):
            raise ValueError(f"need 4 amplitudes in basis order {BASIS}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(amps.real**2 + amps.imag**2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise NormalizationError(
                f"state norm^2 = {norm_sq!r} deviates from 1 beyond {NORM_TOL}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def as_matrix(self) -> np.ndarray:
        """2x2 amplitude matrix, row = A spin (+1 first), column = B spin."""
        return self.amplitudes.reshape(2, 2)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def singlet() -> PureState:
    """The spin singlet (|+-> - |-+>)/sqrt(2), the canonical EPR pair."""
    s = 1.0 / math.sqrt(2.0)
    return PureState(np.array([0.0, s, -s, 0.0], dtype=np.complex128))


def eigenvector(setting: Setting | float, channel: int) -> np.ndarray:
    """Real z-basis eigenvector of the spin operator along ``setting``.

    channel +1 -> (cos t/2, sin t/2), channel -1 -> (-sin t/2, cos t/2).
    """
    theta = _angle(setting)
    if channel == +1:
        return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])
    if channel == -1:
        return np.array([-math.sin(theta / 2.0), math.cos(theta / 2.0)])
    raise ValueError(f"channel must be +1 or -1, got {channel}")


def _angle(setting) -> float:
    if isinstance(setting, Setting):
        return setting.angle
    return float(setting) % _TWO_PI


def _require_side(side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return side


def born_joint(state: PureState, settings: SettingPair) -> dict[tuple[int, int], float]:
    """Joint Born probabilities {(alpha, beta): p} for the setting pair.

    Computed by contracting the rank-1 projector pair onto the state:
    p(alpha, beta) = |v_alpha(a)^T M v_beta(b)|^2 with M the amplitude
    matrix.  Nonnegative, sums to 1 within NORM_TOL.
    """
    m = state.as_matrix()
    a, b = settings.a.angle, settings.b.angle
    out = {}
    for alpha in CHANNELS:
        row = eigenvector(a, alpha) @ m
        for beta in CHANNELS:
            amp = complex(row @ eigenvector(b, beta))
            out[(alpha, beta)] = amp.real**2 + amp.imag**2
    return out


def born_marginal(state: PureState, side: str, setting: Setting | float) -> tuple[float, float]:
    """Marginal Born probabilities (p_plus, p_minus) for one side.

    Equals the joint summed over the other side's outcomes and is
    independent of the other side's setting.
    """
    _require_side(side)
    m = state.as_matrix()
    theta = _angle(setting)
    probs = []
    # both channels computed directly (not 1 - p) so each stays nonnegative
    for channel in CHANNELS:
        v = eigenvector(theta, channel)
        proj = v @ m if side == "A" else m @ v
        probs.append(float(np.sum(proj.real**2 + proj.imag**2)))
    return (probs[0], probs[1])


def born_conditional(
    state: PureState,
    settings: SettingPair,
    given_side: str,
    given_channel: int,
) -> tuple[float, float]:
    """Conditional probabilities (p_plus, p_minus) for the other side,
    given that ``given_side`` came out in ``given_channel``.
    """
    _require_side(given_side)
    joint = born_joint(state, settings)
    if given_side == "A":
        marg = joint[(given_channel, +1)] + joint[(given_channel, -1)]
        pair = (joint[(given_channel, +1)], joint[(given_channel, -1)])
    else:
        marg = joint[(+1, given_channel)] + joint[(-1, given_channel)]
        pair = (joint[(+1, given_channel)], joint[(-1, given_channel)])
    if marg <= 1e-14:
        raise ZeroProbabilityError(
            f"cannot condition on {given_side}={given_channel:+d}: marginal is zero"
        )
    return (pair[0] / marg, pair[1] / marg)


def collapse(
    state: PureState,
    side: str,
    setting: Setting | float,
    channel: int,
    epsilon: float = 0.0,
) -> PureState:
    """Project one side onto a channel and renormalize.

    epsilon = 0 is exact projection; epsilon > 0 keeps a floor of the
    orthogonal part (amplitudes of the other channel scaled by epsilon)
    before renormalization, mimicking a collapse that only nearly zeroes
    the other channels.
    """
    _require_side(side)
    if not 0.0 <= epsilon <= 0.1:
        raise ValueError(f"epsilon must lie in [0, 0.1], got {epsilon}")
    m = state.as_matrix()
    theta = _angle(setting)
    v = eigenvector(theta, channel)
    if side == "A":
        proj = np.outer(v, v @ m)
    else:
        proj = np.outer(m @ v, v)
    kept = proj if epsilon == 0.0 else proj + epsilon * (m - proj)
    norm = float(np.linalg.norm(kept))
    if norm < 1e-14:
        raise ZeroProbabilityError(
            f"cannot collapse {side} onto channel {channel:+d}: Born probability is zero"
        )
    return PureState((kept / norm).reshape(4))


def correlator(state: PureState, settings: SettingPair) -> float:
    """E(a, b) = sum alpha beta P(alpha, beta); -cos(a - b) on the singlet."""
    joint = born_joint(state, settings)
    return sum(alpha * beta * p for (alpha, beta), p in joint.items())


def chsh_value(
    state: PureState,
    a: Setting | float,
    a_prime: Setting | float,
    b: Setting | float,
    b_prime: Setting | float,
) -> float:
    """CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b').

    With the minus on the (a, b') correlator, the singlet attains the
    Tsirelson value -2 sqrt(2) at (a, a', b, b') = (0, pi/2, pi/4, 3pi/4);
    any local deterministic model is bounded by |S| <= 2.
    """
    a_side, b_side = ([Setting(_angle(x)) for x in side] for side in ((a, a_prime), (b, b_prime)))
    s = 0.0
    for i, j, sign in CHSH_TERMS:
        s += sign * correlator(state, SettingPair(a_side[i], b_side[j]))
    return s


def random_pure_state(rng: np.random.Generator) -> PureState:
    """Haar-random two-qubit pure state (normalized complex Gaussian)."""
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PureState(amps / np.linalg.norm(amps))
