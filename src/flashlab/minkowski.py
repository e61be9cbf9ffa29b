"""1+1-dimensional Minkowski geometry (natural units, c = 1).

Events, boosts along x, spacelike separation, frame-relative temporal
order, and the rapidity beyond which a spacelike pair's order flips.
Temporal order of spacelike-separated events is the only frame-dependent
quantity the rest of the package relies on, and 1+1 dimensions exhibit it
fully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

RAPIDITY_LIMIT = 20.0  # cosh(20) ~ 2.4e8 keeps double precision meaningful
TIE_TOLERANCE = 1e-12


class SimultaneityTie(Exception):
    """Boosted times agree within tolerance; caller must tie-break.

    The tie rule everywhere in this package is A before B by position:
    the first region of ``ModelParams.regions`` is A, the second B.
    """

    def __init__(self, e1: "Event", e2: "Event", frame: "Frame"):
        self.events = (e1, e2)
        self.frame = frame
        super().__init__(
            f"events {e1} and {e2} are simultaneous in frame {frame} "
            f"within {TIE_TOLERANCE}; apply the rule A before B"
        )


@dataclass(frozen=True)
class Event:
    """A space-time point (t, x)."""

    t: float
    x: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", float(self.x))
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError(f"event coordinates must be finite, got ({self.t}, {self.x})")


@dataclass(frozen=True)
class Frame:
    """An inertial frame reached by a boost of given rapidity along x.

    rapidity = 0 is the lab frame; the boost hyperplanes of constant t'
    are this frame's simultaneity surfaces.  Every boost and frame-time
    order reads ``time`` and the ``cosh`` and ``sinh`` computed here.
    """

    rapidity: float = 0.0
    cosh: float = field(init=False, repr=False, compare=False)
    sinh: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rapidity", float(self.rapidity))
        if not math.isfinite(self.rapidity) or abs(self.rapidity) > RAPIDITY_LIMIT:
            raise ValueError(
                f"|rapidity| must be <= {RAPIDITY_LIMIT} (got {self.rapidity})"
            )
        object.__setattr__(self, "cosh", math.cosh(self.rapidity))
        object.__setattr__(self, "sinh", math.sinh(self.rapidity))

    def time(self, t, x):
        """Lab (t, x)'s time here, t cosh(chi) - x sinh(chi); floats or arrays."""
        return t * self.cosh - x * self.sinh


@dataclass(frozen=True)
class Region:
    """Axis-aligned space-time box in lab coordinates.  Its role, A or B,
    is its position in ``ModelParams.regions``."""

    t_min: float
    t_max: float
    x_min: float
    x_max: float

    def __post_init__(self):
        for name in ("t_min", "t_max", "x_min", "x_max"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.t_min < self.t_max:
            raise ValueError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")

    def corners(self) -> tuple[Event, Event, Event, Event]:
        return (
            Event(self.t_min, self.x_min),
            Event(self.t_min, self.x_max),
            Event(self.t_max, self.x_min),
            Event(self.t_max, self.x_max),
        )

    def center(self) -> Event:
        return Event(0.5 * (self.t_min + self.t_max), 0.5 * (self.x_min + self.x_max))


def boost_time(t: float, x: float, rapidity: float) -> float:
    """Time coordinate of (t, x) in the boosted frame."""
    return t * math.cosh(rapidity) - x * math.sinh(rapidity)


def boost(e: Event, f: Frame) -> Event:
    """Lorentz-boost an event into frame f.

    t' = t cosh(chi) - x sinh(chi),  x' = x cosh(chi) - t sinh(chi).
    """
    return Event(f.time(e.t, e.x), e.x * f.cosh - e.t * f.sinh)


def interval(e1: Event, e2: Event) -> float:
    """Signed Minkowski interval (dt)^2 - (dx)^2.

    Negative for spacelike, positive for timelike, zero for lightlike
    separation; invariant under boosts.
    """
    dt = e2.t - e1.t
    dx = e2.x - e1.x
    return dt * dt - dx * dx


def spacelike(e1: Event, e2: Event) -> bool:
    return bool(interval(e1, e2) < 0.0)


def precedes(e1: Event, e2: Event, f: Frame) -> bool:
    """True iff e1 happens before e2 in frame f.

    Raises SimultaneityTie when the boosted times agree within
    TIE_TOLERANCE; the caller applies the rule A before B.
    """
    t1, t2 = f.time(e1.t, e1.x), f.time(e2.t, e2.x)
    if abs(t1 - t2) <= TIE_TOLERANCE:
        raise SimultaneityTie(e1, e2, f)
    return bool(t1 < t2)


def order_flip_rapidity(e1: Event, e2: Event) -> Frame:
    """A frame in which the lab-frame temporal order of e1, e2 reverses.

    Only spacelike pairs admit one.  The flip threshold is
    tanh(chi) = dt/dx; the returned rapidity is the midpoint between the
    threshold and the rapidity guard, on the flipping side.  A lab-frame
    tie counts as "e1 first" via the A < B convention, so the returned
    frame puts e2 strictly first.
    """
    if not spacelike(e1, e2):
        raise ValueError("order is frame-invariant: events are not spacelike separated")
    dt = e2.t - e1.t
    dx = e2.x - e1.x
    ratio = dt / dx  # |ratio| < 1 for spacelike pairs
    # boosted sign is sign(dx) * sign(ratio - tanh(chi)), so the order
    # reverses once tanh(chi) passes ratio on ratio's own side; a lab-frame
    # tie (ratio = 0) counts as "e1 first" and flips for chi toward dx
    threshold = math.atanh(ratio)
    direction = ratio if ratio != 0.0 else dx
    bound = math.copysign(RAPIDITY_LIMIT, direction)
    return Frame(0.5 * (threshold + bound))


def regions_spacelike(r_a: Region, r_b: Region) -> bool:
    """True iff every point pair across the two boxes is spacelike: their x
    ranges are disjoint, so the least |dx| falls at corners, and every corner pair is."""
    disjoint = r_a.x_max < r_b.x_min or r_b.x_max < r_a.x_min
    return disjoint and all(spacelike(ca, cb) for ca in r_a.corners() for cb in r_b.corners())


def region_frame_order(r_a: Region, r_b: Region, f: Frame) -> str | None:
    """Which region's box lies strictly earlier in frame f.

    Returns "A" or "B" when every point of one box precedes every point
    of the other (it suffices to compare boosted corner times), or None
    when the boxes overlap in frame time.
    """
    times_a, times_b = ([f.time(c.t, c.x) for c in r.corners()] for r in (r_a, r_b))
    if max(times_a) < min(times_b):
        return "A"
    if max(times_b) < min(times_a):
        return "B"
    return None
