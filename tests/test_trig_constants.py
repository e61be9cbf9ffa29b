"""One home for the contract's trig constants and the boosted time.

A Frame computes cosh and sinh of its rapidity once, and a Setting cos and
sin of half its angle once; the scalar runs, the counts kernel and the
flash path read those attributes and call no trig function of their own.
The constants take no part in a value's equality, hash or repr.  Every
boosted time outside the counts kernel is Frame.time, boost_time's value.
"""

import dataclasses
import math

import numpy as np
import pytest

from flashlab.determinism import JanusRealization, past_influence_probe
from flashlab.minkowski import (
    Event,
    Frame,
    Region,
    boost,
    boost_time,
    order_flip_rapidity,
    precedes,
    region_frame_order,
)
from flashlab.models import (
    DEFAULT_REGION_A,
    DEFAULT_REGION_B,
    EnsembleRequest,
    FlashEnsemble,
    ModelId,
    ensembles,
    run_model,
)
from flashlab.quantum import Setting, SettingPair


def _refuse(*args):
    raise AssertionError("trig call after the Frames and Settings were built")


@pytest.mark.parametrize("model", [ModelId.RGRWF, ModelId.PREFERRED_FRAME])
def test_runs_and_sweeps_call_no_trig_function(model, monkeypatch):
    frames = [Frame(0.0), Frame(0.7)]
    pair, flipped = SettingPair(0.3, 1.1), SettingPair(0.3, 2.5)
    for name in ("cos", "sin", "cosh", "sinh"):
        monkeypatch.setattr(math, name, _refuse)
    for frame in frames:
        run = run_model(model, pair, frame, seed=3)
        assert run.flashes
        results = ensembles(model, [
            EnsembleRequest((pair,), frame, 60, 1),
            EnsembleRequest((pair, flipped), frame, 60, 1),
        ])
        assert [int(joint.sum()) + dropped for joint, dropped in results] == [60, 60]
    block = next(iter(FlashEnsemble(model, pair, frames[1], n=60, master_seed=1)))
    assert block.run_id.size > 0


def test_the_constants_are_todays_calls():
    for chi in (-0.7, 0.0, 1.0, 10.0):
        frame = Frame(chi)
        assert (frame.cosh, frame.sinh) == (math.cosh(chi), math.sinh(chi))
    for theta in (-0.5, 0.0, 1.0472, 7.0):
        setting = Setting(theta)
        half = 0.5 * (theta % (2 * math.pi))
        assert (setting.cos_half, setting.sin_half) == (math.cos(half), math.sin(half))


def test_the_constants_leave_equality_hash_and_repr_alone():
    frame, setting = Frame(0.7), Setting(0.4)
    assert repr(frame) == "Frame(rapidity=0.7)"
    assert repr(setting) == "Setting(angle=0.4)"
    assert repr(SettingPair(0.4, 1.0)) == "SettingPair(a=Setting(angle=0.4), b=Setting(angle=1.0))"
    assert hash(frame) == hash((0.7,)) and hash(setting) == hash((0.4,))
    # a value whose constants were altered still equals and hashes as before
    for value, names in ((frame, ("cosh", "sinh")), (setting, ("cos_half", "sin_half"))):
        altered = dataclasses.replace(value)
        for name in names:
            object.__setattr__(altered, name, -2.0)
        assert altered == value and hash(altered) == hash(value)


def test_replace_recomputes_the_constants():
    frame = dataclasses.replace(Frame(0.7), rapidity=-1.2)
    assert (frame.cosh, frame.sinh) == (math.cosh(-1.2), math.sinh(-1.2))
    setting = dataclasses.replace(Setting(0.4), angle=7.0)
    half = 0.5 * (7.0 % (2 * math.pi))
    assert (setting.cos_half, setting.sin_half) == (math.cos(half), math.sin(half))


def test_every_boosted_time_is_frame_time(monkeypatch):
    calls = []
    time = Frame.time

    def counted(self, t, x):
        calls.append(self.rapidity)
        return time(self, t, x)

    monkeypatch.setattr(Frame, "time", counted)
    frame, e1, e2 = Frame(0.7), Event(0.0, -1.0), Event(0.5, 2.0)
    flip = order_flip_rapidity(DEFAULT_REGION_A.center(), DEFAULT_REGION_B.center())
    janus = JanusRealization(Frame(0.0))
    flashes = FlashEnsemble(ModelId.RGRWF, (0.3, 1.1), frame, n=60, master_seed=1)
    stages = {
        "boost": lambda: boost(e1, frame),
        "precedes": lambda: precedes(e1, e2, frame),
        "region_frame_order": lambda: region_frame_order(
            Region(0, 1, -11, -10), Region(0, 1, 10, 11), frame
        ),
        "run_model": lambda: run_model(ModelId.RGRWF, (0.3, 1.1), frame, seed=3),
        "FlashEnsemble": lambda: next(iter(flashes)),
        "past_influence_probe": lambda: past_influence_probe(janus, flip, 20, 1),
    }
    for name, stage in stages.items():
        calls.clear()
        stage()
        assert calls, f"{name} computed a boosted time without Frame.time"


def test_frame_time_is_boost_time():
    t = np.array([0.0, 0.25, -3.0, 1e6, 7.5])
    x = np.array([10.5, -11.0, 0.0, 2.0, -1e-9])
    for chi in (-0.7, 0.0, 1.0, 10.0):
        frame = Frame(chi)
        for ti, xi in zip(t.tolist(), x.tolist()):
            assert frame.time(ti, xi) == boost_time(ti, xi, chi)
        assert (frame.time(t, x) == boost_time(t, x, chi)).all()
