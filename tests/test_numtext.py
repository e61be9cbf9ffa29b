"""numtext's text of numbers against Python's own repr and str, byte for
byte.  The flash CSV prints every coordinate through repr_chars, so a
difference here is a difference in that file."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashlab import numtext
from flashlab.numtext import _shortest, int_chars, repr_chars


def lines_of(chars: np.ndarray) -> bytes:
    """The texts of a numtext character matrix, one per line."""
    newline = np.full((chars.shape[0], 1), ord("\n"), dtype=np.uint8)
    table = np.hstack([chars, newline]).ravel()
    return table.compress(table != 0).tobytes()


def assert_matches(chars: np.ndarray, want: list[str]):
    got = lines_of(chars)
    if got != "".join(f"{w}\n" for w in want).encode():
        got_lines = got.decode().split("\n")[:-1]
        bad = [(w, g) for w, g in zip(want, got_lines) if w != g]
        pytest.fail(f"{len(got_lines)} texts for {len(want)} values; "
                    f"{len(bad)} differ, first (want, got): {bad[:3]}")


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    assert_matches(repr_chars(values), [repr(v) for v in values.tolist()])


def test_repr_of_a_million_doubles():
    rng = np.random.default_rng(2024)
    signs = rng.choice([-1.0, 1.0], 300_000)
    values = np.concatenate([
        # every exponent, subnormals, inf and nan: random bit patterns
        rng.integers(0, 2**64, 400_000, dtype=np.uint64, endpoint=False).view(np.float64),
        # the range the exact path covers, and a decade or two past it
        signs * 10.0 ** rng.uniform(-9.0, 19.0, 300_000),
        # coordinates like the flash CSV's
        rng.random(100_000),
        rng.uniform(-11.0, -10.0, 50_000),
        rng.uniform(-10.0, 10.0, 50_000),
        # short decimals and integral values
        np.round(rng.uniform(-1e3, 1e3, 50_000), 3),
        np.round(rng.uniform(-1e6, 1e6, 50_000) * 2.0) / 2.0,
    ])
    assert values.size == 1_000_000
    assert_matches_repr(values)


POWERS_OF_TEN = [float(f"1e{k}") for k in range(-9, 20)]
EDGE_CASES = [
    0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e-5, 9.999999999999999e-5, 1e-4, 1e15, 1e16, 9007199254740993.0,
    0.1, 1 / 3, math.inf, math.nan,
    *(2.0**k for k in range(-60, 61)),
    # where the exponent form starts and ends, and where the exact path
    # gives way to repr: each power of ten and its two neighbours
    *POWERS_OF_TEN,
    *(math.nextafter(p, 0.0) for p in POWERS_OF_TEN),
    *(math.nextafter(p, math.inf) for p in POWERS_OF_TEN),
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_repr_of_edge_cases(sign):
    assert_matches_repr([sign * v for v in EDGE_CASES])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_repr_property(values):
    assert_matches_repr(values)


def test_repr_is_called_on_the_undecided_values_only(monkeypatch):
    undecided = [0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, -2.0**40,
                 9e-7, 1e17, -5e-324, 1.7976931348623157e308]
    coordinates = list(np.random.default_rng(3).uniform(-11.0, 11.0, 10_000))
    values = np.array(coordinates[:5000] + undecided + coordinates[5000:])
    assert not _shortest(np.abs(np.array(undecided)))[3].any()
    assert _shortest(np.abs(np.array(coordinates)))[3].all()
    called = []

    def counting_repr(value):
        called.append(value)
        return repr(value)

    monkeypatch.setattr(numtext, "repr", counting_repr, raising=False)
    chars = repr_chars(values)
    monkeypatch.undo()
    assert_matches(chars, [repr(v) for v in values.tolist()])
    assert [repr(v) for v in called] == [repr(v) for v in undecided]


def test_int_chars_match_str():
    rng = np.random.default_rng(5)
    values = np.concatenate([
        [0, 1, -1, 9, 10, -10, 99, 100, 2**63 - 1, -(2**63 - 1)],
        rng.integers(-10**18, 10**18, 20_000),
        rng.integers(-1000, 1000, 20_000),
    ])
    assert_matches(int_chars(values), [str(v) for v in values.tolist()])
    assert_matches(int_chars(np.arange(12)), [str(v) for v in range(12)])
    assert int_chars(np.arange(12)).shape == (12, 2)  # no sign column without a sign
