"""Hypothesis fuzzing of the command line: config text, argv and report files.

Every input must end in one of three ways: a result (exit 0), argparse's
usage error (exit 2), or one ``error:`` line on stderr with exit 1.  Any
other exception is a traceback and fails the property, as does an example
slower than the deadline.  Examples are derandomized so that the suite
gives the same verdict on every run.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from flashlab.cli import _KNOWN_KEYS, main

FUZZ = settings(max_examples=100, deadline=10_000, derandomize=True)

_NUMBER = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-30.0, 30.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-0.0", "1e-320", "0x10", "1_0", "true"]),
)
_VALUE = st.one_of(
    _NUMBER,
    st.lists(_NUMBER, max_size=5).map(" ".join),
    st.lists(_NUMBER, min_size=4, max_size=4).map(lambda xs: " ".join(f"{x},0" for x in xs)),
    st.sampled_from(["singlet", "rgrwf", "local_hv", "yes", "off", ""]),
    st.text(max_size=10),
)


@st.composite
def _config_text(draw):
    """Sections of known keys with fuzzed values, and now and then one
    line of anything.  out_dir is left out: every call passes --out, which
    overrides it anyway."""
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(_KNOWN_KEYS)), max_size=4)):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(sorted(_KNOWN_KEYS[section] - {"out_dir"})),
                                 max_size=3)):
            lines.append(f"{key} = {draw(_VALUE)}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=16)))
    return "\n".join(lines)


# classify and certify read their own sizes; these keep each example small
_SMALL = {
    "classify": "[classify]\nn_qf = 12\nn_nosig = 12\nn_locality = 12\nn_eff = 4\n",
    "certify": "[certify]\nwitness_samples = 50\n",
    "run": "",
}


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _assert_clean_end(code, err):
    assert "Traceback" not in err
    if code == 2:
        assert "usage: flashlab" in err
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 0


@FUZZ
@given(command=st.sampled_from(sorted(_SMALL)), text=_config_text())
def test_config_text_ends_cleanly(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.ini"
        # the fuzzed text may override the sizes, but only with small
        # integers, as _NUMBER draws no larger ones
        config.write_text(_SMALL[command] + text)
        # only run takes --n; classify and certify stop at argparse on it
        n = ("--n", "30") if command == "run" else ()
        code, err = _invoke(
            [command, "--config", str(config), *n, "--out", str(Path(tmp) / "out")]
        )
    _assert_clean_end(code, err)


_FLAG = st.one_of(
    st.tuples(st.just("--model"), st.sampled_from(["rgrwf", "preferred_frame", "local_hv", "x"])),
    st.tuples(st.sampled_from(["--n", "--seed"]), st.integers(-3, 40).map(str)),
    st.tuples(st.sampled_from(["--frame", "--a", "--b"]), _NUMBER),
    st.just(("--csv",)),
    st.tuples(st.sampled_from(["--n", "--bogus"]), _NUMBER),  # mostly argparse's usage exit
)


# the flags of _FLAG that each command takes
_TAKES = {
    "run": {"--model", "--n", "--seed", "--frame", "--a", "--b", "--csv"},
    "classify": {"--model", "--seed"},
    "certify": {"--seed"},
}


@FUZZ
@given(command=st.sampled_from(sorted(_SMALL)), flags=st.lists(_FLAG, max_size=5))
def test_argv_ends_cleanly(command, flags):
    # any flag a command does not take ends at argparse's usage exit, before
    # the config is read; --bogus alone stands for those, so that most
    # examples of classify and certify reach RunConfig
    flags = [flag for flag in flags if flag[0] in _TAKES[command] or flag[0] == "--bogus"]
    argv = [command, *(part for flag in flags for part in flag)]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "small.ini"
        config.write_text(_SMALL[command])
        code, err = _invoke([*argv, "--config", str(config), "--out", str(Path(tmp) / "out")])
    _assert_clean_end(code, err)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_CELLS = {key: 0.25 for key in ("++", "+-", "-+", "--")}
# one payload of each shape that run, classify and certify write
_REPORTS = {
    "run": {"command": "run", "model": "rgrwf", "a": 0.0, "b": 1.0, "frame_rapidity": 0.0,
            "n": 4, "master_seed": 1, "frequencies": _CELLS, "oracle": _CELLS,
            "inconclusive": 0},
    "classify": {"model": "rgrwf", "tests": [
        {"name": name, "statistic": 0.5, "threshold": 0.0, "p_bound": 1.0, "verdict": "pass"}
        for name in ("qf_agreement", "no_signalling", "locality", "effective_locality",
                     "effective_causality")
    ]},
    "certify": {"enumeration": [{"k": 0, "count": 16, "max_chsh": 2.0}],
                "epr_filter": {"survivor_count": 8},
                "wigner": {"lhs": 0.1, "rhs": 0.2, "quantum_lhs": 0.3, "quantum_rhs": 0.2},
                "janus_witness": {"frame_rapidity": 1.0, "region": "B"}},
}


@st.composite
def _mutated_report(draw):
    """A valid payload with up to three top-level fields dropped or
    replaced by arbitrary JSON."""
    payload = dict(_REPORTS[draw(st.sampled_from(sorted(_REPORTS)))])
    for key in draw(st.lists(st.sampled_from(sorted(payload)), max_size=3)):
        if draw(st.booleans()):
            payload.pop(key, None)
        else:
            payload[key] = draw(_JSON)
    return json.dumps(payload).encode()


_REPORT_BYTES = st.one_of(
    _mutated_report(),
    _JSON.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=40),
)


@FUZZ
@given(content=_REPORT_BYTES)
def test_report_ends_cleanly(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_bytes(content)
        code, err = _invoke(["report", str(path)])
    _assert_clean_end(code, err)
