"""CLI tests: config handling, outputs, reproducibility, report rendering."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flashlab.cli import main

PI_THIRD = math.pi / 3
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_table_and_json(tmp_path, capsys):
    code = run_cli(
        "run", "--model", "rgrwf", "--a", "0", "--b", str(PI_THIRD),
        "--n", "4000", "--seed", "42", "--out", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome" in out and "born" in out
    assert "0.125" in out  # the oracle column
    payload = json.loads((tmp_path / "run_rgrwf.json").read_text())
    assert payload["command"] == "run"
    assert payload["n"] == 4000
    assert set(payload["counts"]) == {"++", "+-", "-+", "--"}
    total = sum(payload["counts"].values()) + payload["inconclusive"]
    assert total == 4000
    assert payload["oracle"]["++"] == pytest.approx(0.125, abs=1e-12)


def test_run_reruns_byte_identical(tmp_path):
    args = (
        "run", "--model", "rgrwf", "--a", "0", "--b", "0.5",
        "--n", "2000", "--seed", "7", "--out", str(tmp_path),
    )
    assert run_cli(*args) == 0
    first = (tmp_path / "run_rgrwf.json").read_bytes()
    assert run_cli(*args) == 0
    assert (tmp_path / "run_rgrwf.json").read_bytes() == first


@pytest.mark.parametrize("model", ["rgrwf", "preferred_frame", "local_hv"])
def test_run_csv_dump(tmp_path, capsys, model):
    argv = ("run", "--model", model, "--a", "0", "--b", "0", "--n", "50", "--seed", "3")
    assert run_cli(*argv, "--out", str(tmp_path / "csv"), "--csv") == 0
    csv_out = capsys.readouterr().out
    lines = (tmp_path / "csv" / f"flashes_{model}.csv").read_text().strip().splitlines()
    assert lines[0] == "run_id,region,t_lab,x_lab,t_frame,channel,index"
    assert len(lines) > 50  # several flashes per run
    # the CSV path must count outcomes exactly like the plain path: the
    # same run json, byte for byte, and the same stdout
    assert run_cli(*argv, "--out", str(tmp_path / "plain")) == 0
    assert capsys.readouterr().out == csv_out
    name = f"run_{model}.json"
    assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_run_csv_into_new_directory(tmp_path):
    out = tmp_path / "new" / "nested"
    code = run_cli(
        "run", "--model", "local_hv", "--n", "40", "--seed", "5", "--out", str(out), "--csv",
    )
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["flashes_local_hv.csv", "run_local_hv.json"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_output_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        code = run_cli("run", "--n", "20", "--seed", "5", "--out", str(tmp_path), "--csv")
    finally:
        os.umask(old)
    assert code == 0
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"flashes_rgrwf.csv": 0o644, "run_rgrwf.json": 0o644}


@pytest.mark.parametrize("rate", ["760", "inf"])
def test_runaway_flash_rate_is_config_error(tmp_path, capsys, rate):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nflash_rate = {rate}\n")
    code = run_cli("run", "--config", str(cfg), "--n", "10", "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "invalid parameters" in err and "flash_rate" in err
    assert not (tmp_path / "run_rgrwf.json").exists()


@pytest.mark.parametrize("command", ["run", "classify"])
def test_overlapping_regions_are_config_error(tmp_path, capsys, command):
    # region A's box contains region B's default box (0 1 10 11)
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[regions]\na_box = 0 1 -20 20\n")
    code = run_cli(command, "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "invalid parameters" in err and "spacelike" in err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.ini"]


@pytest.mark.parametrize("n", ["-5", "0"])
@pytest.mark.parametrize("csv", [(), ("--csv",)], ids=["plain", "csv"])
def test_run_rejects_n_below_one(tmp_path, capsys, n, csv):
    code = run_cli("run", "--n", n, "--out", str(tmp_path), *csv)
    assert code == 1
    assert "--n: n must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nn = {n}\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path), *csv) == 1
    assert f"{cfg}:2: n must be >= 1" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.ini"]


@pytest.mark.parametrize("csv", [(), ("--csv",)], ids=["plain", "csv"])
def test_run_with_no_conclusive_run_writes_nothing(tmp_path, capsys, csv):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nflash_rate = 1e-10\nn = 5\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out), *csv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: all runs were inconclusive\n"
    assert captured.out == ""
    assert not out.exists()
    # nested: every directory made for the output goes, and one that holds
    # something else stays, with what it holds
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "a" / "b"), *csv) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "keep.txt").write_text("x")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "a" / "b" / "c"),
                   *csv) == 1
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["keep.txt"]
    assert capsys.readouterr().err == "error: all runs were inconclusive\n" * 2


@pytest.mark.parametrize(
    "command, entry, message",
    [
        ("classify", "n_qf = 10.0", "n_qf must be an integer"),
        ("classify", "n_qf = 0", "n_qf must be >= 1, got 0"),
        ("classify", "n_nosig = 0", "n_nosig must be >= 1, got 0"),
        ("classify", "n_locality = -2", "n_locality must be >= 1, got -2"),
        ("classify", "n_eff = -3", "n_eff must be >= 1, got -3"),
        ("certify", "k_max = two", "k_max must be an integer"),
        ("certify", "k_max = -1", "k_max must be >= 0, got -1"),
        ("certify", "k_max = 3", "k_max must be <= 2, got 3"),
        ("certify", "witness_samples = 0", "witness_samples must be >= 1, got 0"),
        ("certify", "theta = 0", "theta must lie in (0, pi/2), got 0.0"),
        ("certify", "theta = nan", "theta must lie in (0, pi/2), got nan"),
        ("certify", "theta = 2", "theta must lie in (0, pi/2), got 2.0"),
        ("classify", "a_grid = 0 0.5", "a_grid and b_grid must be set together"),
        ("classify", "b_grid = 0.5", "a_grid and b_grid must be set together"),
        ("classify", "a_grid =", "a_grid must be one or more numbers"),
        ("classify", "b_grid = 0 x", "b_grid must be one or more numbers"),
        ("classify", "frames_probe =", "frames_probe must be one or more numbers"),
        ("classify", "frames_probe = 0 25", "|rapidity| must be <= 20.0 (got 25.0)"),
        ("classify", "frames_probe = nan", "|rapidity| must be <= 20.0 (got nan)"),
        ("classify", "frames_probe = 0 0.5",
         "frames_probe must order the regions both ways; got earlier-region set ['B']"),
    ],
)
def test_bad_classify_and_certify_values_are_line_anchored(tmp_path, capsys, command, entry,
                                                           message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[experiment]\nn = 10\n[{command}]\n{entry}\n")
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}:4: {message}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]


@pytest.mark.parametrize("command", ["run", "classify", "certify"])
@pytest.mark.parametrize(
    "entry, message",
    [
        ("frame = 25", "|rapidity| must be <= 20.0 (got 25.0)"),
        ("frame = -inf", "|rapidity| must be <= 20.0 (got -inf)"),
        ("a = nan", "setting angle must be finite"),
        ("b = inf", "setting angle must be finite"),
        ("a = x", "a must be a number"),
        ("state = 1,2,3 0,0 0,0 0,0", "state must be 'singlet' or four 're,im' amplitude pairs"),
    ],
)
def test_bad_experiment_values_are_line_anchored(tmp_path, capsys, command, entry, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[experiment]\nn = 10\n{entry}\n")
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}:3: {message}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]


@pytest.mark.parametrize(
    "flag, message",
    [
        (("--frame", "25"), "--frame: |rapidity| must be <= 20.0 (got 25.0)"),
        (("--a", "nan"), "--a: setting angle must be finite"),
        (("--b=-inf",), "--b: setting angle must be finite"),
        (("--a", "-inf"), "--a: setting angle must be finite"),
        (("--frame", "-2.5e1"), "--frame: |rapidity| must be <= 20.0 (got -25.0)"),
        (("--fra", "-2.5e1"), "--frame: |rapidity| must be <= 20.0 (got -25.0)"),
    ],
)
def test_bad_experiment_flags_name_the_flag(tmp_path, capsys, flag, message):
    assert run_cli("run", *flag, "--n", "10", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "classify", "certify"])
def test_negative_flag_values_parse_space_separated(tmp_path, capsys, command):
    # argparse alone reads "-1e-3" after --frame as an unknown flag and
    # exits 2; each numeric flag takes the token after it, as with "="
    cfg = tmp_path / "small.ini"
    cfg.write_text("[classify]\nn_qf = 20\nn_nosig = 20\nn_locality = 20\nn_eff = 20\n"
                   "[certify]\nk_max = 0\nwitness_samples = 10\n")
    values = {"--frame": "-1e-3", "--a": "-1e-5", "--b": "-2.5", "--seed": "-7", "--n": "40"}
    if command != "run":  # the only value flag of classify and certify that takes a number
        values = {"--seed": "-7"}
    outputs = []
    for joined in (False, True):
        out = tmp_path / f"joined{joined}"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        for flag, value in values.items():
            argv += [f"{flag}={value}"] if joined else [flag, value]
        assert run_cli(*argv) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        capsys.readouterr()
    assert outputs[0] == outputs[1] and outputs[0]


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in ("classify", "certify")
      for flag in (("--n", "40"), ("--frame", "0.5"), ("--a", "0"), ("--b", "-1"), ("--csv",))),
    ("certify", ("--model", "rgrwf")),
])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *flag, "--out", str(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: flashlab") and "unrecognized arguments" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "classify", "certify"])
def test_unwritable_output_directory_is_one_error_line(tmp_path, capfd, command):
    cfg = tmp_path / "small.ini"
    cfg.write_text("[experiment]\nn = 10\n[classify]\nn_qf = 20\nn_nosig = 20\n"
                   "n_locality = 20\nn_eff = 20\n[certify]\nk_max = 0\nwitness_samples = 10\n")
    blocker = tmp_path / "f"
    blocker.touch()
    for out in (blocker, blocker / "sub"):  # FileExistsError, NotADirectoryError
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "small.ini"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\n"
        "model = rgrwf\n"
        "a = 0.0\n"
        f"b = {PI_THIRD}\n"
        "n = 1000\n"
        "master_seed = 11\n"
        "\n"
        "[output]\n"
        f"out_dir = {tmp_path / 'results'}\n"
    )
    assert run_cli("run", "--config", str(cfg), "--n", "500") == 0
    payload = json.loads((tmp_path / "results" / "run_rgrwf.json").read_text())
    assert payload["n"] == 500  # flag overrides file
    assert payload["master_seed"] == 11


def test_unknown_config_key_is_line_anchored(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nmodel = rgrwf\nbogus_key = 3\n")
    assert run_cli("run", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:3" in err
    assert "bogus_key" in err


def test_invalid_model_rejected(tmp_path, capsys):
    assert run_cli("run", "--model", "telepathy", "--out", str(tmp_path)) == 1
    assert "telepathy" in capsys.readouterr().err


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FLASHLAB_SEED", "12345")
    assert run_cli(
        "run", "--model", "rgrwf", "--a", "0", "--b", "0",
        "--n", "200", "--out", str(tmp_path),
    ) == 0
    payload = json.loads((tmp_path / "run_rgrwf.json").read_text())
    assert payload["master_seed"] == 12345


def test_classify_row_and_json(tmp_path, capsys):
    cfg = tmp_path / "cls.ini"
    cfg.write_text(
        "[experiment]\nmodel = local_hv\nmaster_seed = 19\n"
        "[classify]\nn_qf = 600\nn_nosig = 800\nn_locality = 800\nn_eff = 400\n"
        f"[output]\nout_dir = {tmp_path}\n"
    )
    assert run_cli("classify", "--config", str(cfg)) == 0
    out = capsys.readouterr().out
    assert "local_hv:" in out
    assert "qf ✗" in out and "local ✓" in out
    payload = json.loads((tmp_path / "classify_local_hv.json").read_text())
    assert {t["name"] for t in payload["tests"]} == {
        "qf_agreement", "no_signalling", "locality",
        "effective_locality", "effective_causality",
    }


@pytest.mark.parametrize("model", ["rgrwf", "preferred_frame", "local_hv"])
def test_classify_with_no_conclusive_run_is_inconclusive(tmp_path, capsys, model):
    # about one run in 10^6 is conclusive at this rate, so every settings
    # cell and flip probe is empty: the three tests over cells report NaN
    cfg = tmp_path / "rare.ini"
    cfg.write_text(
        f"[experiment]\nmodel = {model}\nflash_rate = 0.001\n"
        "[classify]\nn_qf = 20\nn_nosig = 20\nn_locality = 20\nn_eff = 20\n"
    )
    assert run_cli("classify", "--config", str(cfg), "--out", str(tmp_path)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"{model}: qf ? | nosig ? | local ? | eff-local ? | eff-causal ?\n"
    path = tmp_path / f"classify_{model}.json"
    tests = json.loads(path.read_text())["tests"]
    assert [t["verdict"] for t in tests] == ["inconclusive"] * 5
    assert all(math.isnan(t["statistic"]) and math.isnan(t["p_bound"]) for t in tests[:3])
    assert run_cli("report", str(path)) == 0
    assert "locality               statistic nan  threshold 2  p nan  inconclusive" in (
        capsys.readouterr().out
    )


def test_certify_and_reports(tmp_path, capsys):
    cfg = tmp_path / "cert.ini"
    cfg.write_text(
        "[experiment]\nmaster_seed = 23\n"
        "[certify]\nk_max = 1\nwitness_samples = 300\n"
        f"[output]\nout_dir = {tmp_path}\n"
    )
    assert run_cli("certify", "--config", str(cfg)) == 0
    out = capsys.readouterr().out
    assert "local max 2" in out
    assert "quantum 2.82843" in out
    payload = json.loads((tmp_path / "certificate.json").read_text())
    assert [e["k"] for e in payload["enumeration"]] == [0, 1]

    # report re-renders all three JSON shapes
    assert run_cli("report", str(tmp_path / "certificate.json")) == 0
    assert "EPR survivors: 8" in capsys.readouterr().out

    assert run_cli(
        "run", "--model", "rgrwf", "--a", "0", "--b", "0",
        "--n", "300", "--seed", "2", "--out", str(tmp_path),
    ) == 0
    capsys.readouterr()
    assert run_cli("report", str(tmp_path / "run_rgrwf.json")) == 0
    assert "born" in capsys.readouterr().out


def test_certify_prints_the_chsh_relation_that_holds(tmp_path, capsys):
    # at (cos 0.15, -sin 0.15) the state's CHSH value, 1.83214, is below
    # the local maximum of 2
    cfg = tmp_path / "cert.ini"
    cfg.write_text(
        "[experiment]\nstate = 0,0 0.9887710779360422,0 -0.14943813247359922,0 0,0\n"
        "[certify]\nk_max = 1\n"
    )
    assert run_cli("certify", "--config", str(cfg), "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out.splitlines()[0] == "local max 2 > quantum 1.83214"


def test_certify_sizes_the_janus_budget_from_the_flash_rate(tmp_path, capsys):
    # a fixed 8192-bit budget ran out at this rate ("bit budget exhausted")
    cfg = tmp_path / "rate.ini"
    cfg.write_text("[experiment]\nflash_rate = 45\n")
    assert run_cli("certify", "--config", str(cfg), "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "certificate.json").read_text())
    # 116 partial sums per region's Poisson table at mean 45: 2 + 3 * 232 uniforms
    assert payload["janus_witness"]["n_bits"] == 32 * (2 + 3 * 232)


def test_report_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{\"neither\": true}")
    assert run_cli("report", str(path)) == 1
    assert "unrecognized" in capsys.readouterr().err
    # each of these used to end in a traceback
    for content, message in [
        (b"[]", "unrecognized report shape in"),
        (b'{"command": "run"}', "malformed report"),
        (b'{"tests": [{"name": "x"}]}', "malformed report"),
        (b"\xff\xfe{}", "cannot read report"),
    ]:
        path.write_bytes(content)
        assert run_cli("report", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message} {path}")
        assert captured.err.count("\n") == 1


def _python(code: str, *args: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports flashlab
    from this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")},
    ).stdout


def test_cli_import_leaves_scipy_stats_out():
    # scipy is imported on the first p-value, which only classify computes
    code = ("import sys, flashlab, flashlab.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    assert _python(code) == "[]\n"


# Runs each argv list (JSON) through flashlab.cli.main and prints one
# [exit code, stdout] pair per call as JSON.
_CALLS = """
import contextlib, io, json, sys
from flashlab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    results.append([rc, buf.getvalue()])
print(json.dumps(results))
"""


def test_commands_without_scipy_match_a_normal_interpreter(tmp_path):
    """run, certify, report and --help compute no p-value, so they run where
    scipy cannot be imported, and write the same bytes as with it."""
    cfg = tmp_path / "certify.ini"
    cfg.write_text("[certify]\nk_max = 1\n")
    outputs = {}
    no_scipy = "import sys; sys.modules['scipy'] = None\n"  # every scipy import fails
    for label, prelude in (("normal", ""), ("no_scipy", no_scipy)):
        out = tmp_path / label
        calls = [
            ["run", "--model", "rgrwf", "--n", "300", "--seed", "5", "--csv", "--out", str(out)],
            ["certify", "--config", str(cfg), "--seed", "5", "--out", str(out)],
            ["report", str(out / "run_rgrwf.json")],
            ["report", str(out / "certificate.json")],
            ["--help"],
        ]
        results = json.loads(_python(prelude + _CALLS, json.dumps(calls)))
        assert [rc for rc, _ in results] == [0] * len(calls), results
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert sorted(files) == ["certificate.json", "flashes_rgrwf.csv", "run_rgrwf.json"]
        outputs[label] = (files, [text for _, text in results])
    assert outputs["no_scipy"] == outputs["normal"]


def test_a_failed_parse_leaves_the_next_call_as_a_fresh_one(tmp_path):
    """main builds its parser once per process; a call that fails to parse
    must not change what the next call in the same process writes."""
    cfg = tmp_path / "classify.ini"
    cfg.write_text("[classify]\nn_qf = 60\nn_nosig = 60\nn_locality = 60\nn_eff = 30\n")
    outputs = {}
    for label, bad in (("after_error", [["classify", "--model"], ["classify", "--bogus"]]),
                       ("fresh", [])):
        out = tmp_path / label
        valid = ["classify", "--model", "preferred_frame", "--config", str(cfg),
                 "--seed", "3", "--out", str(out)]
        results = json.loads(_python(_CALLS, json.dumps([*bad, valid])))
        assert [rc for rc, _ in results] == [2] * len(bad) + [0]
        outputs[label] = (results[-1][1], (out / "classify_preferred_frame.json").read_bytes())
    assert outputs["after_error"] == outputs["fresh"]
