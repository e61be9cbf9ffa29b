"""Batch front-end: seeded runs, classification reports, certificates.

Configuration comes from an INI-style file (sections of key = value
pairs), whose experiment values a command's flags override; all
randomness flows from one master seed (flag, config, or the
FLASHLAB_SEED environment variable), so a rerun with the same inputs is
byte-identical.  Output files are written atomically
(write-temp-then-rename) under the output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from .classify import TEST_NAMES, ClassifyConfig, _flip_probes, classify, params_digest
from .determinism import (
    CertifyConfig,
    _k_bits_limit,
    no_effectively_causal_nonlocal_determinism_check,
)
from .minkowski import Frame, Region
from .models import (
    DEFAULT_REGION_A,
    DEFAULT_REGION_B,
    OUTCOME_CELLS,
    EnsembleRequest,
    FlashEnsemble,
    ModelId,
    ModelParams,
    ensembles,
    write_flash_csv,
)
from .quantum import CHSH_ANGLES, PureState, Setting, SettingPair, born_joint, chsh_value, singlet

import numpy as np

OUTCOME_KEYS = dict(zip(OUTCOME_CELLS, ("++", "+-", "-+", "--")))
SEED_ENV_VAR = "FLASHLAB_SEED"

_KNOWN_KEYS = {
    "experiment": {
        "model", "state", "a", "b", "frame", "n", "master_seed",
        "flash_rate", "epsilon",
    },
    "regions": {"a_box", "b_box"},
    "classify": {
        "n_qf", "n_nosig", "n_locality", "n_eff", "frames_probe",
        "a_grid", "b_grid",
    },
    "certify": {"k_max", "theta", "witness_samples"},
    "output": {"out_dir", "csv"},
}


class ConfigError(Exception):
    """Invalid configuration; message is anchored to file and line."""


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(raw: str) -> tuple[float, ...]:
    values = tuple(float(p) for p in raw.split())
    if not values:
        raise ValueError("no numbers")
    return values


def parse_config_file(path: str) -> dict:
    """Parse sectioned key = value text; reject unknown sections/keys.

    Returns {(section, key): (raw_value, line_number)}.
    """
    entries: dict = {}
    section = None
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside of any section")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _KNOWN_KEYS[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in section [{section}]")
        entries[(section, key)] = (value, lineno)
    return entries


class RunConfig:
    """Validated configuration assembled from file + flag overrides."""

    def __init__(self, args):
        self.path = args.config
        self.entries = parse_config_file(args.config) if args.config else {}
        self.model = self._resolve_model(args)
        self.state = self._resolve_state()
        self.a = self._value(args.a, "experiment", "a", 0.0, float, "a number", Setting)
        self.b = self._value(args.b, "experiment", "b", 0.0, float, "a number", Setting)
        self.frame = Frame(
            self._value(args.frame, "experiment", "frame", 0.0, float, "a number", Frame)
        )
        self.n = self._count(args.n, "experiment", "n", 10_000, 1)
        self.master_seed = self._resolve_seed(args)
        # ModelParams' own defaults stand in for the values the file leaves out
        physics = _given({
            key: self._value(None, "experiment", key, None, float, "a number")
            for key in ("flash_rate", "epsilon")
        })
        self.out_dir = Path(args.out or self._raw("output", "out_dir", "results"))
        self.csv = bool(args.csv) or self._value(None, "output", "csv", False, _bool, "a boolean")
        regions = (
            self._resolve_region("a_box", DEFAULT_REGION_A),
            self._resolve_region("b_box", DEFAULT_REGION_B),
        )
        try:
            self.params = ModelParams(state=self.state, regions=regions, **physics)
        except ValueError as exc:
            raise ConfigError(f"{self.path or '<flags>'}: invalid parameters: {exc}") from exc

    # --- raw access helpers -------------------------------------------------
    def _raw(self, section, key, default=None):
        if (section, key) in self.entries:
            return self.entries[(section, key)][0]
        return default

    def _anchor(self, section, key) -> str:
        lineno = self.entries[(section, key)][1]
        return f"{self.path}:{lineno}"

    def _origin(self, flag, section, key) -> str:
        """Where a value came from: its flag, else its file and line."""
        return f"--{key}" if flag is not None else self._anchor(section, key)

    def _value(self, flag, section, key, default, parse, what, check=None):
        """The flag value if one was given, else the config value converted
        by ``parse``, else ``default``.  A config value that ``parse``
        rejects with ValueError is a ConfigError at its file and line, and
        a given value that ``check`` rejects is one at its flag or line."""
        value = flag
        if flag is None:
            raw = self._raw(section, key)
            if raw is None:
                return default
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{self._anchor(section, key)}: {key} must be {what}") from exc
        if check is not None:
            try:
                check(value)
            except ValueError as exc:
                raise ConfigError(f"{self._origin(flag, section, key)}: {exc}") from exc
        return value

    def _count(self, flag, section, key, default, minimum, maximum=math.inf):
        """An integer ``_value`` that must lie in [minimum, maximum]."""
        value = self._value(flag, section, key, default, int, "an integer")
        if value is None or minimum <= value <= maximum:
            return value
        bound = f">= {minimum}" if value < minimum else f"<= {maximum}"
        raise ConfigError(f"{self._origin(flag, section, key)}: {key} must be {bound}, got {value}")

    def _resolve_seed(self, args) -> int:
        seed = self._value(args.seed, "experiment", "master_seed", None, int, "an integer")
        if seed is not None:
            return seed
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
        return 1

    def _resolve_model(self, args) -> ModelId:
        # an empty --model= falls back to the config file
        flag = args.model or None
        return ModelId(self._value(flag, "experiment", "model", "rgrwf", str, "a name",
                                   _check_model))

    def _resolve_state(self) -> PureState:
        raw = self._raw("experiment", "state", "singlet")
        if raw == "singlet":
            return singlet()
        parts = [p.split(",") for p in raw.split()]
        if len(parts) != 4 or any(len(p) > 2 for p in parts):
            raise ConfigError(
                f"{self._anchor('experiment', 'state')}: state must be 'singlet' "
                "or four 're,im' amplitude pairs"
            )
        try:
            amps = [complex(*map(float, p)) for p in parts]
            return PureState(np.array(amps))
        except ValueError as exc:
            raise ConfigError(f"{self._anchor('experiment', 'state')}: bad state: {exc}") from exc

    def _resolve_region(self, key, default) -> Region:
        raw = self._raw("regions", key)
        if raw is None:
            return default
        parts = raw.split()
        if len(parts) != 4:
            raise ConfigError(
                f"{self._anchor('regions', key)}: {key} needs 4 numbers "
                "(t_min t_max x_min x_max)"
            )
        try:
            return Region(*(float(p) for p in parts))
        except ValueError as exc:
            raise ConfigError(f"{self._anchor('regions', key)}: {exc}") from exc

    def classify_config(self) -> ClassifyConfig:
        kwargs = _given({
            key: self._count(None, "classify", key, None, 1)
            for key in ("n_qf", "n_nosig", "n_locality", "n_eff")
        })
        numbers = "one or more numbers"
        # the probes must order the regions both ways under these params
        frames = self._value(None, "classify", "frames_probe", None, _floats, numbers,
                             lambda chis: _flip_probes(self.params, [Frame(chi) for chi in chis]))
        if frames is not None:
            kwargs["frames_probe"] = tuple(Frame(chi) for chi in frames)
        a_grid = self._value(None, "classify", "a_grid", None, _floats, numbers)
        b_grid = self._value(None, "classify", "b_grid", None, _floats, numbers)
        if (a_grid is None) != (b_grid is None):
            given = "a_grid" if b_grid is None else "b_grid"
            raise ConfigError(
                f"{self._anchor('classify', given)}: a_grid and b_grid must be set together"
            )
        if a_grid is not None:
            kwargs["qf_grid"] = tuple((a, b) for a in a_grid for b in b_grid)
        return ClassifyConfig(master_seed=self.master_seed, **kwargs)

    def certify_config(self) -> CertifyConfig:
        given = _given({
            # capped where the full 2 x 2 strategy stack, the tests' check on
            # the certificate's bound, still fits
            "k_max": self._count(None, "certify", "k_max", None, 0, _k_bits_limit(2, 2)),
            "theta": self._value(None, "certify", "theta", None, float, "a number", _check_theta),
            "witness_samples": self._count(None, "certify", "witness_samples", None, 1),
        })
        return CertifyConfig(params=self.params, master_seed=self.master_seed, **given)


def _given(values: dict) -> dict:
    """The entries of ``values`` that are not None: the settings given, so
    that a dataclass's own defaults fill in the rest."""
    return {key: value for key, value in values.items() if value is not None}


def _check_model(name: str) -> None:
    valid = [m.value for m in ModelId]
    if name not in valid:
        raise ValueError(f"unknown model {name!r} (valid: {', '.join(valid)})")


def _check_theta(theta: float) -> None:
    # the quantum values violate the Wigner inequality only inside (0, pi/2)
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta}")


@contextlib.contextmanager
def _atomic_output(path: Path):
    """Yield a temporary path beside ``path``, creating the directory; on
    success move the file written there onto ``path``, else delete it and
    the directories made for it, as long as they are empty.  The file gets
    the mode open() would give a new file under the current umask, not
    mkstemp's 0600."""
    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]  # deepest first
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        yield Path(tmp)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        for directory in made:
            try:
                directory.rmdir()
            except OSError:  # no longer empty, so neither are its parents
                break
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    with _atomic_output(path) as tmp:
        with open(tmp, "w") as fh:
            fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _require_conclusive(inconclusive: int, n: int) -> None:
    if inconclusive == n:
        raise RuntimeError("all runs were inconclusive")


def cmd_run(cfg: RunConfig) -> int:
    pair = SettingPair(cfg.a, cfg.b)
    oracle = born_joint(cfg.params.state, pair)
    if cfg.csv:
        # same seeds and counting as the plain path, streaming flashes; the
        # counts are checked before the CSV is moved into place
        flashes = FlashEnsemble(cfg.model, pair, cfg.frame, cfg.params, cfg.n, cfg.master_seed)
        with _atomic_output(cfg.out_dir / f"flashes_{cfg.model.value}.csv") as tmp:
            write_flash_csv(tmp, flashes)
            _require_conclusive(flashes.inconclusive, cfg.n)
        joint, inconclusive = flashes.joint, flashes.inconclusive
    else:
        request = EnsembleRequest((pair,), cfg.frame, cfg.n, cfg.master_seed)
        ((joint, inconclusive),) = ensembles(cfg.model, [request], cfg.params)
        _require_conclusive(inconclusive, cfg.n)
    counts = dict(zip(OUTCOME_CELLS, joint.tolist()))

    conclusive = cfg.n - inconclusive
    freq_json = {key: counts[cell] / conclusive for cell, key in OUTCOME_KEYS.items()}
    payload = {
        "command": "run",
        "model": cfg.model.value,
        "a": cfg.a,
        "b": cfg.b,
        "frame_rapidity": cfg.frame.rapidity,
        "n": cfg.n,
        "master_seed": cfg.master_seed,
        "params_digest": params_digest(cfg.params),
        "counts": {OUTCOME_KEYS[c]: counts[c] for c in OUTCOME_KEYS},
        "frequencies": freq_json,
        "oracle": {OUTCOME_KEYS[c]: oracle[c] for c in OUTCOME_KEYS},
        "inconclusive": inconclusive,
    }
    lines = [_run_header(payload), f"{'outcome':<9}{'empirical':>12}{'std.err':>12}{'born':>12}"]
    for cell, key in OUTCOME_KEYS.items():
        f = freq_json[key]
        se = math.sqrt(f * (1.0 - f) / conclusive)
        lines.append(f"{key:<9}{_sig6(f):>12}{_sig6(se):>12}{_sig6(oracle[cell]):>12}")
    lines.append(f"inconclusive runs: {inconclusive} of {cfg.n}")
    _write_json(cfg.out_dir / f"run_{cfg.model.value}.json", payload)
    print("\n".join(lines))
    return 0


def _run_header(payload: dict) -> str:
    """The first line of a run's stdout and of its report."""
    return (
        f"model {payload['model']}  a={_sig6(payload['a'])}  b={_sig6(payload['b'])}  "
        f"frame chi={_sig6(payload['frame_rapidity'])}  n={payload['n']}  "
        f"seed={payload['master_seed']}"
    )


_VERDICT_MARK = {"pass": "✓", "fail": "✗", "inconclusive": "?"}
_ROW_LABELS = dict(zip(TEST_NAMES, ("qf", "nosig", "local", "eff-local", "eff-causal")))


def _verdict_row(model: str, verdicts: dict) -> str:
    cells = " | ".join(
        f"{label} {_VERDICT_MARK[verdicts[name]]}" for name, label in _ROW_LABELS.items()
    )
    return f"{model}: {cells}"


def cmd_classify(cfg: RunConfig) -> int:
    report = classify(cfg.model, cfg.params, cfg.classify_config())
    _write_json(cfg.out_dir / f"classify_{cfg.model.value}.json", report.to_json_dict())
    print(_verdict_row(report.model, report.verdicts()))
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    cert_cfg = cfg.certify_config()
    certificate = no_effectively_causal_nonlocal_determinism_check(cert_cfg)
    local_max = max(entry["max_chsh"] for entry in certificate.enumeration)
    quantum = abs(chsh_value(cfg.params.state, *CHSH_ANGLES))
    w = certificate.wigner
    jw = certificate.janus_witness
    relation = "<" if local_max < quantum else ">" if local_max > quantum else "="
    lines = [
        f"local max {_sig6(local_max)} {relation} quantum {_sig6(quantum)}",
        f"wigner theta={_sig6(w.theta)}: strategies lhs {_sig6(w.lhs)} <= rhs {_sig6(w.rhs)}; "
        f"quantum {_sig6(w.quantum_lhs)} > {_sig6(w.quantum_rhs)}",
        f"janus witness: region {jw.region} flips "
        f"{jw.outcomes[0]:+d} -> {jw.outcomes[1]:+d} in frame chi="
        f"{_sig6(jw.frame.rapidity)} when the later setting moves "
        f"{_sig6(jw.setting_pairs[0].a.angle if jw.region == 'B' else jw.setting_pairs[0].b.angle)} -> "
        f"{_sig6(jw.setting_pairs[1].a.angle if jw.region == 'B' else jw.setting_pairs[1].b.angle)}",
    ]
    _write_json(cfg.out_dir / "certificate.json", certificate.to_json_dict())
    print("\n".join(lines))
    return 0


def _report_lines(payload) -> list[str] | None:
    """The rendering of a report written by run, classify or certify;
    None for any other shape."""
    if not isinstance(payload, dict):
        return None
    lines = []
    if payload.get("command") == "run":
        lines.append(_run_header(payload))
        lines.append(f"{'outcome':<9}{'empirical':>12}{'born':>12}")
        for key in OUTCOME_KEYS.values():
            lines.append(
                f"{key:<9}{_sig6(payload['frequencies'][key]):>12}"
                f"{_sig6(payload['oracle'][key]):>12}"
            )
        lines.append(f"inconclusive runs: {payload['inconclusive']} of {payload['n']}")
    elif "tests" in payload:
        verdicts = {t["name"]: t["verdict"] for t in payload["tests"]}
        lines.append(_verdict_row(payload["model"], verdicts))
        for t in payload["tests"]:
            lines.append(
                f"  {t['name']:<22} statistic {_sig6(t['statistic'])}  "
                f"threshold {_sig6(t['threshold'])}  p {_sig6(t['p_bound'])}  {t['verdict']}"
            )
    elif "enumeration" in payload:
        for entry in payload["enumeration"]:
            lines.append(
                f"k={entry['k']}: {entry['count']} strategies, "
                f"max CHSH {_sig6(entry['max_chsh'])}"
            )
        lines.append(f"EPR survivors: {payload['epr_filter']['survivor_count']}")
        w = payload["wigner"]
        lines.append(
            f"wigner: lhs {_sig6(w['lhs'])} <= rhs {_sig6(w['rhs'])}; "
            f"quantum {_sig6(w['quantum_lhs'])} > {_sig6(w['quantum_rhs'])}"
        )
        jw = payload["janus_witness"]
        lines.append(
            f"janus witness in frame chi={_sig6(jw['frame_rapidity'])}, region {jw['region']}"
        )
    else:
        return None
    return lines


def cmd_report(path: str) -> int:
    try:
        # a JSON or UTF-8 decoding error is a ValueError, too deep nesting
        # a RecursionError
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read report {path}: {exc}", file=sys.stderr)
        return 1
    try:
        lines = _report_lines(payload)
    except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError) as exc:
        print(f"error: malformed report {path}: {type(exc).__name__} {exc}", file=sys.stderr)
        return 1
    if lines is None:
        print(f"error: unrecognized report shape in {path}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


# The flags of run, classify and certify, each with its add_argument
# keywords; build_parser gives each command the ones it reads.
_FLAGS = {
    "config": dict(help="INI-style config file"),
    "model": dict(help="rgrwf | preferred_frame | local_hv"),
    "n": dict(type=int, help="number of runs"),
    "seed": dict(type=int, help=f"master seed (or ${SEED_ENV_VAR})"),
    "frame": dict(type=float, help="frame rapidity chi"),
    "a": dict(type=float, help="side A setting angle (radians)"),
    "b": dict(type=float, help="side B setting angle (radians)"),
    "out": dict(help="output directory"),
    "csv": dict(action="store_true", help="also dump per-run flashes to CSV"),
}

# The flags that take a value: all but the store_true ones.  argparse reads
# a value that starts with "-" and is not a plain negative number, such as
# "-1e-3" or "-inf", as a flag of its own, so main() first joins each of
# these flags, or a prefix that names one of them alone, to the token after
# it ("--frame=-1e-3").
_VALUE_FLAGS = tuple(f"--{key}" for key, spec in _FLAGS.items() if "action" not in spec)


def _join_flag_values(argv: list[str]) -> list[str]:
    """argv with each flag of _VALUE_FLAGS joined by "=" to the token after
    it; tokens after "--" are left as they are."""
    joined, rest = [], iter(argv)
    for token in rest:
        if token == "--":
            return [*joined, token, *rest]
        if token.startswith("--") and sum(f.startswith(token) for f in _VALUE_FLAGS) == 1:
            value = next(rest, None)
            if value is not None:
                token = f"{token}={value}"
        joined.append(token)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashlab",
        description="EPR flash-model simulations, classification, and certificates",
    )
    # RunConfig reads every flag of run; a command that has no such flag
    # leaves it at this default
    parser.set_defaults(model=None, n=None, frame=None, a=None, b=None, csv=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads
    for name, keys in (
        ("run", tuple(_FLAGS)),
        ("classify", ("config", "model", "seed", "out")),
        ("certify", ("config", "seed", "out")),
    ):
        command = sub.add_parser(name)
        for key in keys:
            command.add_argument(f"--{key}", **_FLAGS[key])
    rep = sub.add_parser("report", help="re-render a previously written JSON report")
    rep.add_argument("path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main call, not at import,
    and reused by every later call: parse_args keeps its results in the
    namespace it returns, not in the parser."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(_join_flag_values(argv))
    if args.command == "report":
        return cmd_report(args.path)
    try:
        cfg = RunConfig(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "classify":
            return cmd_classify(cfg)
        return cmd_certify(cfg)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
