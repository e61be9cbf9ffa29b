"""The benchmark's workloads: the flashlab CLI calls one pass makes, and
the checks every file those calls write must pass.

Imports only the standard library, so that a worker process can import
this module before it starts timing the import of flashlab itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("classify", "run_flashes", "certify")
MODELS = ("rgrwf", "preferred_frame", "local_hv")
TEST_NAMES = (
    "qf_agreement",
    "no_signalling",
    "locality",
    "effective_locality",
    "effective_causality",
)
CHI2_TESTS = ("qf_agreement", "no_signalling")

# The verdict table of the README, in TEST_NAMES order.
EXPECTED_VERDICTS = {
    "rgrwf": ("pass", "pass", "fail", "pass", "pass"),
    "preferred_frame": ("pass", "pass", "fail", "fail", "fail"),
    "local_hv": ("fail", "pass", "pass", "pass", "pass"),
}

# A chi-square verdict rejects a true hypothesis with probability alpha =
# 1e-3 by design, so on about one workload seed in a hundred the README
# table reads fail where it says pass.  Such a verdict is accepted while
# its p-value stays above this floor; a broken model gives p far below it.
CHI2_FALSE_REJECT_FLOOR = 1e-6

# The default frames_probe (-1, -0.5, 0, 0.5, 1, order-flip frame) orders
# the region boxes in five of its six frames; frame 0 leaves them
# simultaneous.  Each effective test runs both arms of every probe.
EFFECTIVE_PROBES = 5

RUN_ARGS = ("--model", "rgrwf", "--a", "0", "--b", "1.0472", "--frame", "1")
RUN_FRAME_RAPIDITY = 1.0
CSV_HEADER = "run_id,region,t_lab,x_lab,t_frame,channel,index"

# Sample sizes.  Passes are kept short (a few seconds) because machine
# speed drifts over seconds on a shared host, and the median of many short
# passes is far steadier than that of a few long ones.  "bench" classifies
# with 7,750 runs per model instead of the ClassifyConfig default 73,500,
# in about the same mix of tests; n_locality stays large enough that the
# CHSH verdicts clear their 5-standard-error bands by more than 5 sigma.
# run_flashes makes 5,000 runs per pass.  "tiny" only proves that each
# workload runs end to end.
SIZES = {
    "bench": {
        "classify": {"n_qf": 250, "n_nosig": 300, "n_locality": 400, "n_eff": 150},
        "run_n": 5_000,
        "k_max": 2,
    },
    "tiny": {
        "classify": {"n_qf": 100, "n_nosig": 40, "n_locality": 300, "n_eff": 20},
        "run_n": 200,
        "k_max": 1,
    },
}


@dataclass(frozen=True)
class Op:
    """One `flashlab` command line and the files it writes."""

    argv: tuple[str, ...]
    files: tuple[str, ...]
    model: str


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: str
    config_text: str
    ops: tuple[Op, ...]

    @property
    def sizes(self) -> dict:
        return SIZES[self.size]


# Per test: the config key of its sample size, and model runs per sample
# (settings cells for the distributional tests, 2 arms x probes for the
# flip tests).
_SAMPLES = {
    "qf_agreement": ("n_qf", 9),
    "no_signalling": ("n_nosig", 3),
    "locality": ("n_locality", 4),
    "effective_locality": ("n_eff", 2 * EFFECTIVE_PROBES),
    "effective_causality": ("n_eff", 2 * EFFECTIVE_PROBES),
}


def runs_per_test(sizes: dict) -> dict[str, int]:
    """Model runs one classify requests per test, exact from the config.

    A flip probe skips its second arm when the first is inconclusive, so
    the runs actually made (the classify.runs.* counters) are slightly fewer.
    """
    return {t: per * sizes["classify"][key] for t, (key, per) in _SAMPLES.items()}


def strategies_per_certify(k_max: int) -> int:
    """Strategies the CHSH enumeration visits for k = 0..k_max (2x2 settings)."""
    return sum(1 << (4 << k) for k in range(k_max + 1))


def make_workload(name: str, seed: int, size: str, out_dir: Path, config_path: Path) -> Workload:
    """The CLI calls of one pass of workload ``name`` on workload seed ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    sizes = SIZES[size]
    common = ("--config", str(config_path), "--seed", str(seed), "--out", str(out_dir))
    if name == "classify":
        text = "[classify]\n" + "".join(f"{k} = {v}\n" for k, v in sizes["classify"].items())
        ops = tuple(
            Op(("classify", "--model", m) + common, (f"classify_{m}.json",), m) for m in MODELS
        )
    elif name == "run_flashes":
        text = f"[experiment]\nn = {sizes['run_n']}\n"
        ops = (
            Op(("run", "--csv") + RUN_ARGS + common, ("run_rgrwf.json", "flashes_rgrwf.csv"), "rgrwf"),
        )
    else:
        text = f"[certify]\nk_max = {sizes['k_max']}\n"
        ops = (Op(("certify",) + common, ("certificate.json",), ""),)
    return Workload(name, seed, size, text, ops)


# What items_per_s counts on each workload, under its own name in the
# summary lines and results files.
ITEM_RATE = {"classify": "runs_per_s", "run_flashes": "rows_per_s", "certify": "strategies_per_s"}


def items_per_pass(workload: Workload, facts: list[dict]) -> int:
    """Work one pass completes: model runs (classify), flash CSV rows
    (run_flashes) or CHSH-evaluated strategies (certify)."""
    if workload.name == "classify":
        return len(workload.ops) * sum(runs_per_test(workload.sizes).values())
    if workload.name == "run_flashes":
        return sum(f["rows"] for f in facts)
    return strategies_per_certify(workload.sizes["k_max"])


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_op(
    workload: Workload,
    op: Op,
    out_dir: Path,
    stdout_text: str,
    reference: dict | None,
) -> tuple[dict[str, str], dict, list[str]]:
    """Check the files one CLI call wrote.

    Returns (sha256 per file, facts such as row counts, problems).  The
    structural checks run on every seed; ``reference`` maps file names to
    the digests recorded for this seed, when there are any.
    """
    digests: dict[str, str] = {}
    problems: list[str] = []
    facts: dict = {}
    for name in op.files:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: not written")
            continue
        digests[name] = sha256_file(path)
        if reference is not None and reference.get(name) != digests[name]:
            problems.append(f"{name}: sha256 {digests[name]} differs from the reference")
    if problems:
        return digests, facts, problems
    try:
        if workload.name == "classify":
            problems += check_classify(
                json.loads((out_dir / op.files[0]).read_text()),
                op.model, workload, stdout_text,
            )
        elif workload.name == "run_flashes":
            payload = json.loads((out_dir / op.files[0]).read_text())
            problems += check_run(payload, workload)
            csv_problems, facts = check_flash_csv(out_dir / op.files[1], payload)
            problems += csv_problems
        else:
            problems += check_certificate(
                json.loads((out_dir / op.files[0]).read_text()), workload, stdout_text
            )
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return digests, facts, problems


def check_classify(payload: dict, model: str, workload: Workload, stdout_text: str) -> list[str]:
    problems = []
    if payload["model"] != model:
        problems.append(f"model {payload['model']!r} != {model!r}")
    names = [t["name"] for t in payload["tests"]]
    if names != list(TEST_NAMES):
        return problems + [f"tests {names} != {list(TEST_NAMES)}"]
    want_n = {t: workload.sizes["classify"][key] for t, (key, _) in _SAMPLES.items()}
    if payload["n"] != want_n:
        problems.append(f"sample sizes {payload['n']} != {want_n}")
    if sorted(payload["seeds"]) != sorted(TEST_NAMES):
        problems.append("seeds block does not name the five tests")
    verdicts = {}
    for test, expected in zip(payload["tests"], EXPECTED_VERDICTS[model]):
        name, verdict, stat = test["name"], test["verdict"], test["statistic"]
        verdicts[name] = verdict
        if verdict not in ("pass", "fail", "inconclusive"):
            problems.append(f"{name}: verdict {verdict!r}")
            continue
        if name in CHI2_TESTS:
            consistent = verdict == "inconclusive" or (verdict == "pass") == (stat >= test["threshold"])
        elif name == "locality":
            consistent = (verdict == "pass") <= (stat < 2.0) and (verdict == "fail") <= (stat > 2.0)
        else:
            consistent = verdict == "inconclusive" or (verdict == "pass") == (stat == 0.0)
        if not consistent:
            problems.append(f"{name}: verdict {verdict} contradicts statistic {stat}")
        if verdict == expected:
            continue
        tolerated = (
            name in CHI2_TESTS
            and expected == "pass"
            and verdict == "fail"
            and test["p_bound"] >= CHI2_FALSE_REJECT_FLOOR
        )
        if not tolerated:
            problems.append(f"{name}: verdict {verdict}, README table says {expected}")
    marks = {"pass": "✓", "fail": "✗", "inconclusive": "?"}
    labels = ("qf", "nosig", "local", "eff-local", "eff-causal")
    row = f"{model}: " + " | ".join(
        f"{label} {marks.get(verdicts.get(name), '')}" for label, name in zip(labels, TEST_NAMES)
    )
    if stdout_text.strip() != row:
        problems.append(f"printed row {stdout_text.strip()!r} != {row!r}")
    return problems


def check_run(payload: dict, workload: Workload) -> list[str]:
    problems = []
    n = workload.sizes["run_n"]
    expect = {"command": "run", "model": "rgrwf", "a": 0.0, "b": 1.0472,
              "frame_rapidity": RUN_FRAME_RAPIDITY, "n": n, "master_seed": workload.seed}
    for key, value in expect.items():
        if payload[key] != value:
            problems.append(f"run json {key} = {payload[key]!r}, expected {value!r}")
    counts = payload["counts"]
    conclusive = sum(counts.values())
    if sorted(counts) != sorted(("++", "+-", "-+", "--")):
        problems.append(f"outcome cells {sorted(counts)}")
    if conclusive + payload["inconclusive"] != n:
        problems.append(f"counts {counts} + inconclusive {payload['inconclusive']} != n {n}")
    for cell, count in counts.items():
        if conclusive and payload["frequencies"][cell] != count / conclusive:
            problems.append(f"frequency of {cell} does not match its count")
    if abs(sum(payload["oracle"].values()) - 1.0) > 1e-12:
        problems.append("Born oracle does not sum to 1")
    return problems


def check_flash_csv(path: Path, run_payload: dict) -> tuple[list[str], dict]:
    """Every row well formed, t_frame the boost of (t_lab, x_lab), and the
    outcome tally rebuilt from the frame-earliest flash of each region
    equal to the counts in the run json.

    Streams the file and keeps one run's rows at a time (rows of a run are
    contiguous), so checking adds nothing to the worker's peak memory.
    """
    ch, sh = math.cosh(RUN_FRAME_RAPIDITY), math.sinh(RUN_FRAME_RAPIDITY)
    tally = {"++": 0, "+-": 0, "-+": 0, "--": 0}
    rows = 0
    run_id, first = -1, {}  # region -> (t_frame, channel) of the current run

    def close_run() -> str | None:
        if run_id < 0:
            return None
        if len(first) != 2:
            return f"flash csv run {run_id} lacks a region"
        a, b = first["A"][1], first["B"][1]
        tally[("+" if a > 0 else "-") + ("+" if b > 0 else "-")] += 1
        return None

    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n") != CSV_HEADER:
            return ["flash csv header is wrong"], {"rows": 0}
        for lineno, line in enumerate(fh, start=2):
            rows += 1
            fields = line.rstrip("\r\n").split(",")
            if len(fields) != 7 or fields[1] not in ("A", "B") or fields[5] not in ("1", "-1"):
                return [f"flash csv line {lineno} malformed: {line!r}"], {"rows": rows}
            t, x, t_frame = float(fields[2]), float(fields[3]), float(fields[4])
            if abs(t * ch - x * sh - t_frame) > 1e-9:
                return [f"flash csv line {lineno}: t_frame is not the boost of (t, x)"], {"rows": rows}
            rid = int(fields[0])
            if rid != run_id:
                if rid < run_id:
                    return [f"flash csv line {lineno}: run ids out of order"], {"rows": rows}
                problem = close_run()
                if problem:
                    return [problem], {"rows": rows}
                run_id, first = rid, {}
            region = fields[1]
            if region not in first or t_frame < first[region][0]:
                first[region] = (t_frame, int(fields[5]))
    problem = close_run()
    if problem:
        return [problem], {"rows": rows}
    if tally != run_payload["counts"]:
        return [f"outcomes rebuilt from the flash csv {tally} != counts {run_payload['counts']}"], \
            {"rows": rows}
    return [], {"rows": rows}


def check_certificate(payload: dict, workload: Workload, stdout_text: str) -> list[str]:
    problems = []
    k_max = workload.sizes["k_max"]
    ks = [e["k"] for e in payload["enumeration"]]
    if ks != list(range(k_max + 1)):
        problems.append(f"enumeration covers k = {ks}, expected 0..{k_max}")
    for e in payload["enumeration"]:
        if (e["n_a"], e["n_b"]) != (2, 2) or e["count"] != 1 << (4 << e["k"]):
            problems.append(f"enumeration entry {e} has the wrong shape or count")
        if e["max_chsh"] != 2.0:
            problems.append(f"max_chsh {e['max_chsh']} != 2.0 at k = {e['k']}")
    if payload["epr_filter"]["survivor_count"] != 8:
        problems.append(f"EPR survivors {payload['epr_filter']['survivor_count']} != 8")
    w = payload["wigner"]
    if not (w["lhs"] <= w["rhs"] and w["quantum_lhs"] > w["quantum_rhs"]):
        problems.append(f"wigner block {w} does not separate strategies from quantum")
    jw = payload.get("janus_witness")
    if not jw:
        return problems + ["no janus witness"]
    if jw["region"] not in ("A", "B") or jw["n_bits"] != 8192:
        problems.append(f"witness region {jw['region']!r} / n_bits {jw['n_bits']}")
    if len(bytes.fromhex(jw["witness_bits_hex"])) * 8 != jw["n_bits"]:
        problems.append("witness bit string length does not match n_bits")
    o = jw["outcomes"]
    if len(o) != 2 or set(o) != {1, -1}:
        problems.append(f"witness outcomes {o} do not flip")
    if len(jw["setting_pairs"]) != 2 or not math.isfinite(jw["frame_rapidity"]):
        problems.append("witness settings or frame malformed")
    if not stdout_text.startswith("local max 2 < quantum 2.82843\n"):
        problems.append(f"printed certificate line {stdout_text.splitlines()[:1]}")
    return problems
