"""Golden outputs: classify, run --csv and certify at small sizes.

The expected values were recorded before the classify battery was rebuilt
on shared helpers; any change to them is a change to the reproducibility
contract.  Counts, flip counts, CHSH estimates and file digests compare
exactly; chi-square p-values compare at rel 1e-9, so that a scipy release
that moves the last digits of ``chi2.sf`` does not fail the test.
"""

import hashlib
import json

import pytest

from flashlab.classify import ClassifyConfig, classify
from flashlab.cli import main

# the "tiny" classify sizes of the benchmark harness
TINY = ClassifyConfig(master_seed=1, n_qf=100, n_nosig=40, n_locality=300, n_eff=20)

_QUANTUM_QF = [
    0.4237107971667936, 0.0025779064132398543, 0.7236238633764047,
    0.2808648667251415, 0.08753168887712172, 0.8880568553811637,
    0.5559694842870635, 0.8394309461386703, 0.6861678498552392,
]
_QUANTUM_CHSH = (-2.88650622150114, 0.08030287884537171)
# (rapidity, earlier region, flips, pairs, dropped) per probe
_NO_FLIPS = {
    "effective_locality": [
        (0.5, "B", 0, 20, 0), (1.0, "B", 0, 20, 0), (10.0, "B", 0, 20, 0),
        (-1.0, "A", 0, 20, 0), (-0.5, "A", 0, 20, 0),
    ],
    "effective_causality": [
        (-1.0, "A", 0, 20, 0), (-0.5, "A", 0, 20, 0), (0.5, "B", 0, 19, 1),
        (1.0, "B", 0, 20, 0), (10.0, "B", 0, 20, 0),
    ],
}

GOLDEN = {
    "rgrwf": {
        "verdicts": ("pass", "pass", "fail", "pass", "pass"),
        "qf_p_values": _QUANTUM_QF,
        "nosig_p": 0.052044395232448186,
        "chsh": _QUANTUM_CHSH,
        "flips": _NO_FLIPS,
        "effective": (0.0, 0.0),
    },
    "preferred_frame": {
        "verdicts": ("pass", "pass", "fail", "fail", "fail"),
        "qf_p_values": _QUANTUM_QF,
        "nosig_p": 0.052044395232448186,
        "chsh": _QUANTUM_CHSH,
        "flips": {
            "effective_locality": [
                (0.5, "B", 6, 20, 0), (1.0, "B", 9, 20, 0), (10.0, "B", 5, 20, 0),
                (-1.0, "A", 2, 20, 0), (-0.5, "A", 5, 20, 0),
            ],
            "effective_causality": [
                (-1.0, "A", 3, 20, 0), (-0.5, "A", 8, 20, 0), (0.5, "B", 6, 19, 1),
                (1.0, "B", 7, 20, 0), (10.0, "B", 2, 20, 0),
            ],
        },
        "effective": (0.25, 0.4),
    },
    "local_hv": {
        "verdicts": ("fail", "pass", "pass", "pass", "pass"),
        "qf_p_values": [
            0.4237107971667936, 9.991392322730157e-12, 7.014171384904169e-05,
            1.4502537866715592e-12, 0.48172771631662603, 5.062265994853648e-08,
            1.5145990770644842e-05, 1.637422195350914e-10, 0.3124222112426905,
        ],
        "nosig_p": 0.3019789511049903,
        "chsh": (-0.9786917031516208, 0.11269396847613121),
        "flips": _NO_FLIPS,
        "effective": (0.0, 0.0),
    },
}


@pytest.mark.parametrize("model", sorted(GOLDEN))
def test_classify_golden(model):
    want = GOLDEN[model]
    report = classify(model, config=TINY)
    res = report.results
    assert tuple(report.verdicts().values()) == want["verdicts"]
    assert res["qf_agreement"].details["p_values"] == pytest.approx(want["qf_p_values"], rel=1e-9)
    assert res["no_signalling"].statistic == pytest.approx(want["nosig_p"], rel=1e-9)
    assert (res["locality"].details["S"], res["locality"].details["se"]) == want["chsh"]
    for name, probes in want["flips"].items():
        got = [
            (p["frame"].rapidity, p["earlier"], p["flips"], p["pairs"], p["dropped"])
            for p in res[name].details["probes"]
        ]
        assert got == probes, name
        assert [p["fraction"] for p in res[name].details["probes"]] == [
            flips / pairs for _, _, flips, pairs, _ in probes
        ]
    assert (res["effective_locality"].statistic, res["effective_causality"].statistic) == (
        want["effective"]
    )


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_csv(tmp_path, model, frame, config=None):
    args = [
        "run", "--csv", "--model", model, "--a", "0", "--b", "1.0472", "--frame", frame,
        "--n", "200", "--seed", "1", "--out", str(tmp_path),
    ]
    if config is not None:
        path = tmp_path / "run.ini"
        path.write_text(config)
        args += ["--config", str(path)]
    assert main(args) == 0
    payload = json.loads((tmp_path / f"run_{model}.json").read_text())
    return payload, _sha256(tmp_path / f"flashes_{model}.csv")


def test_run_csv_golden(tmp_path, capsys):
    payload, digest = _run_csv(tmp_path, "rgrwf", "1")
    assert payload["counts"] == {"++": 21, "+-": 72, "-+": 77, "--": 29}
    assert payload["inconclusive"] == 1
    assert digest == "f3b09e024e90b0287fda6dd699a7895cf4727fe7432b96cb637a6b86aeedde42"


# random_pure_state(default_rng(5)) as 're,im' reprs: every amplitude has a
# nonzero imaginary part, so the collapse's complex arithmetic shows here
_COMPLEX_STATE = (
    "[experiment]\nstate ="
    " -0.3637853790308307,0.5153521927236994 -0.6007776027048815,0.04976682893649963"
    " -0.11266590132950213,-0.25070100589723965 0.19072931359814677,-0.3560050274057283\n"
    "epsilon = 0.05\nflash_rate = 20\n"
)

# case -> (model, frame rapidity, config, counts, inconclusive, CSV SHA-256);
# preferred_frame reports its flashes in an order that differs from its
# decision order
_RUN_CSV_OTHER = {
    "preferred_frame": (
        "preferred_frame", "-0.7", None, {"++": 27, "+-": 77, "-+": 72, "--": 23}, 1,
        "42b34e82a8973d57c5e999d642130f50e63b02baab015b45998c6a4799cf39be",
    ),
    "local_hv": (
        "local_hv", "0.5", None, {"++": 56, "+-": 48, "-+": 40, "--": 55}, 1,
        "a4fd514bcb487fc4a5d17f8e5516405ce2741d67e012053d7893b3ba86824989",
    ),
    "rgrwf_complex_state": (
        "rgrwf", "1", _COMPLEX_STATE, {"++": 124, "+-": 37, "-+": 27, "--": 12}, 0,
        "b62e2c8ab7d6bd4275589963b5342c7bfb40486380e2d308658b4cd2a7897258",
    ),
}


@pytest.mark.parametrize("case", sorted(_RUN_CSV_OTHER))
def test_run_csv_golden_other_models(case, tmp_path, capsys):
    model, frame, config, counts, inconclusive, want = _RUN_CSV_OTHER[case]
    payload, digest = _run_csv(tmp_path, model, frame, config)
    assert payload["counts"] == counts
    assert payload["inconclusive"] == inconclusive
    assert digest == want


def test_certify_golden(tmp_path, capsys):
    cfg = tmp_path / "certify.ini"
    cfg.write_text("[certify]\nk_max = 1\n")
    assert main(["certify", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "certificate.json") == (
        "ad8c454fdb67d247b0ded9b7468e49ca030d6ef7fea1033d5bc153e12e215395"
    )
