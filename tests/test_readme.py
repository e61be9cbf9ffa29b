"""README.md against the package: every name it gives in backticks as
``flashlab.<module>.<attr>`` exists, and its example config is accepted
and means what it says, so a rename, a removal or a changed default that
leaves the README behind fails here."""

import importlib
import re
from pathlib import Path

from flashlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
DOTTED = re.compile(r"`flashlab\.([a-z_]+)\.([A-Za-z_]\w*)")
INI_BLOCK = re.compile(r"```ini\n(.*?)```", re.DOTALL)


def test_readme_dotted_names_exist():
    names = DOTTED.findall(README.read_text())
    assert names, "no `flashlab.<module>.<attr>` name found in README.md"
    missing = [
        f"flashlab.{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"flashlab.{module}"), attr)
    ]
    assert missing == []


def test_readme_example_config_is_the_default_at_seed_7(tmp_path):
    # the example spells out every default with master_seed = 7, so
    # classify and certify write with it what --seed 7 alone writes
    (block,) = INI_BLOCK.findall(README.read_text())
    config = tmp_path / "example.ini"
    config.write_text(block)
    with_config, seed_only = tmp_path / "with_config", tmp_path / "seed_only"
    for command in (["classify", "--model", "preferred_frame"], ["certify"]):
        assert main([*command, "--config", str(config), "--out", str(with_config)]) == 0
        assert main([*command, "--seed", "7", "--out", str(seed_only)]) == 0
    for name in ("classify_preferred_frame.json", "certificate.json"):
        assert (with_config / name).read_bytes() == (seed_only / name).read_bytes(), name


STATE_PAIRS = re.compile(r'"((?:\S+,\S+ ){3}\S+,\S+)"')


def test_readme_states_are_accepted(tmp_path):
    # every four-pair state the README gives runs as written
    states = STATE_PAIRS.findall(README.read_text())
    assert states, "no re,im state found in README.md"
    for i, state in enumerate(states):
        config = tmp_path / f"state{i}.ini"
        config.write_text(f"[experiment]\nstate = {state}\n")
        assert main(["run", "--config", str(config), "--n", "100",
                     "--out", str(tmp_path / f"out{i}")]) == 0, state
