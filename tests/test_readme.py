"""README.md against the package: every name it gives in backticks as
``flashlab.<module>.<attr>`` exists, so a rename or a removal that leaves
the README behind fails here."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
DOTTED = re.compile(r"`flashlab\.([a-z_]+)\.([A-Za-z_]\w*)")


def test_readme_dotted_names_exist():
    names = DOTTED.findall(README.read_text())
    assert names, "no `flashlab.<module>.<attr>` name found in README.md"
    missing = [
        f"flashlab.{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"flashlab.{module}"), attr)
    ]
    assert missing == []
