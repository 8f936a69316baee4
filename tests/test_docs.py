"""The README's library overview names only what the modules define."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _overview_rows() -> list[tuple[str, str]]:
    """``(module, contents)`` of each row of the "Library overview" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(tgtkit\.\w+)` \| (.*) \|$", section, re.MULTILINE)


def test_overview_names_are_module_attributes():
    rows = _overview_rows()
    assert [module for module, _ in rows] == [
        "tgtkit.matrix", "tgtkit.model", "tgtkit.disjunct",
        "tgtkit.decode", "tgtkit.analysis", "tgtkit.simulate",
    ]
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = re.findall(r"`([^`]*)`", contents)
        assert names, module_name
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module_name, missing)
