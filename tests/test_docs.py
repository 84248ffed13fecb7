"""The README's layout table names every module of the package."""

import re
from pathlib import Path

import dialectica

README = Path(__file__).resolve().parents[1] / "README.md"
_PACKAGE = Path(dialectica.__file__).parent


def _module_names() -> set[str]:
    return {"dialectica" if p.stem == "__init__" else f"dialectica.{p.stem}"
            for p in _PACKAGE.glob("*.py")}


def _layout_rows(text: str) -> set[str]:
    """The module names in the first column of the Layout table."""
    section = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([\w.]+)` \|", section, re.MULTILINE))


def test_layout_rows_are_read():
    text = ("## Layout\n\n| module | contents |\n| --- | --- |\n"
            "| `dialectica.core` | lingos |\n| `dialectica/scenarios/` | files |\n"
            "\n## Next\n\n| `dialectica.other` | not in the table |\n")
    assert _layout_rows(text) == {"dialectica.core"}


def test_every_module_has_a_layout_row():
    assert _module_names() - _layout_rows(README.read_text(encoding="utf-8")) == set()
