"""The README's layout table names every module of the package, its
`lingo eval` examples print what the README says they print, its trace
format table lists each event kind's fields in the order its line writes
them, and its scenario key table names the keys the scenario and attacker
readers accept."""

import json
import re
import shlex
from pathlib import Path

import dialectica
from dialectica.cli import main
from dialectica.runtime import TRACE_LINES
from dialectica.scenario import ATTACKER_FIELDS, SCENARIO_FIELDS
from dialectica.values import Nat

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


def _eval_examples(text: str) -> list[tuple[list[str], str]]:
    """Each ``dialectica lingo eval`` command of the CLI block, its ``\\``
    continuations joined, as (argv after the program name, expected stdout)."""
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("dialectica lingo eval"):
            continue
        command = line
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i]
        expected = lines[i + 1]
        assert expected.startswith("# -> "), expected
        examples.append((shlex.split(command)[1:], expected[len("# -> "):]))
    return examples


def test_eval_examples_are_read():
    text = ("## CLI\n\n```sh\n# note\ndialectica lingo eval 'x y' f \\\n"
            "    1 2\n# -> out\ndialectica lingo check z\n```\n")
    assert _eval_examples(text) == [(["lingo", "eval", "x y", "f", "1", "2"],
                                     "out")]


def test_readme_eval_examples_hold(capsys):
    examples = _eval_examples(README.read_text(encoding="utf-8"))
    assert len(examples) == 3
    for argv, expected in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected + "\n", argv


def _trace_rows(text: str) -> dict[str, list[str]]:
    """Event kind -> its fields, from the table of the Trace format section."""
    section = text.split("## Trace format", 1)[1].split("\n## ", 1)[0]
    return {kind: re.findall(r"`(\w+)`", fields)
            for kind, fields in re.findall(r"^\| `(\w+)` \| (`.*`) \|$", section,
                                           re.MULTILINE)}


def test_trace_rows_are_read():
    text = ("## Trace format\n\n| `ev` | fields |\n|---|---|\n"
            "| `reveal` | `ev`, `revealed`, `t` |\n\n## Next\n\n"
            "| `out` | `t` |\n")
    assert _trace_rows(text) == {"reveal": ["ev", "revealed", "t"]}


# One event holding every field any kind writes; each kind's line reads
# only its own.
_STUB_EVENT = {
    "t": 7, "src": "c1", "dst": "b", "oid": "c1", "peer": "b", "n": 2,
    "seq": 3, "lingo": "xor_nat", "wire": Nat(5), "msg": "PubMsg()",
    "outcome": "delivered", "injected": True, "reason": "noncompliant",
    "direction": "send", "epoch": 1, "encoded": 2, "used": 3, "revealed": 4,
    "strategy": "replay",
}


def test_readme_trace_table_matches_the_trace_lines():
    rows = _trace_rows(README.read_text(encoding="utf-8"))
    assert set(rows) == set(TRACE_LINES)
    for kind, line in TRACE_LINES.items():
        event = json.loads(line({**_STUB_EVENT, "ev": kind}))
        assert event["ev"] == kind
        assert rows[kind] == list(event), kind


def _key_rows(text: str) -> dict[str, list[str]]:
    """Object -> the keys in its row of the Scenario files key table; rows
    that name no key (the header) are left out."""
    section = text.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([^|]+) \| ([^|]+) \| [^|]* \|$", section,
                      re.MULTILINE)
    return {obj: re.findall(r"`(\w+)`", keys) for obj, keys in rows
            if "`" in keys}


def test_key_rows_are_read():
    text = ("## Scenario files\n\n| object | keys | notes |\n"
            "| --- | --- | --- |\n"
            "| `attacker` | `strategies`, `targets` | `x` is not a key |\n"
            "\n## Next\n\n| `outputs` | `trace_path` | |\n")
    assert _key_rows(text) == {"`attacker`": ["strategies", "targets"]}


def test_readme_names_the_scenario_and_attacker_keys():
    rows = _key_rows(README.read_text(encoding="utf-8"))
    assert rows["the scenario"] == list(SCENARIO_FIELDS)
    assert rows["`attacker`"] == list(ATTACKER_FIELDS)
