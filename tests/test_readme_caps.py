"""The README's "Size caps" table against the constants in src/: every
row names a module constant with the stated value, and every MAX
constant in the package has a row."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^\| `(\w+)` \| ([\d,]+) \| `(\w+)` \| .+ \|$")


def _table_rows() -> dict[str, tuple[str, int]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Size caps\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("| `")]
    rows = {}
    for line in lines:
        m = ROW.match(line)
        assert m, f"malformed caps row: {line}"
        name, value, module = m.groups()
        assert name not in rows, f"{name} is listed twice"
        rows[name] = (module, int(value.replace(",", "")))
    return rows


def _source_caps() -> dict[str, tuple[str, int]]:
    """Module-level integer constants with MAX in their name."""
    caps = {}
    for path in sorted((ROOT / "src" / "matzero").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if isinstance(target, ast.Name) and "MAX" in target.id:
                value = ast.literal_eval(node.value)
                if type(value) is int:
                    caps[target.id] = (path.stem, value)
    return caps


def test_caps_table_matches_the_source():
    rows = _table_rows()
    assert "MAX_CHARPOLY_MEMO" in rows
    assert rows == _source_caps()
    for name, (module, value) in rows.items():
        assert getattr(importlib.import_module(f"matzero.{module}"), name) == value
