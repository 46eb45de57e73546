"""Every walkthrough in demos/ runs to completion against the sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MZ_SEED", None)
    done = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    _run(str(demo))


def test_readme_quick_start():
    """The README's Quick start block prints what its comments say."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        "IntPoly(lam^3 - 7*lam^2 + 14*lam - 8)",
        "(Fraction(4, 1), Fraction(4, 1))",
    ]
    for line in expected:
        assert "# " + line in block
    assert _run("-c", block).splitlines() == expected
