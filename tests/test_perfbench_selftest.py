"""The benchmark's own self-test passes against the sources, so a change
that breaks its golden-report check fails here too."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest():
    env = dict(os.environ)
    env.pop("MZ_SEED", None)  # the benchmark refuses to run with it set
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == "selftest: ok"
