"""Smoke test: every demo script runs to completion with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# script -> small arguments; None stands for the test's temporary directory
DEMO_ARGS = {
    "growth_rate.py": ["--steps", "2000"],
    "ensemble_histograms.py": ["--runs", "200", "--out", None],
    "exact_root_distributions.py": [],
    "exact_gap_distributions.py": [],
    "enumeration_crosscheck.py": [],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_ARGS)


@pytest.mark.parametrize("script", sorted(DEMO_ARGS))
def test_demo_runs(tmp_path, script):
    args = [str(tmp_path) if a is None else a for a in DEMO_ARGS[script]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
