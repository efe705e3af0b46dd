"""Smoke test of the A/B timing script in tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_sweep_same_tree_prints_a_ratio():
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_sweep.py"), src, src, "--reps", "1"],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert "differing final cells: 0 of 22" in result.stdout
    assert "ratio change/parent: median" in result.stdout
