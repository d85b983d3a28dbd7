"""Every narrated demo runs to completion against the installed sources."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gridshield

SRC = Path(gridshield.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_library_example_prints_what_its_comments_say(tmp_path):
    """README's library example imports each name from the module that
    defines it, and prints the values its comments give."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    comments = [line.split("#", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert printed == ["StationBusSwitch", "[5, 6]", "23000"]
    assert all(value in comment for value, comment in zip(printed, comments, strict=True))
