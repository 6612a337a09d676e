"""Every script under demos/ runs to completion and prints its pinned golden text."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_demo(path: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path_var = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path_var if path_var else src)
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode() == (GOLDEN / f"{path.stem}.txt").read_bytes()
    if path.stem == "06_codes":
        # the certificate words print in the notation of `rm verify`
        fixture = json.loads(
            resources.files("extremal2").joinpath("fixtures", "rm_verify.json").read_text()
        )
        assert f"witness: {fixture['rm46_min_weight_witness']}\n" in result.stdout
        assert f"alpha = {fixture['xi_alpha']} " in result.stdout
        assert f"xi = {fixture['xi']}\n" in result.stdout
