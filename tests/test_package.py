"""The package root loads no layer: importing one module loads only that one."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_importing_one_layer_loads_no_other():
    code = (
        "import sys, extremal2.reedmuller; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'extremal2')))"
    )
    path_var = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path_var if path_var else SRC)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["extremal2", "extremal2.reedmuller"]
