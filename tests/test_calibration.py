"""``scripts/calibrate_constants.py`` re-derives every frozen constant."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_calibration_script_reproduces_frozen_constants():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "calibrate_constants.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    ok = [line for line in run.stdout.splitlines() if line.startswith("ok")]
    assert len(ok) == 5, run.stdout
