"""The benchmark's own test: its smoke mode, run with ``pytest bench``."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def test_smoke_reports_every_declared_metric():
    done = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=120, cwd=RUN.parent.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
