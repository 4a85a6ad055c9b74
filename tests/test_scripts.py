"""The scripts run without the test extras (pytest, hypothesis)."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: runs a script as __main__ with --help while pytest and hypothesis cannot be imported
RUN_WITHOUT_EXTRAS = """
import runpy, sys
sys.modules["pytest"] = None
sys.modules["hypothesis"] = None
sys.path.insert(0, {src!r})
sys.argv = [{script!r}, "--help"]
runpy.run_path({script!r}, run_name="__main__")
"""


@pytest.mark.parametrize("name", ["reproduce_headline.py"])
def test_script_help_without_test_extras(name):
    code = RUN_WITHOUT_EXTRAS.format(src=str(ROOT / "src"), script=str(ROOT / "scripts" / name))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
