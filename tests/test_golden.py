"""Golden reports: stdout and exit code of the projection and cover sweeps,
the pair scan and ``eval`` through ``cli.main``, byte for byte as recorded by ``golden/record.py``."""

import json
from pathlib import Path

import pytest

from antichain.cli import main

REPORTS = json.loads((Path(__file__).parent / "golden" / "reports.json").read_text("utf-8"))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_golden_report(capsys, name):
    recorded = REPORTS[name]
    code = main(list(recorded["argv"]))
    assert code == recorded["exit_code"]
    assert capsys.readouterr().out == recorded["stdout"]
