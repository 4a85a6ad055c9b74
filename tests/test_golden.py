"""Golden reports: stdout and exit code of every command through ``cli.main``,
and the stdout of ``reproduce_headline.py --quick``, byte for byte as
recorded by ``golden/record.py``."""

import json
from pathlib import Path

import pytest

from antichain.cli import main
from golden.record import HEADLINE, headline_quick

REPORTS = json.loads((Path(__file__).parent / "golden" / "reports.json").read_text("utf-8"))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_golden_report(capsys, name):
    recorded = REPORTS[name]
    code = main(list(recorded["argv"]))
    assert code == recorded["exit_code"]
    assert capsys.readouterr().out == recorded["stdout"]


def test_headline_quick_stdout():
    assert headline_quick() == HEADLINE.read_text("utf-8")
