"""Golden reports: stdout and exit code of every command through ``cli.main``,
with stderr for each refusal, and the stdout of ``reproduce_headline.py
--quick``, byte for byte as recorded by ``golden/record.py``."""

import json
from pathlib import Path

import pytest

from antichain.cli import BUDGET_ENV_VAR, main
from golden.record import HEADLINE, headline_quick

REPORTS = json.loads((Path(__file__).parent / "golden" / "reports.json").read_text("utf-8"))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_golden_report(capsys, monkeypatch, name):
    recorded = REPORTS[name]
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)  # set only where recorded
    for var, value in recorded.get("env", {}).items():
        monkeypatch.setenv(var, value)
    code = main(list(recorded["argv"]))
    assert code == recorded["exit_code"]
    out, err = capsys.readouterr()
    assert out == recorded["stdout"]
    if code == 2:  # a refusal's stderr is its one error line, without a wall time
        assert err == recorded["stderr"]


def test_headline_quick_stdout():
    assert headline_quick() == HEADLINE.read_text("utf-8")
