"""Record the golden reports of every command, and the headline script's stdout.

Each invocation below runs through ``antichain.cli.main``, with the
variables of its ``ENVIRONMENTS`` entry set; its exit code, its environment
and the exact text it writes to stdout are stored in ``reports.json`` beside
this file, which ``tests/test_golden.py`` compares byte for byte.  The
stdout of ``scripts/reproduce_headline.py --quick`` is stored in
``headline_quick.txt``, which ``tests/test_golden.py`` compares too.  Record
from the code whose reports are to be frozen, from the repository root:

    PYTHONPATH=src python tests/golden/record.py

stderr is recorded only for a refusal (exit code 2): that is one ``error:``
line, while a run that finishes prints its wall time there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from antichain import cli

REPORTS = Path(__file__).with_name("reports.json")
HEADLINE = Path(__file__).with_name("headline_quick.txt")
ROOT = Path(__file__).resolve().parents[2]

_SMALL = ["--domain-depth", "6", "--image-depth", "5", "--samples", "2"]
_SCAN = ["--seed", "42", "--pairs", "20000"]

#: name -> argv; each runs in well under half a second
INVOCATIONS = {
    "projections-n2": ["projections", "--n", "2", "--domain-depth", "10", "--seed", "3"],
    "projections-n3": ["projections", "--n", "3", *_SMALL, "--seed", "1"],
    "projections-n4": ["projections", "--n", "4", "--domain-depth", "4", "--image-depth", "4",
                       "--samples", "2", "--seed", "2"],
    "projections-n5": ["projections", "--n", "5", "--domain-depth", "3", "--image-depth", "3",
                       "--samples", "2", "--seed", "5"],
    "projections-lam0.01": ["projections", "--n", "3", "--lambda", "0.01", "--probe-depth", "8",
                            "--probe-eps", "0.001", *_SMALL],
    "projections-lam0.25": ["projections", "--n", "2", "--lambda", "0.25", "--probe-depth", "12",
                            "--probe-eps", "0.5", "--domain-depth", "10", "--image-depth", "8"],
    "projections-lam0.99": ["projections", "--n", "3", "--lambda", "0.99", "--probe-depth", "8",
                            "--probe-eps", "0.001", *_SMALL],
    "projections-image14": ["projections", "--n", "2", "--domain-depth", "10",
                            "--image-depth", "14", "--samples", "2"],
    "projections-image14-probe6": ["projections", "--n", "2", "--probe-depth", "6",
                                   "--probe-eps", "0.5", "--domain-depth", "8",
                                   "--image-depth", "14", "--samples", "2"],
    "projections-depth10": ["projections", "--n", "3", "--depth", "10", "--probe-depth", "8",
                            "--probe-eps", "0.5", *_SMALL],
    "dimension-n2": ["dimension", "--n", "2"],
    "dimension-n3": ["dimension", "--n", "3", "--k-min", "3", "--k-max", "7"],
    "dimension-csv": ["dimension", "--n", "3", "--k-min", "3", "--k-max", "7", "--format", "csv"],
    "projections-csv": ["projections", "--n", "3", *_SMALL, "--seed", "1", "--format", "csv"],
    **{f"check-antichain-n{n}": ["check-antichain", "--n", str(n), *_SCAN] for n in (2, 3, 4, 5)},
    # these two leave pairs within tolerance at the default pair count
    "check-antichain-lam0.01": ["check-antichain", "--lambda", "0.01", "--n", "5"],
    "check-antichain-lam0.1": ["check-antichain", "--lambda", "0.1", "--n", "5", "--seed", "1"],
    **{f"check-antichain-depth{d}": ["check-antichain", "--n", "3", "--depth", str(d), *_SCAN]
       for d in (1, 6, 10)},
    # the 0/0 corner M = 1, P = 0 of p
    "eval-corner": ["eval", "--n", "3", "--depth", "8", "--lambda", "0.999",
                    "--point", "0.00048828125,0.984375"],
    "eval-csv": ["eval", "--n", "3", "--point", "0.3,0.6", "--format", "csv"],
    "check-antichain-csv": ["check-antichain", *_SCAN, "--format", "csv"],
    "length": ["length"],
    "length-lam0.01": ["length", "--k", "12", "--lambda", "0.01"],
    **{f"export-mesh-n{n}-{fmt}": ["export-mesh", "--n", str(n), "--resolution", "7",
                                   "--format", fmt] for n in (2, 3) for fmt in ("json", "csv")},
    # refusals that leave through main's except; the parser's refusals raise SystemExit
    "refuse-eval-depth0": ["eval", "--n", "3", "--point", "0.5,0.5", "--depth", "0"],
    "refuse-export-mesh-resolution0": ["export-mesh", "--resolution", "0"],
    "refuse-dimension-lam1.5": ["dimension", "--n", "3", "--lambda", "1.5"],
    "refuse-check-antichain-pairs0": ["check-antichain", "--pairs", "0"],
    "refuse-projections-probe60": ["projections", "--n", "3", "--probe-depth", "60"],
    "refuse-export-mesh-budget24": ["export-mesh", "--n", "3", "--resolution", "5"],
}

#: name -> environment variables set for that invocation alone
ENVIRONMENTS = {"refuse-export-mesh-budget24": {"ANTICHAIN_BUDGET": "24"}}


def report(argv: list[str], env: dict[str, str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one invocation through ``cli.main``,
    with the variables ``env`` set and the budget variable only if ``env`` sets it."""
    out, err = io.StringIO(), io.StringIO()
    environ = {k: v for k, v in os.environ.items() if k != cli.BUDGET_ENV_VAR}
    with (mock.patch.dict(os.environ, {**environ, **env}, clear=True),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def headline_quick() -> str:
    """stdout of ``scripts/reproduce_headline.py --quick`` in a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_headline.py"),
                           "--quick"], capture_output=True, text=True, env=env, check=True,
                          timeout=300)
    return done.stdout


def main() -> int:
    HEADLINE.write_text(headline_quick(), encoding="utf-8")
    reports = {}
    for name, argv in INVOCATIONS.items():
        env = ENVIRONMENTS.get(name, {})
        code, stdout, stderr = report(argv, env)
        reports[name] = {"argv": argv, "exit_code": code, "stdout": stdout}
        if env:
            reports[name]["env"] = env
        if code == 2:
            reports[name]["stderr"] = stderr
        print(f"{name}: exit {code}", file=sys.stderr)
    REPORTS.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
