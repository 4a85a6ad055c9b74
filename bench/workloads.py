"""The four benchmark workloads: CLI argv, work-item count and output check.

Every workload drives ``antichain.cli.main`` with salem, lambda = 1/4 and
depth 52.  Each one leans on a different mix of modules:

* ``scan``        -- ``check-antichain --n 5``: the only user of
                     ``surface.antichain_scan`` (rejection sampling, large
                     ``evaluate_many`` arrays, high peak memory).
* ``cover``       -- ``dimension --n 3`` with the calibrated window shape
                     (six depths, 2 samples per cell): the only user of the
                     ``measure.occupied_cell_count`` sweep and its dedup.
* ``projections`` -- ``projections --n 3`` at probe depth 40: the only user
                     of the slope probe, jitter and occupancy marking.
* ``mesh``        -- ``export-mesh --n 3 --format csv``: thousands of scalar
                     ``F_eval`` calls on two-element arrays, so per-call
                     set-up cost shows here and nowhere else.

Output checks compare against ``reference.json``, written from the code at
the commit that introduced the benchmark by ``record_reference.py``.  They
admit the 2-ulp moves of surface values that a rewritten kernel may make
and nothing more: occupied-cell counts must lie in the interval swept out
when every sample value within 2 ulp of a cell boundary is moved to either
side, and mesh values must lie within their recorded error bound.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: slack for float rounding in the least-squares fit of log counts
SLOPE_SLACK = 1e-12

_COMMON = ["--kind", "salem", "--lambda", "0.25", "--depth", "52"]

#: problem sizes; "full" is what the benchmark times, "smoke" is the
#: tiny size the smoke mode and the benchmark's own test use
SIZES = {
    "scan": {"full": {"n": 5, "pairs": 100_000}, "smoke": {"n": 5, "pairs": 2_000}},
    "cover": {
        "full": {"n": 3, "k_min": 2, "k_max": 7, "samples": 2},
        "smoke": {"n": 3, "k_min": 2, "k_max": 4, "samples": 2},
    },
    "projections": {
        "full": {"n": 3, "probe_depth": 40, "domain_depth": 8, "image_depth": 6, "samples": 3},
        "smoke": {"n": 3, "probe_depth": 40, "domain_depth": 4, "image_depth": 4, "samples": 2},
    },
    "mesh": {"full": {"n": 3, "resolution": 32}, "smoke": {"n": 3, "resolution": 4}},
}

#: number of recorded projection seeds per size
PROJECTION_SEEDS = {"full": 24, "smoke": 4}


def argv_for(workload: str, size: str, seed: int) -> list[str]:
    """CLI argv of one invocation for the workload seed ``seed``.

    ``scan`` passes the seed on, since its check is an invariant;
    ``projections`` passes the recorded reference seed it selects, so every
    report has a reference; the other commands take no seed.
    """
    p = SIZES[workload][size]
    n = ["--n", str(p["n"])]
    if workload == "scan":
        return ["check-antichain", *n, *_COMMON, "--pairs", str(p["pairs"]),
                "--seed", str(seed)]
    if workload == "cover":
        return ["dimension", *n, *_COMMON, "--k-min", str(p["k_min"]),
                "--k-max", str(p["k_max"]), "--samples", str(p["samples"])]
    if workload == "projections":
        return ["projections", *n, *_COMMON, "--probe-depth", str(p["probe_depth"]),
                "--domain-depth", str(p["domain_depth"]),
                "--image-depth", str(p["image_depth"]), "--samples", str(p["samples"]),
                "--seed", str(seed % PROJECTION_SEEDS[size])]
    return ["export-mesh", *n, *_COMMON, "--format", "csv",
            "--resolution", str(p["resolution"])]


def items(workload: str, size: str) -> int:
    """Work items per invocation, fixed by the problem size alone.

    pairs for ``scan``; for ``cover`` the surface evaluations of one sweep
    per depth of the window (so sweep reuse shows as throughput); jittered
    samples for ``projections``; mesh points for ``mesh``.
    """
    p = SIZES[workload][size]
    if workload == "scan":
        return p["pairs"]
    if workload == "cover":
        d = p["n"] - 1
        return sum((1 << (k * d)) * (p["samples"] + 1) ** d
                   for k in range(p["k_min"], p["k_max"] + 1))
    if workload == "projections":
        d = p["n"] - 1
        return (1 << (p["domain_depth"] * d)) * p["samples"] ** d
    return p["resolution"] ** (p["n"] - 1)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, size: str, argv: list[str], code: int, text: str,
          reference: dict) -> str | None:
    """Why one CLI invocation's exit code or report is wrong, or None if it is right."""
    if code != 0:
        return f"exit code {code}"
    if workload == "mesh":
        return _check_mesh(text, reference["mesh"][size])
    results = json.loads(text)["results"]
    if workload == "scan":
        return _check_scan(results, SIZES["scan"][size]["pairs"])
    if workload == "cover":
        return _check_cover(results, reference["cover"][size])
    cli_seed = argv[argv.index("--seed") + 1]
    return _check_projections(results, reference["projections"][size]["seeds"][cli_seed],
                              SIZES["projections"][size])


def _check_scan(results: dict, pairs: int) -> str | None:
    if results["violations"] != 0:
        return f"{results['violations']} violations"
    if results["pairs"] != pairs or results["ordered_ok"] + results["violations"] != pairs:
        return f"verdicts {results} do not sum to {pairs} pairs"
    return None


def _check_cover(results: dict, ref: dict) -> str | None:
    lo, hi = ref["count_lo"][-1], ref["count_hi"][-1]
    if results["depths"] != ref["depths"]:
        return f"depths {results['depths']} != {ref['depths']}"
    if not lo <= results["cover_count_finest"] <= hi:
        return f"finest count {results['cover_count_finest']} outside [{lo}, {hi}]"
    s_lo, s_hi = ref["slope_lo"] - SLOPE_SLACK, ref["slope_hi"] + SLOPE_SLACK
    if not s_lo <= results["slope"] <= s_hi:
        return f"slope {results['slope']!r} outside [{s_lo!r}, {s_hi!r}]"
    return None


def _check_projections(results: dict, ref: dict, p: dict) -> str | None:
    cell_area = 2.0 ** (-p["image_depth"] * (p["n"] - 1))
    for axis, area in results["areas"].items():
        count = area / cell_area  # exact: the area is a count times a power of two
        lo, hi = ref["count_lo"][axis], ref["count_hi"][axis]
        if not lo <= count <= hi:
            return f"axis {axis} count {count} outside [{lo}, {hi}]"
    if not results["total"] <= p["n"]:
        return f"total {results['total']} exceeds n = {p['n']}"
    return None


def _check_mesh(text: str, ref: dict) -> str | None:
    lines = text.splitlines()
    if lines[0] != "x1,x2,F":
        return f"header {lines[0]!r}"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    r = len(ref["grid"])
    if rows.shape != (r * r, 3):
        return f"mesh shape {rows.shape}, expected ({r * r}, 3)"
    grid = np.array(ref["grid"])
    if not (np.array_equal(rows[:, 0], np.repeat(grid, r))
            and np.array_equal(rows[:, 1], np.tile(grid, r))):
        return "mesh grid coordinates differ from the reference"
    miss = np.abs(rows[:, 2] - np.array(ref["F"])) > np.array(ref["bound"])
    if miss.any():
        return f"{int(miss.sum())} mesh values outside their error bound"
    return None
