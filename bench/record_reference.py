"""Write ``reference.json``, the values the benchmark's output checks compare to.

Run from the repository root with ``python3 bench/record_reference.py``.
It was run once, at the commit that introduced the benchmark; rerunning it
on a later commit would bless whatever that commit computes, so don't.

For every occupied-cell count it records an interval rather than a point.
Each sample whose surface value lies within 2 ulp of a cell boundary at the
marking depth may land on either side under a kernel that moves values by
2 ulp.  The low end counts the cells marked by the other samples only; the
high end adds both candidate cells of every such sample.  Any mix of moves
gives a count inside the interval.  Slope bounds follow from the count
intervals through the least-squares weights.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from antichain import cli, measure, surface  # noqa: E402
from antichain.singular import SingularSetProbe  # noqa: E402

import env  # noqa: E402
import workloads  # noqa: E402

ULPS = 2


class BoundaryMarks:
    """Stands in for ``measure._mark_codes`` and collects the cell codes a
    call marks, split by whether a 2-ulp move of the last coordinate (the
    surface value) can change the cell."""

    def __init__(self) -> None:
        self.original = measure._mark_codes
        self.moves_value = True
        self.sure: list[np.ndarray] = []
        self.either: list[np.ndarray] = []

    def __call__(self, points: np.ndarray, depth: int) -> np.ndarray:
        codes = self.original(points, depth)
        if not self.moves_value:
            self.sure.append(codes)
            return codes
        down, up = points.copy(), points.copy()
        for _ in range(ULPS):
            down[:, -1] = np.nextafter(down[:, -1], -np.inf)
            up[:, -1] = np.nextafter(up[:, -1], np.inf)
        c_down, c_up = self.original(down, depth), self.original(up, depth)
        moved = (c_down != codes) | (c_up != codes)
        self.sure.append(codes[~moved])
        self.either += [c_down[moved], c_up[moved]]
        return codes

    def interval(self) -> tuple[int, int]:
        sure = np.unique(np.concatenate(self.sure))
        every = np.unique(np.concatenate([sure, *self.either]))
        return int(sure.size), int(every.size)

    @contextlib.contextmanager
    def active(self, moves_value: bool = True):
        self.moves_value, self.sure, self.either = moves_value, [], []
        measure._mark_codes = self
        try:
            yield self
        finally:
            measure._mark_codes = self.original


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"reference inconsistent: {message}")


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return out.getvalue()


def spec_for(n: int) -> surface.SurfaceSpec:
    return cli.RunConfig(command="eval", n=n).surface_spec()


def record_cover(size: str) -> dict:
    p = workloads.SIZES["cover"][size]
    spec = spec_for(p["n"])
    depths = list(range(p["k_min"], p["k_max"] + 1))
    marks = BoundaryMarks()
    counts, lo, hi = [], [], []
    for k in depths:
        with marks.active():
            counts.append(measure.occupied_cell_count(spec, k, p["samples"]))
        a, b = marks.interval()
        lo.append(a)
        hi.append(b)
    ks = np.array(depths, dtype=np.float64)
    w = (ks - ks.mean()) / np.sum((ks - ks.mean()) ** 2)
    log_lo, log_hi = np.log2(lo), np.log2(hi)
    slope_lo = float(np.sum(np.where(w > 0, w * log_lo, w * log_hi)))
    slope_hi = float(np.sum(np.where(w > 0, w * log_hi, w * log_lo)))
    report = json.loads(run_cli(workloads.argv_for("cover", size, 0)))["results"]
    _require(report["cover_count_finest"] == counts[-1], "finest count differs from the sweep")
    _require(slope_lo - workloads.SLOPE_SLACK <= report["slope"] <= slope_hi + workloads.SLOPE_SLACK,
             "reported slope outside its own interval")
    return {"depths": depths, "count": counts, "count_lo": lo, "count_hi": hi,
            "slope": report["slope"], "slope_lo": slope_lo, "slope_hi": slope_hi}


def record_projections(size: str) -> dict:
    p = workloads.SIZES["projections"][size]
    spec = spec_for(p["n"])
    probe = SingularSetProbe(depth=p["probe_depth"], eps=0.01)
    marks = BoundaryMarks()
    seeds = {}
    for seed in range(workloads.PROJECTION_SEEDS[size]):
        entry = {"area": {}, "count_lo": {}, "count_hi": {}}
        for axis in range(1, p["n"] + 1):
            # the axis-n image holds domain coordinates only, so no value moves
            with marks.active(moves_value=axis != p["n"]):
                est = measure.projection_measure(spec, axis, probe, p["domain_depth"],
                                                 p["image_depth"], p["samples"], seed=seed)
            entry["area"][str(axis)] = est.area
            entry["count_lo"][str(axis)], entry["count_hi"][str(axis)] = marks.interval()
        report = json.loads(run_cli(workloads.argv_for("projections", size, seed)))["results"]
        _require(report["areas"] == entry["area"], "per-axis sweep differs from the CLI")
        seeds[str(seed)] = entry
        print(f"projections {size} seed {seed}: {entry['area']}", file=sys.stderr)
    return {"seeds": seeds}


def record_mesh(size: str) -> dict:
    p = workloads.SIZES["mesh"][size]
    spec = spec_for(p["n"])
    text = run_cli(workloads.argv_for("mesh", size, 0))
    rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
    bounds = [surface.F_eval(spec, surface.Point((x1, x2)))[1] for x1, x2, _ in rows]
    grid = [(i + 1) / (p["resolution"] + 1) for i in range(p["resolution"])]
    return {"grid": grid, "F": [r[2] for r in rows], "bound": bounds}


def main() -> None:
    sizes = ("full", "smoke")
    reference = {
        "source": env.source_identity(ROOT),
        "ulps": ULPS,
        "cover": {s: record_cover(s) for s in sizes},
        "projections": {s: record_projections(s) for s in sizes},
        "mesh": {s: record_mesh(s) for s in sizes},
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
