#!/usr/bin/env python3
"""Oracle calibration run: the numbers behind every frozen test threshold.

Reproduces, from scratch and with fixed seeds:

  1. slope-concentration statistics of the default singular function
     (median dyadic slope, fraction below 0.01, fraction below 1);
  2. the planar inscribed-length ladder, both by direct dyadic summation
     and by the exact binomial aggregation, including depths far beyond
     what direct summation can reach;
  3. box-count scaling windows for n in {2, 3}: slopes, fit quality and
     the trend-extrapolated cover values at the finest depth;
  4. projection areas at the frozen estimator parameters.

The length oracle is imported from tests/oracles.py, which needs only
numpy, so the test extras are not needed.

Usage:
    python scripts/calibration_run.py            # full run (~2 min)
    python scripts/calibration_run.py --quick    # reduced depths (~15 s)
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from antichain import (
    SingularFunctionSpec,
    SingularSetProbe,
    SurfaceSpec,
    alpha,
    box_dimension,
    graph_length_n2,
    projection_measures,
)
from antichain.measure import DIMENSION_WINDOWS, PROJECTION_DEFAULTS, cover_sum
from antichain.singular import dyadic_slopes_many

# the closed-form length oracle lives with the tests that freeze its numbers
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import length_binomial  # noqa: E402


def banner(title: str) -> None:
    print()
    print(f"== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced depths")
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()

    lam = 0.25
    f = SingularFunctionSpec(lam=lam, depth=52)

    banner("1. slope concentration (depth 40, 10^4 uniform points)")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    slopes = dyadic_slopes_many(f, rng.random(10_000), 40)
    print(f"median slope          : {np.median(slopes):.6f}   (analytic (3/4)^20 = {0.75**20:.6f})")
    print(f"fraction slope < 0.01 : {np.mean(slopes < 0.01):.4f}")
    print(f"fraction slope < 1    : {np.mean(slopes < 1.0):.4f}")
    print("frozen: median < 0.01, fraction(<0.01) >= 0.6, fraction(<1) >= 0.95")

    banner("2. planar inscribed length, lam = 1/4")
    spec2 = SurfaceSpec(n=2, f=f)
    top = 16 if args.quick else 22
    t0 = time.time()
    for k in range(8, top + 1, 2):
        direct = graph_length_n2(spec2, k)
        agg = length_binomial(k, lam)
        print(f"k={k:2d}: direct={direct:.10f}  binomial={agg:.10f}  "
              f"diff={abs(direct - agg):.2e}")
    print(f"(direct ladder took {time.time() - t0:.1f}s)")
    print("binomial aggregation beyond direct reach:")
    for k in (30, 40, 52, 60, 80):
        print(f"k={k:2d}: length={length_binomial(k, lam):.10f}")
    print("note: the value enters [1.95, 2.0] only around k = 52")

    banner("3. box-count scaling windows")
    for n, (k_min, k_max, m) in DIMENSION_WINDOWS.items():
        if args.quick:
            k_max = min(k_max, k_min + 4)
        spec = SurfaceSpec(n=n, f=f)
        t0 = time.time()
        est = box_dimension(spec, k_min, k_max, m)
        trend = cover_sum(n - 1, n, k_max, est.fitted_count(k_max))
        print(f"n={n} window=[{k_min},{k_max}] samples={m}: "
              f"slope={est.slope:.4f} r2={est.r2:.5f} "
              f"trend value={trend:.4f} (vs 1.25*n={1.25 * n:.2f})  "
              f"[{time.time() - t0:.1f}s]")
    print(f"alpha check: a(1)={alpha(1.0):.12f} a(2)={alpha(2.0):.12f}")

    banner("4. projection areas at frozen parameters (seed 0)")
    probe = SingularSetProbe(depth=40, eps=0.01)
    for n, (kd, ki, m) in PROJECTION_DEFAULTS.items():
        if args.quick and n == 3:
            kd -= 1
        spec = SurfaceSpec(n=n, f=f)
        t0 = time.time()
        estimates = projection_measures(spec, probe, kd, ki, m, seed=0)
        areas = " ".join(f"axis{e.axis}={e.area:.4f}" for e in estimates)
        total = sum(e.area for e in estimates)
        print(f"n={n} kd={kd} ki={ki} m={m}: {areas}  total={total:.4f}  "
              f"[{time.time() - t0:.1f}s]")
    print("frozen floors: per-axis 0.8 (n=2) / 0.85 (n=3); totals 1.8 / 2.6")


if __name__ == "__main__":
    main()
