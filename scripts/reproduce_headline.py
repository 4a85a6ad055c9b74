#!/usr/bin/env python3
"""Reproduce the headline numbers, and the calibration behind every frozen
test threshold, in one run.

For the default surface (``SingularFunctionSpec()``, whose kind, ratio and
depth the first line prints) this prints, each quantity computed once:

  1. the slope concentration at the probe depth: median slope beside its
     analytic value, the fractions below eps and below 1;
  2. the planar inscribed length ladder (increasing toward 2), by direct
     dyadic summation beside the closed-form binomial oracle, which also
     reaches depths beyond direct summation;
  3. for n = 2..5, a seeded comparability scan (expected: zero violations);
  4. box-counting windows: slope (expected: close to n - 1), fit quality and
     the trend cover value at the finest depth, then the alpha(s) check;
  5. the sampled projection areas per axis and their total (target n);
     these are estimates that move with the image depth, not lower bounds.

``--seed`` keys the slope sample and the scans; the projection sweep keeps
seed 0, the seed its frozen floors were taken at.  The length oracle is
imported from tests/oracles.py, which needs only numpy, so the test extras
are not needed.

Usage (times measured on 2 cores):
    python scripts/reproduce_headline.py           # full run (about 11 s)
    python scripts/reproduce_headline.py --quick   # 10^5 pairs, ladder to 16,
                                                   # coarser n = 3 sweep (about 3.5 s)
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from antichain import (
    SingularFunctionSpec,
    SingularSetProbe,
    SurfaceSpec,
    alpha,
    antichain_scan,
    box_dimension,
    graph_length_n2,
    projection_measures,
)
from antichain.measure import DIMENSION_WINDOWS, PROJECTION_DEFAULTS, cover_sum
from antichain.singular import dyadic_slopes_many

# the closed-form length oracle lives with the tests that freeze its numbers
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import length_binomial, seeded_rng  # noqa: E402


def banner(title: str) -> None:
    print(f"\n== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="10^5 pairs, ladder to depth 16, n = 3 domain depth one less")
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()

    f, probe = SingularFunctionSpec(), SingularSetProbe()
    lam = f.lam
    pairs = 100_000 if args.quick else 1_000_000
    print(f"surface: F(x) = 1 - p(f(x_1), ..., f(x_{{n-1}})), "
          f"{f.kind} ratio {lam:g}, depth {f.depth}; seed {args.seed}")

    banner(f"1. slope concentration (depth {probe.depth}, 10^4 uniform points)")
    slopes = dyadic_slopes_many(f, seeded_rng(args.seed).random(10_000), probe.depth)
    # half the probe's digits are ones at the median: (4 lam (1 - lam))^(depth/2)
    half = probe.depth / 2
    print(f"median slope          : {np.median(slopes):.6f}   (analytic "
          f"(4*{lam:g}*{1 - lam:g})^{half:g} = {(4 * lam * (1 - lam)) ** half:.6f})")
    print(f"fraction slope < {probe.eps} : {np.mean(slopes < probe.eps):.4f}")
    print(f"fraction slope < 1    : {np.mean(slopes < 1.0):.4f}")
    print("frozen: median < 0.01, fraction(<0.01) >= 0.6, fraction(<1) >= 0.95")

    banner(f"2. planar inscribed length (limit 2), lam = {lam:g}")
    t0 = time.time()
    for k in range(8, (16 if args.quick else 22) + 1, 2):
        direct, agg = graph_length_n2(SurfaceSpec(n=2, f=f), k), length_binomial(k, lam)
        print(f"k={k:2d}: direct={direct:.10f}  binomial={agg:.10f}  "
              f"diff={abs(direct - agg):.2e}")
    print(f"(direct ladder took {time.time() - t0:.1f}s)")
    print("binomial aggregation beyond direct reach:")
    for k in (30, 40, 52, 60, 80):
        print(f"k={k:2d}: length={length_binomial(k, lam):.10f}")
    print("note: the value enters [1.95, 2.0] only around k = 52")

    banner(f"3. comparability scans, {pairs} seeded pairs each (expected: 0)")
    for n in (2, 3, 4, 5):
        t0 = time.time()
        scan = antichain_scan(SurfaceSpec(n=n, f=f), pairs, seed=args.seed)
        print(f"n={n}: violations={scan.violations}/{scan.pairs}  [{time.time() - t0:.1f}s]")

    banner("4. box-count scaling windows (slope target n - 1)")
    for n, (k_min, k_max, m) in DIMENSION_WINDOWS.items():
        t0 = time.time()
        est = box_dimension(SurfaceSpec(n=n, f=f), k_min, k_max, m)
        trend = cover_sum(n - 1, n, k_max, est.fitted_count(k_max))
        print(f"n={n} window=[{k_min},{k_max}] samples={m}: "
              f"slope={est.slope:.4f} r2={est.r2:.5f} "
              f"trend value={trend:.4f} (vs 1.25*n={1.25 * n:.2f})  "
              f"[{time.time() - t0:.1f}s]")
    print(f"alpha check: a(1)={alpha(1.0):.12f} a(2)={alpha(2.0):.12f}")

    banner("5. sampled projection areas/total (target n, seed 0)")
    for n, (kd, ki, m) in PROJECTION_DEFAULTS.items():
        if args.quick and n == 3:
            kd -= 1
        t0 = time.time()
        estimates = projection_measures(SurfaceSpec(n=n, f=f), probe, kd, ki, m, seed=0)
        areas = " ".join(f"axis{e.axis}={e.area:.4f}" for e in estimates)
        total = math.fsum(e.area for e in estimates)
        print(f"n={n} kd={kd} ki={ki} m={m}: {areas}  total={total:.4f}  "
              f"[{time.time() - t0:.1f}s]")
    print("frozen floors: per-axis 0.8 (n=2) / 0.85 (n=3); totals 1.8 / 2.6")


if __name__ == "__main__":
    main()
