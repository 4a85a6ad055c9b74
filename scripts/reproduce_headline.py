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
     Beside the n = 2 total, the certified bracket [lower bound, 2] on the
     graph's length: ``projection_lower_bound`` at probe depth 200 and the
     ones-count threshold that maximises it, under the EMPR upper bound n.

``--seed`` keys the slope sample and the scans; the projection sweep keeps
seed 0, the seed its frozen floors were taken at.  The length oracle is
imported from tests/oracles.py, which needs only numpy, so the test extras
are not needed.

Timings go to stderr, so stdout is the same on every run of one seed.

Usage (times measured on 2 cores):
    python scripts/reproduce_headline.py           # full run (about 4 s)
    python scripts/reproduce_headline.py --quick   # 10^5 pairs, ladder to 16,
                                                   # coarser n = 3 sweep (about 1 s)
"""

import argparse
import math
import sys
import time
from decimal import ROUND_FLOOR, Decimal
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
    projection_lower_bound,
    projection_measures,
)
from antichain.cli import keep_freed_heap
from antichain.measure import DIMENSION_WINDOWS, PROJECTION_DEFAULTS, cover_sum
from antichain.singular import dyadic_slopes_many

# the closed-form length oracle lives with the tests that freeze its numbers
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import length_binomial, seeded_rng  # noqa: E402


def banner(title: str) -> None:
    print(f"\n== {title} " + "=" * max(0, 60 - len(title)))


def took(what: str, t0: float) -> None:
    """The wall time of ``what`` since ``t0``, on stderr."""
    sys.stdout.flush()  # keeps the time after the line it belongs to on a terminal
    print(f"({what} took {time.time() - t0:.1f}s)", file=sys.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="10^5 pairs, ladder to depth 16, n = 3 domain depth one less")
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()
    keep_freed_heap()  # the allocator policy of the command line, as in ``cli.main``

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
    took("direct ladder", t0)
    print("binomial aggregation beyond direct reach:")
    for k in (30, 40, 52, 60, 80):
        print(f"k={k:2d}: length={length_binomial(k, lam):.10f}")
    print("note: the value enters [1.95, 2.0] only around k = 52")

    banner(f"3. comparability scans, {pairs} seeded pairs each (expected: 0)")
    for n in (2, 3, 4, 5):
        t0 = time.time()
        scan = antichain_scan(SurfaceSpec(n=n, f=f), pairs, seed=args.seed)
        print(f"n={n}: violations={scan.violations}/{scan.pairs}")
        took(f"scan n={n}", t0)

    banner("4. box-count scaling windows (slope target n - 1)")
    for n, (k_min, k_max, m) in DIMENSION_WINDOWS.items():
        t0 = time.time()
        est = box_dimension(SurfaceSpec(n=n, f=f), k_min, k_max, m)
        trend = cover_sum(n - 1, n, k_max, est.fitted_count(k_max))
        print(f"n={n} window=[{k_min},{k_max}] samples={m}: "
              f"slope={est.slope:.4f} r2={est.r2:.5f} "
              f"trend value={trend:.4f} (vs 1.25*n={1.25 * n:.2f})")
        took(f"box count n={n}", t0)
    print(f"alpha check: a(1)={alpha(1.0):.12f} a(2)={alpha(2.0):.12f}")

    banner("5. sampled projection areas/total (target n, seed 0)")
    for n, (kd, ki, m) in PROJECTION_DEFAULTS.items():
        if args.quick and n == 3:
            kd -= 1
        t0 = time.time()
        areas = projection_measures(SurfaceSpec(n=n, f=f), probe, kd, ki, m, seed=0)
        listed = " ".join(f"axis{axis}={area:.4f}" for axis, area in areas.items())
        total = math.fsum(areas.values())
        print(f"n={n} kd={kd} ki={ki} m={m}: {listed}  total={total:.4f}")
        took(f"projections n={n}", t0)
        if n == 2:  # exact sums over the ones counts: no sampling, no budget
            spec, k = SurfaceSpec(n=2, f=f), 200
            bound, ones = max((projection_lower_bound(spec, k, o), o) for o in range(k + 1))
            # rounded down from the double's exact value, so the printed bound stays certified
            low = Decimal(bound).quantize(Decimal("1e-6"), rounding=ROUND_FLOOR)
            print(f"n=2 certified bracket [{low}, 2] (depth-{k} cells of at most {ones} ones)")
    print("frozen floors: per-axis 0.8 (n=2) / 0.85 (n=3); totals 1.8 / 2.6")
    if args.quick:
        print("(floors calibrated at the full depths; --quick sweeps n = 3 one domain "
              "digit coarser and is not held to them)")


if __name__ == "__main__":
    main()
