#!/usr/bin/env python3
"""Reproduce the headline numbers in one run.

For the default surface (``SingularFunctionSpec()``, whose kind, ratio
and depth the first line prints) this prints, per ambient dimension n:

  * a seeded million-pair comparability scan (expected: zero violations),
  * the box-counting slope of the graph (expected: close to n - 1),
  * the projection lower-bound total (expected: approaching n),
  * for n = 2 the inscribed polyline length (increasing toward 2).

Usage:
    python scripts/reproduce_headline.py           # full run (~2.5 min)
    python scripts/reproduce_headline.py --quick   # smaller samples (~20 s)
"""

import argparse
import math
import time

from antichain import (
    SingularFunctionSpec,
    SingularSetProbe,
    SurfaceSpec,
    antichain_scan,
    box_dimension,
    graph_length_n2,
    projection_measures,
)
from antichain.measure import DIMENSION_WINDOWS, PROJECTION_DEFAULTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    f = SingularFunctionSpec()
    pairs = 100_000 if args.quick else 1_000_000
    probe = SingularSetProbe()

    print(f"surface: F(x) = 1 - p(f(x_1), ..., f(x_{{n-1}})), "
          f"{f.kind} ratio {f.lam:g}, depth {f.depth}")
    print(f"comparability scan: {pairs} seeded pairs per dimension\n")

    spec2 = SurfaceSpec(n=2, f=f)
    k_top = 16 if args.quick else 22
    t0 = time.time()
    ladder = [(k, graph_length_n2(spec2, k)) for k in range(8, k_top + 1, 2)]
    line = "  ".join(f"L({k})={v:.4f}" for k, v in ladder)
    print(f"[n=2] inscribed length (limit 2): {line}  [{time.time() - t0:.1f}s]")

    for n in (2, 3, 4, 5):
        spec = SurfaceSpec(n=n, f=f)
        t0 = time.time()
        scan = antichain_scan(spec, pairs, seed=args.seed)
        msg = f"[n={n}] violations={scan.violations}/{scan.pairs}"
        if n in DIMENSION_WINDOWS:
            est = box_dimension(spec, *DIMENSION_WINDOWS[n])
            msg += f"  box-dim slope={est.slope:.3f} (target {n - 1})"
        if n in PROJECTION_DEFAULTS:
            kd, ki, m = PROJECTION_DEFAULTS[n]
            if args.quick and n == 3:
                kd -= 1
            estimates = projection_measures(spec, probe, kd, ki, m, seed=0)
            total = math.fsum(e.area for e in estimates)
            msg += f"  projection total={total:.3f} (target {n})"
        print(msg + f"  [{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
