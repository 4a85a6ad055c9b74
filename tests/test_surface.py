import dataclasses
import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import antichain.surface as surface_module
from antichain import (
    CANTOR,
    MINKOWSKI,
    SALEM,
    BudgetError,
    ConfigurationError,
    DomainError,
    F_eval,
    Point,
    SingularFunctionSpec,
    SingularSetProbe,
    SurfaceSpec,
    antichain_scan,
    check_antichain_pair,
    p_eval,
    p_projective_crosscheck,
)
from antichain.measure import classify_regions
from antichain.surface import p_many, surface_enclosure, surface_values

from oracles import salem_recursive, salem_truncation_exact, seeded_rng

open_floats = st.floats(min_value=1e-9, max_value=1.0 - 1e-9, allow_nan=False)


def p_formula(coords) -> float:
    # independent brute-force route: the sorted-product formula spelled out
    vals = sorted(coords)
    if len(vals) == 1:
        return vals[0]
    prod = 1.0
    for v in vals[:-1]:
        prod *= v
    return prod / (1.0 - vals[-1] + prod)


# ------------------------------------------------------------------- types


def test_point_validation():
    with pytest.raises(DomainError):
        Point((0.0, 0.5))
    with pytest.raises(DomainError):
        Point((0.5, 1.0))
    with pytest.raises(DomainError):
        Point(())
    assert Point((0.5, 0.25)).dim == 2


def test_surface_spec_rejects_cantor():
    with pytest.raises(ConfigurationError):
        SurfaceSpec(n=3, f=SingularFunctionSpec(kind=CANTOR))


def test_surface_spec_rejects_n1(salem_default):
    with pytest.raises(ConfigurationError):
        SurfaceSpec(n=1, f=salem_default)


# ----------------------------------------------------------------------- p


def test_p_dim1_is_identity():
    assert p_eval(Point((0.37,))) == 0.37


def test_p_dim2_center():
    assert p_eval(Point((0.5, 0.5))) == pytest.approx(0.5, abs=1e-15)


def test_p_dim2_symmetric_pair():
    a = p_eval(Point((0.2, 0.8)))
    b = p_eval(Point((0.8, 0.2)))
    assert a == b
    assert a == pytest.approx(0.5, abs=1e-15)


def test_p_dim3_diagonal():
    t = 0.5
    value = p_eval(Point((t, t, t)))
    assert value == pytest.approx(t * t / (1.0 - t + t * t), abs=1e-15)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert value == pytest.approx(p_formula((t, t, t)), abs=1e-15)


@given(st.lists(open_floats, min_size=1, max_size=5))
def test_p_matches_brute_force_formula(coords):
    assert p_eval(Point(tuple(coords))) == pytest.approx(p_formula(coords), rel=1e-12)


@given(st.lists(open_floats, min_size=2, max_size=5), st.randoms())
def test_p_permutation_symmetry_exact(coords, rnd):
    shuffled = list(coords)
    rnd.shuffle(shuffled)
    assert p_eval(Point(tuple(coords))) == p_eval(Point(tuple(shuffled)))


def test_p_permutation_symmetry_all_perms():
    rng = seeded_rng(11)
    for dim in range(2, 6):
        coords = tuple(rng.uniform(0.05, 0.95, dim))
        reference = p_eval(Point(coords))
        for perm in itertools.permutations(coords):
            assert p_eval(Point(perm)) == reference


def test_p_monotone_bulk():
    # 1e5 pairs spread over dims 1..5; strictly larger in every coordinate
    rng = seeded_rng(22)
    for dim in range(1, 6):
        x = rng.uniform(1e-6, 1.0 - 1e-6, (20_000, dim))
        gap = rng.uniform(1e-6, 1.0, (20_000, dim)) * (1.0 - x) * 0.5
        y = x + gap
        px = p_many(x)
        py = p_many(y)
        assert (px < py).all()


def test_p_coordinate_surjectivity():
    rng = seeded_rng(33)
    for dim in range(2, 6):
        others = tuple(rng.uniform(0.2, 0.8, dim - 1))
        low = p_eval(Point(others + (1e-6,)))
        high = p_eval(Point(others + (1.0 - 1e-6,)))  # free coordinate is the max
        assert low < 1e-4
        assert high > 1.0 - 1e-4


def test_p_tie_robustness():
    # perturbing a tied coordinate by +-1e-12 moves p by at most 1e-9
    rng = seeded_rng(44)
    for dim in range(2, 6):
        for _ in range(200):
            coords = list(rng.uniform(0.05, 0.95, dim))
            coords[1] = coords[0]  # force a tie
            base = p_eval(Point(tuple(coords)))
            for delta in (-1e-12, 1e-12):
                bumped = list(coords)
                bumped[1] = coords[1] + delta
                assert abs(p_eval(Point(tuple(bumped))) - base) <= 1e-9


@given(st.lists(open_floats, min_size=1, max_size=5))
def test_p_lands_in_open_interval(coords):
    value = p_eval(Point(tuple(coords)))
    assert 0.0 < value < 1.0


def test_p_many_matches_scalar():
    # bit for bit: the scalar call is one row of the array call
    rng = seeded_rng(99)
    for dim in range(1, 6):
        rows = rng.uniform(1e-6, 1 - 1e-6, (50, dim))
        batched = p_many(rows)
        for row, value in zip(rows, batched):
            assert p_eval(Point(tuple(row))) == value


# ----------------------------------------------------------------------- F


def test_F_identity_n2(identity_n2):
    value, err = F_eval(identity_n2, Point((0.3,)))
    assert value == pytest.approx(0.7, abs=1e-15)


def test_F_identity_n3(identity_n3):
    value, _ = F_eval(identity_n3, Point((0.5, 0.5)))
    assert value == pytest.approx(0.5, abs=1e-15)


def test_F_salem_n3(surface_n3):
    # f(1/2) = 1/4 exactly, p(1/4, 1/4) = 1/4, so F = 3/4; cross-checked
    # against the independent recursion oracle
    value, err = F_eval(surface_n3, Point((0.5, 0.5)))
    assert abs(value - 0.75) <= err + 1e-15
    fv = salem_recursive(0.5, 0.25)
    assert value == pytest.approx(1.0 - p_formula((fv, fv)), abs=1e-12)


def test_F_dimension_mismatch(surface_n3):
    with pytest.raises(DomainError):
        F_eval(surface_n3, Point((0.5,)))


def test_surface_values_examples(identity_n2, surface_n3, identity_f):
    # the last coordinate of the graph point (x, F(x)), from the array kernel
    assert surface_values(identity_n2, np.array([[0.3]]))[0] == pytest.approx(0.7)
    assert surface_values(surface_n3, np.array([[0.5, 0.5]]))[0] == pytest.approx(0.75, abs=1e-12)
    t = 0.6
    value = surface_values(SurfaceSpec(n=4, f=identity_f), np.array([[t, t, t]]))[0]
    assert value == pytest.approx(1.0 - t * t / (1.0 - t + t * t), abs=1e-12)


_WRONG_WIDTH = np.full((4, 1), 0.5)  # (N, n-2) rows for n = 3
_ONE_D = np.full(2, 0.5)


@pytest.mark.parametrize("call, points", [
    (surface_values, _WRONG_WIDTH),
    (surface_values, _ONE_D),
    (surface_enclosure, _WRONG_WIDTH),
    (surface_enclosure, _ONE_D),
    (lambda spec, pts: classify_regions(spec, SingularSetProbe(), pts), _WRONG_WIDTH),
    (lambda spec, pts: p_many(pts), _ONE_D),
], ids=["values-width", "values-1d", "enclosure-width", "enclosure-1d",
        "classify-width", "p_many-1d"])
def test_kernels_reject_misshapen_points(surface_n3, call, points):
    with pytest.raises(DomainError):
        call(surface_n3, points)


def test_surface_values_error_bound_is_conservative(surface_n3):
    # the depth-52 enclosure must cover a much deeper evaluation
    deep = SurfaceSpec(n=3, f=SingularFunctionSpec(depth=63))
    rng = seeded_rng(55)
    pts = rng.uniform(1e-6, 1.0 - 1e-6, (500, 2))
    lo, hi = surface_enclosure(surface_n3, pts)
    v63 = surface_values(deep, pts)
    assert ((lo - 1e-15 <= v63) & (v63 <= hi + 1e-15)).all()


def _F_exact(coords, lam: float) -> Fraction:
    """Exact F at a point with every coordinate >= 2^-11 (f exact at depth 63)."""
    fs = sorted(salem_truncation_exact(float(x), lam, 63)[0] for x in coords)
    if len(fs) == 1:
        return 1 - fs[0]
    prod = Fraction(1)
    for v in fs[:-1]:
        prod *= v
    return 1 - prod / (1 - fs[-1] + prod)


@pytest.mark.parametrize("depth", [8, 52])
@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("lam", [0.01, 0.25, 0.75, 0.99])
def test_enclosure_contains_exact_F(lam, n, depth):
    # (0.125, 1 - 2^-27) has bound 0 at depth 52, yet f(1 - 2^-27) is
    # rounded and p's slope near M = 1 amplifies that past a fixed floor
    spec = SurfaceSpec(n=n, f=SingularFunctionSpec(lam=lam, depth=depth))
    corner = (0.125,) * (n - 2) + (1.0 - 2.0**-27,)
    pts = np.vstack([seeded_rng(31 + n).uniform(2.0**-11, 1.0, (40, n - 1)), corner])
    lo, hi = surface_enclosure(spec, pts)
    for row, a, b in zip(pts, lo, hi):
        assert Fraction(float(a)) <= _F_exact(row, lam) <= Fraction(float(b)), row


def test_F_eval_bound_is_enclosure_half_width(surface_n3):
    for x in ((0.125, 1.0 - 2.0**-27), (0.3, 0.6), (0.5, 0.5)):
        value, bound = F_eval(surface_n3, Point(x))
        (lo,), (hi,) = surface_enclosure(surface_n3, np.array([x]))
        assert lo <= value <= hi
        assert bound == max(value - lo, hi - value)
    value, bound = F_eval(surface_n3, Point((0.125, 1.0 - 2.0**-27)))
    assert abs(Fraction(value) - _F_exact((0.125, 1.0 - 2.0**-27), 0.25)) <= bound


# ------------------------------------------------------------ antichain


def test_pair_ordered_identity(identity_n2):
    verdict = check_antichain_pair(identity_n2, Point((0.2,)), Point((0.6,)))
    assert verdict.verdict == "ordered_ok"
    assert not verdict.within_tolerance


def test_pair_equal_points_vacuous(surface_n3):
    # x = y is not x < y, so nothing can be violated; the two enclosures
    # coincide, so the pair is within tolerance, as in the scan's verdicts
    x = Point((0.3, 0.7))
    verdict = check_antichain_pair(surface_n3, x, x)
    assert verdict.verdict == "ordered_ok"
    assert verdict.within_tolerance is True
    ok, bad = surface_module._pair_verdicts(*surface_enclosure(surface_n3, np.array([x.coords] * 2)))
    assert not ok[0] and not bad[0]


def test_pair_incomparable(surface_n3):
    verdict = check_antichain_pair(surface_n3, Point((0.2, 0.8)), Point((0.8, 0.2)))
    assert verdict.verdict == "incomparable"


def test_pair_direction_symmetric(surface_n3):
    lo, hi = Point((0.2, 0.3)), Point((0.4, 0.9))
    assert check_antichain_pair(surface_n3, lo, hi).verdict == "ordered_ok"
    assert check_antichain_pair(surface_n3, hi, lo).verdict == "ordered_ok"


def test_pair_dimension_mismatch(surface_n3):
    with pytest.raises(DomainError):
        check_antichain_pair(surface_n3, Point((0.2, 0.3)), Point((0.2, 0.3, 0.4)))


def test_scan_no_violations_quick(salem_default):
    for n in (2, 3, 4, 5):
        spec = SurfaceSpec(n=n, f=salem_default)
        result = antichain_scan(spec, 10_000, seed=7)
        assert result.pairs == 10_000
        assert result.violations == 0
        assert result.ordered_ok == 10_000


def test_scan_deterministic(surface_n3):
    a = antichain_scan(surface_n3, 5_000, seed=99)
    b = antichain_scan(surface_n3, 5_000, seed=99)
    assert a == b


def scan_pairs(monkeypatch, spec, pairs, seed, block):
    """Scan with ``block`` pairs per block; returns the result and the
    (lower, upper) points it drew, recorded from the rows of each block's
    first enclosure pass (the second pass re-encloses some of them)."""
    seen = []

    def recording_enclosure(spec_, rows):
        if spec_.f.depth == surface_module._SCAN_FIRST_DEPTH:
            seen.append(rows.copy())
        return surface_enclosure(spec_, rows)

    monkeypatch.setattr(surface_module, "_SCAN_BLOCK", block)
    monkeypatch.setattr(surface_module, "surface_enclosure", recording_enclosure)
    result = antichain_scan(spec, pairs, seed=seed)
    halves = [np.split(rows, 2) for rows in seen]
    return result, *(np.concatenate(h) for h in zip(*halves))


@pytest.mark.parametrize("lam, n, seed, pairs", [
    (0.25, 2, 11, 4_321),
    (0.25, 3, 11, 4_321),
    (0.25, 5, 11, 4_321),
    # has within-tolerance pairs, so undecided pairs fall in several blocks
    (0.1, 5, 1, 50_000),
], ids=["n2", "n3", "n5", "n5-lam0.1-tolerance"])
def test_scan_independent_of_block_size(monkeypatch, lam, n, seed, pairs):
    # blocks of 1000 (the last one short) against the default blocks and one block
    spec = SurfaceSpec(n=n, f=SingularFunctionSpec(lam=lam))
    default = surface_module._SCAN_BLOCK
    a, lower_a, upper_a = scan_pairs(monkeypatch, spec, pairs, seed, 1000)
    assert len(lower_a) == len(upper_a) == pairs
    for block in (default, pairs):
        b, lower_b, upper_b = scan_pairs(monkeypatch, spec, pairs, seed, block)
        assert a == b
        np.testing.assert_array_equal(lower_a, lower_b)
        np.testing.assert_array_equal(upper_a, upper_b)
    if lam == 0.1:
        assert a.within_tolerance > 0


def test_scan_draws_the_conditional_law(monkeypatch, salem_default):
    # two iid uniform points conditioned on x <= y: per coordinate, (x_i, y_i)
    # is (min, max) of two uniforms, independently across coordinates.  So
    # E[x_i] = 1/3, E[y_i] = 2/3 (variance 1/18 each), E[x_i y_i] = 1/4
    # (variance 7/144) and P(x_i <= t) = 1 - (1 - t)^2
    spec = SurfaceSpec(n=4, f=salem_default)
    count = 40_000
    _, lower, upper = scan_pairs(monkeypatch, spec, count, 5, 2**14)
    assert lower.shape == upper.shape == (count, 3)
    assert (lower <= upper).all()
    se = np.sqrt(1 / 18 / count)
    assert np.all(np.abs(lower.mean(axis=0) - 1 / 3) <= 4 * se)
    assert np.all(np.abs(upper.mean(axis=0) - 2 / 3) <= 4 * se)
    assert np.all(np.abs((lower * upper).mean(axis=0) - 1 / 4) <= 4 * np.sqrt(7 / 144 / count))
    for t in (0.1, 0.25, 0.5, 0.75, 0.9):
        cdf = 1 - (1 - t) ** 2
        se_t = np.sqrt(cdf * (1 - cdf) / count)
        assert np.all(np.abs((lower <= t).mean(axis=0) - cdf) <= 4 * se_t)


def test_scan_memory_does_not_grow_with_pairs(salem_default):
    spec = SurfaceSpec(n=5, f=salem_default)
    antichain_scan(spec, 100, seed=1)  # builds the kernel's lazy tables
    peaks = []
    for blocks in (1, 4):
        tracemalloc.start()
        try:
            antichain_scan(spec, blocks * surface_module._SCAN_BLOCK, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_scan_traced_peak_is_bounded(salem_default):
    # 8.95 MB in blocks of 2^14 pairs; about 2.24 MB in the default blocks
    spec = SurfaceSpec(n=5, f=salem_default)
    antichain_scan(spec, 100, seed=1)  # builds the kernel's lazy tables
    tracemalloc.start()
    try:
        antichain_scan(spec, 100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_scan_rejects_pair_counts_below_one_and_over_budget(surface_n3):
    for pairs in (0, -5):
        with pytest.raises(ConfigurationError):
            antichain_scan(surface_n3, pairs)
    with pytest.raises(BudgetError):
        antichain_scan(surface_n3, 51, budget=100)  # two evaluations per pair
    assert antichain_scan(surface_n3, 50, budget=100).pairs == 50


def test_values_finite_inside_enclosure_at_corner():
    # f(2^-11) truncates to 0 at depth 8 and f(0.984375) rounds to 1, so p
    # is 0/0 there; the enclosure is [0, 1] and the value must lie in it
    spec = SurfaceSpec(n=3, f=SingularFunctionSpec(lam=0.999, depth=8))
    corner = np.array([[2.0**-11, 0.984375]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = surface_values(spec, corner)[0]
        lo, hi = surface_enclosure(spec, corner)
        F, bound = F_eval(spec, Point(tuple(corner[0])))
    assert np.isfinite(value) and F == value
    assert lo[0] <= value <= hi[0]
    assert bound == max(value - lo[0], hi[0] - value) >= 0.99


def test_scan_agrees_with_scalar_verdicts(surface_n3):
    # the batch path and the scalar op implement the same semantics
    rng = seeded_rng(66)
    checked = 0
    while checked < 200:
        x = Point(tuple(rng.uniform(0.01, 0.99, 2)))
        y = Point(tuple(rng.uniform(0.01, 0.99, 2)))
        verdict = check_antichain_pair(surface_n3, x, y)
        le = all(a <= b for a, b in zip(x.coords, y.coords))
        ge = all(a >= b for a, b in zip(x.coords, y.coords))
        if not le and not ge:
            assert verdict.verdict == "incomparable"
        else:
            assert verdict.verdict == "ordered_ok"
            checked += 1


def test_scalar_verdicts_reproduce_scan_counts(monkeypatch, surface_n3):
    # every pair the scan draws, checked one at a time in both orders
    result, lower, upper = scan_pairs(monkeypatch, surface_n3, 1_500, 21, 2**14)
    counts = {"ordered_ok": 0, "within_tolerance": 0, "violation": 0}
    for lo, hi in zip(lower, upper):
        verdict = check_antichain_pair(surface_n3, Point(tuple(lo)), Point(tuple(hi)))
        assert check_antichain_pair(surface_n3, Point(tuple(hi)), Point(tuple(lo))) == verdict
        counts[verdict.verdict] += 1
        counts["within_tolerance"] += verdict.within_tolerance
    assert (counts["ordered_ok"], counts["within_tolerance"], counts["violation"]) == (
        result.ordered_ok, result.within_tolerance, result.violations)
    assert result.pairs == len(lower) == 1_500


def _at_depth(spec, depth):
    return SurfaceSpec(spec.n, dataclasses.replace(spec.f, depth=depth))


@pytest.mark.parametrize(
    "kind, lam, n, seed, pairs",
    [(SALEM, lam, n, 0, 20_000) for lam in (0.1, 0.25, 0.9) for n in (2, 3, 5)]
    + [(MINKOWSKI, 0.25, n, 0, 2_000) for n in (2, 3, 5)]
    + [(SALEM, 0.1, 5, 1, 200_000)],
)
def test_two_pass_scan_matches_full_depth(monkeypatch, kind, lam, n, seed, pairs):
    # a depth-8 verdict is one the full-depth enclosure confirms, and the
    # scan counts are those of one full-depth pass over the same rows
    spec = SurfaceSpec(n, SingularFunctionSpec(kind=kind, lam=lam))
    result, lower, upper = scan_pairs(monkeypatch, spec, pairs, seed, 2**14)
    rows = np.concatenate([lower, upper])
    ok, bad = surface_module._pair_verdicts(*surface_enclosure(spec, rows))
    ok8, bad8 = surface_module._pair_verdicts(*surface_enclosure(_at_depth(spec, 8), rows))
    assert ok[ok8].all() and bad[bad8].all()
    assert (~(ok8 | bad8)).any()  # the second pass has pairs to decide
    tol = pairs - int(ok.sum()) - int(bad.sum())
    assert (result.ordered_ok, result.within_tolerance, result.violations) == (
        pairs - int(bad.sum()), tol, int(bad.sum()))
    if kind == MINKOWSKI or pairs == 200_000:  # pairs no depth certifies
        assert result.within_tolerance > 0


def test_full_depth_pass_encloses_only_undecided_pairs(monkeypatch):
    spec = SurfaceSpec(n=3, f=SingularFunctionSpec(lam=0.1))
    calls = []

    def recording_enclosure(spec_, rows):
        calls.append((spec_, rows.copy()))
        return surface_enclosure(spec_, rows)

    monkeypatch.setattr(surface_module, "_SCAN_BLOCK", 1000)
    monkeypatch.setattr(surface_module, "surface_enclosure", recording_enclosure)
    antichain_scan(spec, 4_500, seed=3)
    first_spec, second_spec = _at_depth(spec, 8), spec
    refined = 0
    while calls:
        spec_, rows = calls.pop(0)
        assert spec_ == first_spec
        ok, bad = surface_module._pair_verdicts(*surface_enclosure(spec_, rows))
        undecided = np.flatnonzero(~(ok | bad))
        if undecided.size:
            spec_, refined_rows = calls.pop(0)
            assert spec_ == second_spec
            np.testing.assert_array_equal(refined_rows, np.concatenate(
                [rows[undecided], rows[undecided + len(ok)]]))
            refined += undecided.size
    assert refined > 0
    # the scalar check: a decided pair takes one pass, an equal pair two
    check_antichain_pair(spec, Point((0.2, 0.3)), Point((0.4, 0.9)))
    assert [spec_ for spec_, _ in calls] == [first_spec]
    calls.clear()
    check_antichain_pair(spec, Point((0.3, 0.7)), Point((0.3, 0.7)))
    assert [spec_ for spec_, _ in calls] == [first_spec, second_spec]
    np.testing.assert_array_equal(calls[1][1], [(0.3, 0.7)] * 2)


# ------------------------------------------------- projective cross-check


def test_crosscheck_diagonal_fixed_point():
    assert p_projective_crosscheck(Point((0.5, 0.5))) == pytest.approx(0.5, abs=1e-15)


def test_crosscheck_below_diagonal():
    assert p_projective_crosscheck(Point((0.8, 0.2))) == pytest.approx(0.5, abs=1e-12)


def test_crosscheck_above_diagonal():
    assert p_projective_crosscheck(Point((0.2, 0.8))) == pytest.approx(0.5, abs=1e-12)


def test_crosscheck_agrees_with_p(surface_n3):
    rng = seeded_rng(77)
    worst = 0.0
    for _ in range(10_000):
        x = Point(tuple(rng.uniform(1e-6, 1.0 - 1e-6, 2)))
        worst = max(worst, abs(p_eval(x) - p_projective_crosscheck(x)))
    assert worst <= 1e-12


def test_crosscheck_needs_dim2():
    with pytest.raises(DomainError):
        p_projective_crosscheck(Point((0.5, 0.5, 0.5)))


# ----------------------------------------------------------------- section
# F along the last coordinate with the others fixed


def test_section_identity_center(identity_n3):
    assert surface_values(identity_n3, np.array([[0.5, 0.5]]))[0] == pytest.approx(0.5, abs=1e-15)


def test_section_identity_decreasing_pair(identity_n3):
    v_low, v_high = surface_values(identity_n3, np.array([[0.5, 0.1], [0.5, 0.9]]))
    assert v_low == pytest.approx(1.0 - p_formula((0.5, 0.1)), abs=1e-12)
    assert v_high == pytest.approx(1.0 - p_formula((0.5, 0.9)), abs=1e-12)
    assert v_low > v_high


def test_section_strictly_decreasing_bulk(surface_n3):
    # 10^4 rows (fixed, t1, t2) with t1 < t2; every gap exceeds 1e-6
    u = seeded_rng(88).uniform((0.05, 0.01, 0.01), (0.95, 0.99, 0.99), (10_000, 3))
    u[:, 1:].sort(axis=1)
    at_t1 = surface_values(surface_n3, u[:, [0, 1]])
    at_t2 = surface_values(surface_n3, u[:, [0, 2]])
    assert (at_t1 > at_t2).all()


def test_section_range_exhaustion(surface_n3):
    # near the ends of the free coordinate the section sweeps past both
    # delta = 0.01 rails
    high, low = surface_values(surface_n3, np.array([[0.5, 2.0**-30], [0.5, 1.0 - 2.0**-30]]))
    assert high > 0.99
    assert low < 0.01


def test_section_higher_dimension(identity_f):
    spec = SurfaceSpec(n=4, f=identity_f)
    value = surface_values(spec, np.array([[0.5, 0.5, 0.5]]))[0]
    assert value == pytest.approx(1.0 - p_formula((0.5, 0.5, 0.5)), abs=1e-12)
