import dataclasses
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import antichain.surface as surface_module
from antichain import (
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
    evaluate_many,
    p_eval,
)
from antichain.measure import classify_regions
from antichain.singular import digit_words
from antichain.surface import (
    p_many,
    surface_enclosure,
    surface_from_f,
    surface_values,
)

from oracles import (
    p_projective,
    salem_exact,
    salem_recursive,
    seeded_rng,
)

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
        SurfaceSpec(n=3, f=SingularFunctionSpec(kind="cantor"))


def test_surface_spec_rejects_n1(salem_default):
    with pytest.raises(ConfigurationError):
        SurfaceSpec(n=1, f=salem_default)


@pytest.mark.parametrize("n", [3.0, 2.5, True])
def test_surface_spec_rejects_non_integer_n(salem_default, n):
    # a float n used to construct and then fail inside numpy with a bare TypeError
    with pytest.raises(ConfigurationError, match="^ambient dimension must be an integer, got "):
        SurfaceSpec(n=n, f=salem_default)
    assert SurfaceSpec(n=np.int64(3), f=salem_default).domain_dim == 2


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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_surface_from_f_swaps_first_two_columns_bitwise(n):
    # the cover's half lattice rests on this: F is the same double, not just
    # close, when x_1 and x_2 trade places; random f values, tied pairs, and
    # values near and at 0 and 1
    rng = seeded_rng(40 + n)
    edges = np.array([0.0, 2.0**-1074, 1e-300, 2.0**-60, 1e-9, 0.5,
                      1.0 - 1e-9, 1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0])
    fv = rng.random((4000, n - 1))
    fv[:1000, 1] = fv[:1000, 0]  # ties
    fv[1000:2000] = rng.choice(edges, (1000, n - 1))
    fv[2000:3000, :2] = rng.choice(edges, (1000, 2))
    swapped = fv.copy()
    swapped[:, [0, 1]] = fv[:, [1, 0]]
    assert not np.array_equal(swapped, fv)
    assert surface_from_f(fv).tobytes() == surface_from_f(swapped).tobytes()


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
_NO_COLUMNS = np.empty((3, 0))


@pytest.mark.parametrize("call, points", [
    (surface_values, _WRONG_WIDTH),
    (surface_values, _ONE_D),
    (surface_enclosure, _WRONG_WIDTH),
    (surface_enclosure, _ONE_D),
    (lambda spec, pts: classify_regions(spec, SingularSetProbe(), pts), _WRONG_WIDTH),
    (lambda spec, pts: p_many(pts), _ONE_D),
    (lambda spec, pts: p_many(pts), _NO_COLUMNS),
], ids=["values-width", "values-1d", "enclosure-width", "enclosure-1d",
        "classify-width", "p_many-1d", "p_many-no-columns"])
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


def _one_minus_p_exact(fs) -> Fraction | None:
    """Exact 1 - p at a row of exact values; None at the corner M = 1, P = 0."""
    fs = sorted(fs)
    if len(fs) == 1:
        return 1 - fs[0]
    prod = Fraction(1)
    for v in fs[:-1]:
        prod *= v
    if fs[-1] == 1 and prod == 0:
        return None
    return 1 - prod / (1 - fs[-1] + prod)


def _F_exact(coords, lam: float) -> Fraction:
    """Exact F at a point of doubles."""
    return _one_minus_p_exact([salem_exact(float(x), lam) for x in coords])


def _cell_tops(rng, depth: int, shape) -> np.ndarray:
    """Points whose binary digits past ``depth`` are all ones: the largest
    double below the right end of a depth cell, so the exact f sits at the top
    of the cell, a full rise above the kernel's value.  The cells hold 2^-j
    (a lone one among zeros: a large rise when lam > 1/2) or the double below
    it (j zeros, then ones: a large rise when lam < 1/2), j = 1..10, or
    log-uniform draws; every point is >= 2^-11."""
    powers = 2.0 ** -np.arange(1.0, 11.0)
    u = np.concatenate([powers, np.nextafter(powers, 0.0), 2.0 ** -rng.uniform(0.0, 10.0, 40)])
    scale = 2.0**depth
    return np.nextafter((np.floor(rng.choice(u, shape) * scale) + 1.0) / scale, 0.0)


@pytest.mark.parametrize("m", range(1, 7))
def test_F_sides_bracket_the_exact_one_minus_p(m):
    # lo, from each row as an upper corner, and hi, from it as a lower corner, hold the
    # exact 1 - p of the row's doubles: random rows, rows crowded towards 0 and 1, rows
    # of one value, rows with a tie at their largest value, rows drawn from the extremes
    # 0, 2^-1074, 1/2, 1 - 2^-53 and 1, and at m >= 2 the corner M = 1, P = 0, where the
    # sides are [0, 1]
    rng = seeded_rng(120 + m)
    u = rng.random((300, m))
    rows = np.concatenate([u, u**8, 1.0 - u**8, u[:, :1].repeat(m, axis=1), u,
                           rng.choice([0.0, 2.0**-1074, 0.5, 1.0 - 2.0**-53, 1.0], (300, m))])
    rows[1200:1500, -1] = rows[1200:1500].max(axis=1)  # the largest value twice
    if m >= 2:
        rows[-20:, 0], rows[-20:, -1] = 0.0, 1.0
    lo = surface_module._F_sides(rows.T, len(rows))[0]
    hi = surface_module._F_sides(rows.T, 0)[1]
    for row, a, b in zip(rows.tolist(), lo.tolist(), hi.tolist()):
        exact = _one_minus_p_exact([Fraction(v) for v in row])
        if exact is None:
            assert (a, b) == (0.0, 1.0), row
        else:
            assert Fraction(a) <= exact <= Fraction(b), row
    assert (rows.max(axis=1) == 1.0).sum() > 20
    if m <= 2:
        # the same operations as p_many's, bit for bit, where its clip does not bind:
        # it moved p = 1 at M = 1 to 1 - 2^-53, raising hi by 2^-53 on a lower corner
        # no f box has (f_lo < 1)
        slack = (m + 4) * 2.0**-52
        with np.errstate(invalid="ignore"):
            p = p_many(rows)
        np.testing.assert_array_equal(lo, np.fmax((1.0 - slack) - p, 0.0))
        below = rows.max(axis=1) < 1.0
        np.testing.assert_array_equal(hi[below], np.fmin((1.0 + slack) - p, 1.0)[below])


@pytest.mark.parametrize("depth", [8, 52])
@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("lam", [0.01, 0.25, 0.4, 0.75, 0.99])
def test_enclosure_contains_exact_F(lam, n, depth):
    # (0.125, 1 - 2^-27) has bound 0 at depth 52, yet f(1 - 2^-27) is
    # rounded and p's slope near M = 1 amplifies that past a fixed floor.
    # Checked below 2^-11 too, down to the scan's clip at 2^-1074
    spec = SurfaceSpec(n=n, f=SingularFunctionSpec(lam=lam, depth=depth))
    corner = (0.125,) * (n - 2) + (1.0 - 2.0**-27,)
    tiny = 2.0 ** -seeded_rng(17 + n).uniform(11.0, 80.0, (10, n - 1))
    tiny[0] = 2.0**-1074
    pts = np.vstack([seeded_rng(31 + n).uniform(2.0**-11, 1.0, (40, n - 1)), corner,
                     _cell_tops(seeded_rng(73 + n), depth, (30, n - 1)), tiny])
    lo, hi = surface_enclosure(spec, pts)
    for row, a, b in zip(pts, lo, hi):
        assert Fraction(float(a)) <= _F_exact(row, lam) <= Fraction(float(b)), row


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("lam", [0.25, 0.4])
def test_salem_enclosure_is_one_sided(lam, n):
    # Salem returns f at the left end of the depth cell, so the truncation
    # bound widens only the lower side of F's enclosure.  Just past a cell's
    # left end the exact f is the kernel's value up to rounding (the digit at
    # 2^-53 adds about lam^45 <= 2^-59), so hi - F is only rounding slack,
    # while lo lies below F at the top corner of the depth-8 cell box.
    depth = 8
    spec = SurfaceSpec(n=n, f=SingularFunctionSpec(lam=lam, depth=depth))
    left = seeded_rng(91 + n).integers(128, 231, (20, n - 1)) / 2.0**depth
    pts = left + 2.0**-53
    lo, hi = surface_enclosure(spec, pts)
    rounding_slack = 2.0**-40
    tops = np.nextafter(left + 2.0**-depth, 0.0)
    for row, top_row, a, b in zip(pts, tops, lo, hi):
        F, top = _F_exact(row, lam), _F_exact(top_row, lam)
        assert Fraction(float(b)) - rounding_slack <= F <= Fraction(float(b)), row
        assert Fraction(float(a)) <= top < F - rounding_slack, row


def test_F_eval_bound_is_enclosure_half_width(surface_n3):
    for x in ((0.125, 1.0 - 2.0**-27), (0.3, 0.6), (0.5, 0.5)):
        value, bound = F_eval(surface_n3, Point(x))
        (lo,), (hi,) = surface_enclosure(surface_n3, np.array([x]))
        assert lo <= value <= hi
        assert bound == max(value - lo, hi - value)
    value, bound = F_eval(surface_n3, Point((0.125, 1.0 - 2.0**-27)))
    assert abs(Fraction(value) - _F_exact((0.125, 1.0 - 2.0**-27), 0.25)) <= bound


def _ulp(t: Fraction) -> Fraction:
    """The spacing of the doubles at a real t > 0: 2^(e - 52) on [2^e, 2^(e+1))."""
    v = float(t)
    if Fraction(v) > t:
        v = math.nextafter(v, 0.0)
    return Fraction(math.ulp(v))


def _extreme_doubles(t: Fraction, radius: Fraction) -> tuple[float, float]:
    """The lowest and the highest double within ``radius`` of t, kept in [0, 1]."""
    lo, hi = float(t - radius), float(t + radius)
    if Fraction(lo) < t - radius:
        lo = math.nextafter(lo, 1.0)
    if Fraction(hi) > t + radius:
        hi = math.nextafter(hi, 0.0)
    return max(lo, 0.0), min(hi, 1.0)


def _bound_free_dyadics(f: SingularFunctionSpec) -> np.ndarray:
    """Depth-12 dyadics at which f has truncation bound 0 (all of them at a
    depth of 12 or more), among them 2^-j, where f = lam^j is a power of two
    for lam = 1/4: the doubles just below it are twice as dense."""
    xs = np.unique(np.concatenate([seeded_rng(61).integers(1, 1 << 12, 400) / 4096.0,
                                   2.0 ** -np.arange(1.0, 13.0)]))
    return xs[evaluate_many(f, xs)[1] == 0.0]


@pytest.mark.parametrize("kind, lam", [(SALEM, 0.01), (SALEM, 0.25), (SALEM, 0.4),
                                       (SALEM, 0.99)])
def test_f_box_holds_the_stated_rounding_allowance(kind, lam):
    # where the truncation bound is 0 the exact truncated sum t is the exact
    # f, and evaluate_many may return any double within rounding_ulps ulp(t)
    # of t: the box about each of them, the farthest included, must hold t
    f = SingularFunctionSpec(kind=kind, lam=lam)
    xs = _bound_free_dyadics(f)
    assert xs.size > 150
    exact = [salem_exact(x, lam) for x in xs.tolist()]
    values = [v for t in exact for v in _extreme_doubles(t, f.rounding_ulps * _ulp(t))]
    f_lo, f_hi = surface_module._f_box(f, np.array(values), np.zeros(len(values)))
    truths = [t for t in exact for _ in range(2)]
    for t, v, lo, hi in zip(truths, values, f_lo.tolist(), f_hi.tolist()):
        assert Fraction(lo) <= t <= Fraction(hi), (t, v)


@pytest.mark.parametrize("lam", [0.25, 0.4])
def test_f_box_holds_a_cell_rise_above_the_farthest_value(lam):
    # the exact f may lie a cell rise fe above the exact truncated sum t, with the
    # value anywhere within rounding_ulps ulp(t) of t.  Below a power of two t (lam =
    # 1/4) the doubles are twice as dense: the farthest value below t lies 2
    # rounding_ulps of its own spacings off, and a rise under half an ulp(t) is lost
    # when added to it, so only the spare spacings keep t + fe in the box
    f = SingularFunctionSpec(lam=lam)
    exact = [salem_exact(x, lam) for x in _bound_free_dyadics(f).tolist()]
    rises = [_ulp(t) * r for t in exact for r in (Fraction(1, 2**60), Fraction(1, 4))]
    values = [_extreme_doubles(t, f.rounding_ulps * _ulp(t))[0] for t in exact]
    fv = np.repeat(values, 2)
    fe = np.array([float(r) for r in rises])
    f_lo, f_hi = surface_module._f_box(f, fv, fe)
    for t, rise, lo, hi in zip(np.repeat(exact, 2), rises, f_lo.tolist(), f_hi.tolist()):
        assert Fraction(lo) <= t and t + rise <= Fraction(hi), (t, rise)
    if lam == 0.25:
        assert Fraction(1, 64) in exact  # f(2^-3) = 4^-3, a power of two


def test_shallow_enclosure_holds_values_63_ulps_off():
    # the widening of the shallow box: at n = 2 (p the identity) and
    # depth-12 dyadics the exact f is the depth-12 value, and the box holds
    # F of any double within 63 ulps of it, far more than the rounding_ulps
    # a depth-63 spec may compute it with.  F of each lies within twice
    # _F_sides' slack, (1 + 4) 2^-52 at m = 1, of the bounds
    slack = 2 * 5 * 2.0**-52
    for lam in (0.25, 0.4):
        spec = SurfaceSpec(2, SingularFunctionSpec(lam=lam, depth=63))
        xs = _bound_free_dyadics(SingularFunctionSpec(lam=lam, depth=12))
        assert xs.size > 150
        lo, hi = _shallow_bounds(spec, xs[None, :])
        for x, a, b in zip(xs.tolist(), lo, hi):
            t = salem_exact(x, lam)
            for f in _extreme_doubles(t, 63 * _ulp(t)):
                F = surface_from_f(np.array([[f]]))[0]
                assert a - slack <= F <= b + slack, (x, f)


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


def drawn_rows(block):
    """The 2k float rows of a drawn (d, 2k) block of 53-bit integers, as the
    full-depth pass converts them: lower points first."""
    return np.maximum(block.T * 2.0**-53, 2.0**-1074)


def scan_pairs(monkeypatch, spec, pairs, seed, block):
    """Scan with ``block`` pairs per block; returns the result and the
    (lower, upper) points it drew, recorded from each block's draw as the
    full-depth pass converts them (it re-encloses some of them)."""
    seen = []
    draw_block = surface_module._draw_block

    def recording_draw(bits, d, k):
        drawn = draw_block(bits, d, k)
        seen.append(drawn_rows(drawn))
        return drawn

    monkeypatch.setattr(surface_module, "_SCAN_BLOCK", block)
    monkeypatch.setattr(surface_module, "_draw_block", recording_draw)
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


@pytest.mark.parametrize("n", [2, 5, 4])
def test_scan_draw_order_is_pinned(monkeypatch, salem_default, n):
    # pair i is (min, max) of the two points at rows (i, 0) and (i, 1) of the
    # seeded (pairs, 2, d) draw, bit for bit, in every block (the last one
    # short); a layout that mixed coordinates across pairs could still draw
    # the conditional law.  At n = 4, blocks of 999 pairs draw 5994 values,
    # 2 mod 4: the next block starts partway through a group of Philox's four
    # outputs
    block = 999 if n == 4 else surface_module._SCAN_BLOCK
    spec, pairs, seed = SurfaceSpec(n=n, f=salem_default), 2 * block + 7, 17
    _, lower, upper = scan_pairs(monkeypatch, spec, pairs, seed, block)
    u = np.random.Generator(np.random.Philox(key=seed)).random((pairs, 2, n - 1))
    np.testing.assert_array_equal(lower, u.min(axis=1))
    np.testing.assert_array_equal(upper, u.max(axis=1))


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


def _widened(f_lo, f_hi):
    """An f box widened as the shallow boxes are, by 2^-44 of each corner."""
    widen = surface_module._WIDEN
    return f_lo * (1.0 - widen), np.minimum(f_hi * (1.0 + widen), 1.0)


def _widened_ok(spec, rows):
    """The ordered_ok mask of the two-sided enclosures, at depth min(spec
    depth, 12), of the widened elementwise f box at 2k rows."""
    f = dataclasses.replace(spec.f, depth=min(spec.f.depth, surface_module._TABLE_DEPTH))
    f_lo, f_hi = _widened(*surface_module._f_box(f, *evaluate_many(f, rows)))
    sides = surface_module._F_sides(np.concatenate([f_hi, f_lo]).T, len(rows))
    return surface_module._pair_verdicts(*sides)[0]


_TWO_PASS_CASES = (
    [(SALEM, lam, n, 0, 20_000, 52) for lam in (0.01, 0.1, 0.25, 0.4, 0.9) for n in (2, 3, 5)]
    + [(SALEM, 0.1, 5, 1, 200_000, 52)]
    # below the table depth, at it and one past it
    + [(SALEM, 0.25, 3, 0, 20_000, depth) for depth in (10, 12, 13)]
)


@pytest.mark.parametrize(
    "kind, lam, n, seed, pairs, depth", _TWO_PASS_CASES,
    ids=["-".join(map(str, case[:5])) + ("" if case[5] == 52 else f"-depth{case[5]}")
         for case in _TWO_PASS_CASES],
)
def test_two_pass_scan_matches_full_depth(monkeypatch, kind, lam, n, seed, pairs, depth):
    # a verdict of the full enclosures at the table depth (or the spec's, if
    # lower) is one the spec-depth enclosure confirms, and the scan counts
    # are those of one spec-depth pass over the same rows
    spec = SurfaceSpec(n, SingularFunctionSpec(kind=kind, lam=lam, depth=depth))
    result, lower, upper = scan_pairs(monkeypatch, spec, pairs, seed, 2**14)
    rows = np.concatenate([lower, upper])
    ok, bad = surface_module._pair_verdicts(*surface_enclosure(spec, rows))
    shallow = _at_depth(spec, min(depth, surface_module._TABLE_DEPTH))
    ok_t, bad_t = surface_module._pair_verdicts(*surface_enclosure(shallow, rows))
    assert ok_t.any() and ok[ok_t].all() and bad[bad_t].all()
    tol = pairs - int(ok.sum()) - int(bad.sum())
    assert (result.ordered_ok, result.within_tolerance, result.violations) == (
        pairs - int(bad.sum()), tol, int(bad.sum()))
    # pairs no depth certifies, so the spec-depth pass has pairs to decide; at
    # depth 12 the other cases leave it none or next to none
    if pairs == 200_000 or lam == 0.01:
        assert result.within_tolerance > 0 and (~(ok_t | bad_t)).any()


def test_full_depth_pass_encloses_only_undecided_pairs(monkeypatch):
    # calls: the one-sided first pass and the spec-depth enclosures, in
    # order; each enclosure takes exactly the pairs that the widened depth-12
    # box leaves not ok (uniform rows hold no exact cell left end); lam =
    # 0.01 leaves such pairs in most blocks
    spec = SurfaceSpec(n=3, f=SingularFunctionSpec(lam=0.01))
    calls = []
    shallow_sides = surface_module._shallow_sides
    draw_block = surface_module._draw_block
    drawn = []

    def recording_draw(bits, d, k):
        block = draw_block(bits, d, k)
        drawn.append(drawn_rows(block))
        return block

    def recording_first_pass(f, words, k):
        # the rows of the block just drawn; of the pair's own points in the scalar check
        rows = drawn.pop() if drawn else None
        calls.append(("first", SurfaceSpec(spec.n, f), rows, words.copy()))
        return shallow_sides(f, words, k)

    def recording_enclosure(spec_, rows):
        calls.append(("full", spec_, rows.copy()))
        return surface_enclosure(spec_, rows)

    monkeypatch.setattr(surface_module, "_SCAN_BLOCK", 1000)
    monkeypatch.setattr(surface_module, "_shallow_sides", recording_first_pass)
    monkeypatch.setattr(surface_module, "_draw_block", recording_draw)
    monkeypatch.setattr(surface_module, "surface_enclosure", recording_enclosure)
    antichain_scan(spec, 4_500, seed=3)
    refined = 0
    while calls:
        assert calls[0][:2] == ("first", spec)
        _, _, rows, words = calls.pop(0)
        # the first pass reads the depth-12 digit words of the drawn rows
        np.testing.assert_array_equal(words, digit_words(rows.T, surface_module._TABLE_DEPTH))
        ok = _widened_ok(spec, rows)
        not_ok = np.flatnonzero(~ok)
        if not_ok.size:
            assert calls[0][:2] == ("full", spec)
            np.testing.assert_array_equal(calls.pop(0)[2], np.concatenate(
                [rows[not_ok], rows[not_ok + len(ok)]]))
            refined += not_ok.size
    assert refined > 0
    # the scalar check: a decided pair takes one pass, an equal pair two
    check_antichain_pair(spec, Point((0.2, 0.3)), Point((0.4, 0.9)))
    assert [call[:2] for call in calls] == [("first", spec)]
    calls.clear()
    check_antichain_pair(spec, Point((0.3, 0.7)), Point((0.3, 0.7)))
    assert [call[:2] for call in calls] == [("first", spec), ("full", spec)]
    np.testing.assert_array_equal(calls[1][2], [(0.3, 0.7)] * 2)


def test_scan_lifts_a_zero_draw_to_the_least_double(monkeypatch):
    # random() draws 0 with probability 2^-53 per value: an equal pair with
    # one coordinate 0 is within tolerance, and the full-depth pass sees that
    # coordinate as 2^-1074, inside the open cube
    spec = SurfaceSpec(n=3, f=SingularFunctionSpec(lam=0.25))
    enclosed = []

    def recording_enclosure(spec_, rows):
        enclosed.append(rows.copy())
        return surface_enclosure(spec_, rows)

    monkeypatch.setattr(surface_module, "_draw_block",
                        lambda bits, d, k: np.array([[0, 0], [2**52, 2**52]], dtype=np.int64))
    monkeypatch.setattr(surface_module, "surface_enclosure", recording_enclosure)
    result = antichain_scan(spec, 1, seed=0)
    assert (result.ordered_ok, result.within_tolerance, result.violations) == (1, 1, 0)
    assert len(enclosed) == 1
    np.testing.assert_array_equal(enclosed[0], [(2.0**-1074, 0.5)] * 2)


def _words(spec, rows):
    """The first pass's (d, 2k) depth-T digit words of 2k rows, by coordinate
    in the rows' memory layout (F order for C-ordered rows)."""
    return digit_words(rows.T, min(spec.f.depth, surface_module._TABLE_DEPTH))


def _first_pass_ok(spec, words):
    """The first pass's ok mask of k pairs from their (d, 2k) words: lo of the
    lower points exceeds hi of the upper ones (``_certified_verdicts``)."""
    lo_lower, hi_upper = surface_module._shallow_sides(spec.f, words, words.shape[1] // 2)
    return lo_lower > hi_upper


def _shallow_bounds(spec, cols):
    """Both shallow bounds (lo, hi) of F at the points held by coordinate in the
    (n-1, N) array ``cols``, as ``surface._F_cells`` takes them."""
    words = digit_words(cols, surface_module._table_depth(spec.f))
    return (surface_module._shallow_sides(spec.f, words, words.shape[1])[0],
            surface_module._shallow_sides(spec.f, words, 0)[1])


def _verdicts(spec, rows):
    """``_certified_verdicts`` of 2k rows, as ``check_antichain_pair`` calls it."""
    return surface_module._certified_verdicts(spec, _words(spec, rows), rows.__getitem__)


def _first_pass_rows(rng, n: int, k: int) -> np.ndarray:
    """6k pairs as 12k rows, lower rows first: seeded comparable pairs, the
    same pairs swapped (violations), equal pairs, pairs of exact depth-8
    dyadics, a depth-8 dyadic against the top double of its cell, and pairs
    drawn from 2^-1074, 1/2 and 1 - 2^-53; clipped to the scan's range."""
    u = rng.random((k, 2, n - 1))
    lower, upper = u.min(axis=1), u.max(axis=1)
    dyadic = np.sort(rng.integers(0, 256, (k, 2, n - 1)), axis=1) / 256.0
    ends = np.sort(rng.choice([2.0**-1074, 0.5, 1.0 - 2.0**-53], (k, 2, n - 1)), axis=1)
    lows = [lower, upper, lower, dyadic[:, 0], dyadic[:, 0], ends[:, 0]]
    cell_tops = np.nextafter(dyadic[:, 0] + 2.0**-8, 0.0)
    ups = [upper, lower, lower, dyadic[:, 1], cell_tops, ends[:, 1]]
    return np.clip(np.concatenate(lows + ups), 2.0**-1074, 1.0 - 2.0**-53)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("kind, lam, depth",
                         [(SALEM, lam, depth) for lam in (0.01, 0.25, 0.75, 0.99)
                          for depth in (1, 6, 8, 12, 13, 52)]
                         + [(SALEM, 0.4, 6), (SALEM, 0.4, 52)])
def test_first_pass_matches_two_sided_enclosure(kind, lam, depth, n):
    # the one-sided first pass's ok mask lies inside that of the full
    # enclosures at depth min(depth, 12), and equals that of the two-sided
    # enclosures of the widened elementwise box on pairs with no coordinate at
    # an exact cell left end (where the table box is wider); the verdicts
    # are its ok, then the full enclosures at the spec's depth of the pairs
    # it leaves not ok
    spec = SurfaceSpec(n, SingularFunctionSpec(kind=kind, lam=lam, depth=depth))
    shallow = _at_depth(spec, min(depth, surface_module._TABLE_DEPTH))
    rows = _first_pass_rows(seeded_rng(depth * 10 + n), n, 200)
    k = len(rows) // 2
    first = _first_pass_ok(spec, _words(spec, rows))
    ok_t, _ = surface_module._pair_verdicts(*surface_enclosure(shallow, rows))
    assert not (first & ~ok_t).any()
    ok_w = _widened_ok(spec, rows)
    scaled = rows * float(1 << shallow.f.depth)
    at_left_end = (scaled == np.floor(scaled)).any(axis=1)
    off = ~(at_left_end[:k] | at_left_end[k:])
    assert off.sum() >= k // 2
    np.testing.assert_array_equal(first[off], ok_w[off])
    ok, bad = first.copy(), np.zeros_like(first)
    todo = np.flatnonzero(~first)
    ok[todo], bad[todo] = surface_module._pair_verdicts(*surface_enclosure(
        spec, rows[np.concatenate([todo, todo + k])]))
    got_ok, got_bad = _verdicts(spec, rows)
    np.testing.assert_array_equal(got_ok, ok)
    np.testing.assert_array_equal(got_bad, bad)
    # sound enclosures: no pair the first pass certifies is a spec-depth violation
    np.testing.assert_array_equal(
        got_bad, surface_module._pair_verdicts(*surface_enclosure(spec, rows))[1])
    assert not ok.all()  # at least the equal pairs
    if depth >= 6:
        assert ok.any() and bad.any()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind, lam, depth",
                         [(SALEM, lam, depth) for lam in (0.01, 0.25, 0.99) for depth in (6, 12, 52)]
                         + [(SALEM, 0.4, 52)])
def test_first_pass_is_independent_of_the_row_layout(kind, lam, depth, n):
    # the scan hands the passes the transpose of a (d, 2k) block; C-ordered
    # rows give the same masks
    spec = SurfaceSpec(n, SingularFunctionSpec(kind=kind, lam=lam, depth=depth))
    rows = _first_pass_rows(seeded_rng(depth * 10 + n), n, 200)
    by_coordinate = np.ascontiguousarray(rows.T).T
    assert rows.flags.c_contiguous and by_coordinate.flags.f_contiguous
    np.testing.assert_array_equal(_first_pass_ok(spec, _words(spec, rows)),
                                  _first_pass_ok(spec, _words(spec, by_coordinate)))
    for got, want in zip(_verdicts(spec, by_coordinate), _verdicts(spec, rows)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("depth", [1, 3, 6, 8])
@pytest.mark.parametrize("lam", [0.01, 0.25, 0.75, 0.99])
def test_salem_corner_tables_match_f_box(lam, depth):
    # each cell's box is the widened elementwise f box at random points of
    # the cell, at the double past its left end and at its top double, and
    # holds the unwidened box there and at the left end
    f = SingularFunctionSpec(lam=lam, depth=depth)
    f_lo, f_hi = surface_module._cell_boxes(f)
    cells = 1 << depth
    assert f_lo.shape == f_hi.shape == (cells,)
    assert not f_hi.flags.writeable and not f_lo.flags.writeable
    w = np.repeat(np.arange(cells), 8)
    xs = (w + seeded_rng(depth).uniform(0.0, 1.0, w.size)) / cells
    xs[::8] = np.nextafter(w[::8] / cells, 1.0)
    xs[1::8] = np.nextafter((w[1::8] + 1) / cells, 0.0)
    xs[2::8] = w[2::8] / cells
    box_lo, box_hi = surface_module._f_box(f, *evaluate_many(f, xs))
    inside = xs * cells != w
    assert inside.sum() == 7 * cells
    for table, box in zip((f_lo, f_hi), _widened(box_lo, box_hi)):
        np.testing.assert_array_equal(table[w][inside], box[inside])
    assert np.all(f_lo[w] <= box_lo) and np.all(box_hi <= f_hi[w])
    same_spec = SingularFunctionSpec(lam=lam, depth=depth)
    assert surface_module._cell_boxes(same_spec)[1] is f_hi  # built once per spec


@pytest.mark.parametrize("depth", [8, 12, 52])
@pytest.mark.parametrize("lam", [0.01, 0.25, 0.99])
def test_salem_corners_gather_the_f_box(lam, depth):
    # _shallow_sides reads F's sides off the widened elementwise f box at
    # depth min(depth, 12), at random points and at the doubles on either
    # side of cell left ends, from words in either memory layout, and holds
    # them at the left ends (the table's upper corner lies hundreds of ulps
    # above there, far more than p's rounding); a split of the columns gives
    # the sides of all lo (k = M) and all hi (k = 0) bit for bit
    f = SingularFunctionSpec(lam=lam, depth=depth)
    t = min(depth, surface_module._TABLE_DEPTH)
    rng = seeded_rng(depth + 1)
    w = rng.integers(1, 1 << t, (2000, 3))
    xs = (w + rng.random(w.shape)) / (1 << t)
    xs[::4] = w[::4] / (1 << t)
    xs[1::4] = np.nextafter(w[1::4] / (1 << t), 1.0)
    xs[2::4] = np.nextafter(w[2::4] / (1 << t), 0.0)
    shallow = dataclasses.replace(f, depth=t)
    box_lo, box_hi = _widened(*surface_module._f_box(shallow, *evaluate_many(shallow, xs)))
    want_lo = surface_module._F_sides(box_hi.T, len(xs))[0]
    want_hi = surface_module._F_sides(box_lo.T, 0)[1]
    inside = np.ones(len(xs), dtype=bool)
    inside[::4] = False
    k = len(xs) // 2
    by_layout = []
    for words in (digit_words(xs.T, t), digit_words(np.ascontiguousarray(xs.T), t)):
        assert words.flags.f_contiguous == (not by_layout)  # F order, then C order
        lo = surface_module._shallow_sides(f, words, len(xs))[0]
        hi = surface_module._shallow_sides(f, words, 0)[1]
        np.testing.assert_array_equal(lo[inside], want_lo[inside])
        np.testing.assert_array_equal(hi[inside], want_hi[inside])
        assert np.all(lo <= want_lo) and np.all(want_hi <= hi)
        split_lo, split_hi = surface_module._shallow_sides(f, words, k)
        np.testing.assert_array_equal(split_lo, lo[:k])
        np.testing.assert_array_equal(split_hi, hi[k:])
        by_layout.append((lo, hi))
    for got, want in zip(*by_layout):
        np.testing.assert_array_equal(got, want)


def _enclosure_rows(rng, rows: int, d: int) -> np.ndarray:
    """Rows of the open cube: uniform, crowded towards 0 and towards 1, exact
    depth-12 dyadics and the doubles just below them."""
    u = rng.random((rows, d))
    dyadic = rng.integers(1, 4096, (rows // 4, d)) / 4096.0
    xs = np.concatenate([u, u**8, 1.0 - u**8, dyadic, np.nextafter(dyadic, 0.0)])
    return np.clip(xs, 2.0**-1074, 1.0 - 2.0**-53)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("kind, lam", [(SALEM, 0.01), (SALEM, 0.25), (SALEM, 0.4),
                                       (SALEM, 0.99)])
def test_shallow_enclosure_holds_full_depth_values(kind, lam, n):
    # bounds from the box at depth min(spec depth, 12) hold the exact F and
    # the F that surface_values computes at the spec's depth, to within p's
    # rounding slack, far under the projection's 2^-40 margin
    rows = _enclosure_rows(seeded_rng(n), 1000, n - 1)
    for depth in (6, 12, 20, 52, 63):
        spec = SurfaceSpec(n, SingularFunctionSpec(kind=kind, lam=lam, depth=depth))
        lo, hi = _shallow_bounds(spec, rows.T)
        assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))
        values = surface_values(spec, rows)
        assert np.all(lo - 2.0**-46 <= values), depth
        assert np.all(values <= hi + 2.0**-46), depth
        if depth == 52:  # the exact F at uniform rows
            for row, row_lo, row_hi in list(zip(rows.tolist(), lo, hi))[:len(rows) // 4:20]:
                assert row_lo <= _F_exact(row, lam) <= row_hi


def _edge_pairs(spec, rest, depth):
    """Adjacent doubles x < x' of the first coordinate, the others ``rest``, at
    which F as ``surface_values`` computes it falls on either side of a
    depth-``depth`` cell edge e (F(x) >= e > F(x')), for up to five edges spread
    over F's range on the sweep's open cube: bisection on the bit patterns of
    positive doubles, which order them.  Returns the edges and the rows, each
    x first; no edge if F's range lies in one cell."""
    def rows(bits):
        return np.hstack([bits.view(np.float64)[:, None], np.tile(rest, (len(bits), 1))])

    a, b = np.array([2.0**-50]).view(np.int64), np.array([1.0 - 2.0**-50]).view(np.int64)
    top, bottom = surface_values(spec, rows(np.concatenate([a, b]))) * 2.0**depth
    cells = np.arange(math.floor(bottom) + 1, math.ceil(top))
    spread = np.linspace(0, len(cells) - 1, 5).astype(int) if len(cells) else []
    edges = np.unique(cells[spread]) / 2.0**depth
    a, b = np.repeat(a, len(edges)), np.repeat(b, len(edges))
    while np.any(b - a > 1):
        mid = a + (b - a) // 2
        above = surface_values(spec, rows(mid)) >= edges
        a, b = np.where(above, mid, a), np.where(above, b, mid)
    return edges, rows(np.concatenate([a, b]))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("lam", [0.01, 0.25, 0.4, 0.99])
def test_F_cells_match_full_depth_cells_across_image_edges(lam, n):
    # at adjacent rows whose computed F falls on either side of an image-cell
    # edge, _F_cells gives the cells of F as surface_values computes it: the
    # widened shallow bounds must not settle such a row in the wrong cell
    spec = SurfaceSpec(n, SingularFunctionSpec(lam=lam))
    # the other coordinates: those among 2^-j and 1 - 2^-j, j < 50, whose f lies
    # nearest 1/2, so F spans many cells even when lam is far from 1/2
    grid = np.concatenate([2.0 ** -np.arange(1, 50), 1.0 - 2.0 ** -np.arange(1, 50)])
    rest = grid[np.argsort(abs(evaluate_many(spec.f, grid)[0] - 0.5))[:n - 2]]
    seen = 0
    for depth in (4, 6, 10, 14):
        edges, rows = _edge_pairs(spec, rest, depth)
        e, edge_cells = len(edges), digit_words(edges, depth)
        seen += e
        want = digit_words(surface_values(spec, rows), depth)
        assert np.all(rows[e:, 0] == np.nextafter(rows[:e, 0], 1.0))
        assert np.all(want[:e] >= edge_cells) and np.all(want[e:] < edge_cells)
        np.testing.assert_array_equal(surface_module._F_cells(spec, rows.T, depth), want)
    assert seen >= 10


#: the projection's sample clip, [_EDGE, 1 - _EDGE]
_EDGE = 2.0**-50


def _box_points(t: int, d: int, pick) -> np.ndarray:
    """One point, by coordinate as a (d, 2^(dt)) array, of every box of d depth-t cells in
    ``_F_cell_table`` order: on axis j ``pick(j, w)`` of the box's cell w there, clipped
    into [_EDGE, 1 - _EDGE] as the projection's samples are."""
    ids = np.arange(1 << d * t)
    cells = [(ids >> t * (d - 1 - j)) & ((1 << t) - 1) for j in range(d)]
    return np.clip([pick(j, w) for j, w in enumerate(cells)], _EDGE, 1.0 - _EDGE)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("lam", [0.01, 0.25, 0.5, 0.99])
def test_F_cell_table_holds_F_on_its_boxes(lam, n):
    # at every corner of every decided box (a cell's left end or its top double, at the
    # sweep's clip _EDGE and 1 - _EDGE on the outer cells) and at a random point in it,
    # F as surface_values computes it at the spec's depth lies in the entry's cell
    spec = SurfaceSpec(n, SingularFunctionSpec(lam=lam))
    d = n - 1
    t = min(16 // d, surface_module._TABLE_DEPTH)  # the sweep's, at depth 52 and probe depth 40
    tables = {}
    for depth in (3, 6, 10, 14):
        table = tables[depth] = surface_module._F_cell_table(spec.f, d, t, depth)
        assert table.shape == (1 << d * t,) and not table.flags.writeable
        assert table.dtype == (np.int8 if depth < 8 else np.int16)
        assert np.all((-1 <= table) & (table < 1 << depth))
    assert np.any(tables[3] >= 0)
    rng = seeded_rng(n)
    picks = [lambda j, w, c=c: np.nextafter((w + 1) / 2**t, 0.0) if c >> j & 1 else w / 2**t
             for c in range(1 << d)] + [lambda j, w: (w + rng.random(w.size)) / 2**t]
    for pick in picks:
        values = surface_values(spec, _box_points(t, d, pick).T)
        for depth, table in tables.items():
            decided = table >= 0
            np.testing.assert_array_equal(digit_words(values[decided], depth), table[decided])


@pytest.mark.parametrize("depth", [3, 6, 10])
def test_F_cell_table_leaves_a_box_open_when_a_bound_is_within_the_margin(depth):
    # lam just under 1/2 puts f(1/2) = lam just under the image edge 1/2: on the depth-12
    # cell left of 1/2, F's lower bound lies 2^-43.4 above the edge and its upper bound
    # 2^-12 above it.  The bounds share a cell, but widened by _MARK_MARGIN they do not
    f = SingularFunctionSpec(lam=0.5 - 2.0**-43)
    w = np.array([[2**11 - 1]])
    lo, hi = surface_module._shallow_sides(f, w, 1)[0], surface_module._shallow_sides(f, w, 0)[1]
    assert 2.0**-50 < lo[0] - 0.5 < surface_module._MARK_MARGIN
    assert digit_words(lo, depth) == digit_words(hi, depth) == 1 << depth - 1
    table = surface_module._F_cell_table(f, 1, 12, depth)
    assert table[w[0, 0]] == -1
    assert table[w[0, 0] - 1] == 1 << depth - 1  # the box left of it is decided


@pytest.mark.parametrize("n, t, depth", [(2, 12, 52), (3, 8, 52), (3, 6, 6)])
def test_F_cell_table_reads_the_corner_tables_of_its_depth(monkeypatch, n, t, depth):
    # at t = T, min(spec depth, 12), the table reads _cell_boxes(f), the projection's own
    # first-mark tables; below T those of f at depth t.  Each (f, d, t, depth) is built once
    f = SingularFunctionSpec(lam=0.3, depth=depth)
    surface_module._F_cell_table.cache_clear()
    read = []
    cell_boxes = surface_module._cell_boxes
    monkeypatch.setattr(surface_module, "_cell_boxes", lambda g: read.append(g) or cell_boxes(g))
    table = surface_module._F_cell_table(f, n - 1, t, 5)
    want = f if t == min(depth, 12) else dataclasses.replace(f, depth=t)
    assert read and all(g == want for g in read)
    assert surface_module._F_cell_table(f, n - 1, t, 5) is table


# ------------------------------------------------- projective cross-check


def test_crosscheck_diagonal_fixed_point():
    assert p_projective(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_crosscheck_below_diagonal():
    assert p_projective(0.8, 0.2) == pytest.approx(0.5, abs=1e-12)


def test_crosscheck_above_diagonal():
    assert p_projective(0.2, 0.8) == pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------------ last coordinate
# F along the last coordinate with the others fixed


def test_identity_F_center_n3(identity_n3):
    assert surface_values(identity_n3, np.array([[0.5, 0.5]]))[0] == pytest.approx(0.5, abs=1e-15)


def test_identity_F_decreasing_pair_in_last_coordinate(identity_n3):
    v_low, v_high = surface_values(identity_n3, np.array([[0.5, 0.1], [0.5, 0.9]]))
    assert v_low == pytest.approx(1.0 - p_formula((0.5, 0.1)), abs=1e-12)
    assert v_high == pytest.approx(1.0 - p_formula((0.5, 0.9)), abs=1e-12)
    assert v_low > v_high


def test_F_decreasing_in_last_coordinate_bulk(surface_n3):
    # 10^4 rows (fixed, t1, t2) with t1 < t2; every gap exceeds 1e-6
    u = seeded_rng(88).uniform((0.05, 0.01, 0.01), (0.95, 0.99, 0.99), (10_000, 3))
    u[:, 1:].sort(axis=1)
    at_t1 = surface_values(surface_n3, u[:, [0, 1]])
    at_t2 = surface_values(surface_n3, u[:, [0, 2]])
    assert (at_t1 > at_t2).all()


def test_F_range_exhaustion_in_last_coordinate(surface_n3):
    # near the ends of the last coordinate F sweeps past both delta = 0.01
    # rails
    high, low = surface_values(surface_n3, np.array([[0.5, 2.0**-30], [0.5, 1.0 - 2.0**-30]]))
    assert high > 0.99
    assert low < 0.01


def test_identity_F_center_n4(identity_f):
    spec = SurfaceSpec(n=4, f=identity_f)
    value = surface_values(spec, np.array([[0.5, 0.5, 0.5]]))[0]
    assert value == pytest.approx(1.0 - p_formula((0.5, 0.5, 0.5)), abs=1e-12)
