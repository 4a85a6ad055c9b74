import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import antichain.measure as measure_module
from antichain import (
    BudgetError,
    DomainError,
    InsufficientDataError,
    PrecisionError,
    SingularFunctionSpec,
    SingularSetProbe,
    SurfaceSpec,
    alpha,
    box_dimension,
    graph_length_n2,
    occupied_cell_count,
    projection_measures,
)
from antichain.errors import check_budget
from antichain.measure import (
    JITTER_BLOCK,
    _block_jitter,
    _mark_codes,
    classify_regions,
    cover_sum,
)
from antichain.singular import in_singular_set
from antichain.surface import surface_values

from oracles import length_binomial, seeded_rng


def antidiagonal_cells(k: int) -> set[tuple[int, int]]:
    """Independent cell enumeration for the graph of 1 - x at depth k."""
    m = 1 << k
    cells = set()
    for i in range(m):
        cells.add((i, m - 1 - i))  # interior of the segment over column i
        if i >= 1:
            cells.add((i, m - i))  # left corner sits on the cell boundary above
    return cells


# ------------------------------------------------------------------- alpha


def test_alpha_closed_forms():
    assert abs(alpha(0.0) - 1.0) <= 1e-12
    assert abs(alpha(1.0) - 1.0) <= 1e-12
    assert abs(alpha(2.0) - math.pi / 4.0) <= 1e-12 * (math.pi / 4.0)
    assert abs(alpha(3.0) - math.pi / 6.0) <= 1e-12 * (math.pi / 6.0)


def test_alpha_negative_rejected():
    with pytest.raises(DomainError):
        alpha(-0.5)


@given(st.floats(min_value=0.0, max_value=25.0, allow_nan=False))
def test_alpha_positive(s):
    assert alpha(s) > 0.0


# ------------------------------------------------------------ cell marking


def test_mark_codes_half_open():
    # a point on a cell boundary belongs to the upper cell; 1.0 to the last
    pts = np.array([[0.5, 0.25], [0.0, 0.999], [0.25, 1.0], [1.0, 1.0]])
    codes = _mark_codes(pts, 2)
    assert [divmod(int(c), 4) for c in codes] == [(2, 1), (0, 3), (1, 3), (3, 3)]
    assert _mark_codes(np.array([[0.375]]), 3)[0] == 3
    assert _mark_codes(np.array([[0.375 - 2.0**-54]]), 3)[0] == 2


def test_mark_codes_nest_across_depths():
    # a depth-k code is the depth-(k+1) code with each axis's last digit dropped
    pts = seeded_rng(17).random((2000, 3))
    for k in (1, 4, 9):
        coarse, fine = _mark_codes(pts, k), _mark_codes(pts, k + 1)
        for j in range(3):
            coarse_axis = (coarse >> ((2 - j) * k)) & ((1 << k) - 1)
            fine_axis = (fine >> ((2 - j) * (k + 1))) & ((1 << (k + 1)) - 1)
            assert np.array_equal(coarse_axis, fine_axis >> 1)


# --------------------------------------------------------------- occupancy


def test_identity_occupancy_matches_enumeration(identity_n2):
    # the anti-diagonal crosses 2^{k+1} - 1 cells; enumerated independently
    oracle = antidiagonal_cells(8)
    assert len(oracle) == 511
    assert occupied_cell_count(identity_n2, 8, 3) == len(oracle)


def test_occupancy_monotone_under_sample_refinement(surface_n2, surface_n3):
    # offsets j/m nest when m doubles, so counts cannot drop
    for spec, k in ((surface_n2, 8), (surface_n3, 4)):
        counts = [occupied_cell_count(spec, k, m) for m in (1, 2, 4)]
        assert counts == sorted(counts)


def test_occupancy_budget_guard(surface_n2):
    with pytest.raises(BudgetError):
        occupied_cell_count(surface_n2, 10, 3, budget=100)
    with pytest.raises(BudgetError, match="64-bit"):
        occupied_cell_count(surface_n2, 40, 1)


def test_budget_message_shortens_huge_counts():
    # compared first, then printed as the power of two the count passes
    with pytest.raises(BudgetError, match=r"^at least 2\^16609 evaluations exceed budget 1$"):
        check_budget(10**5000, 1)
    with pytest.raises(BudgetError, match="^289 evaluations exceed budget 288$"):
        check_budget(289, 288)
    check_budget(10**5000, 10**5000)


def test_cover_counts_do_not_depend_on_block_size(surface_n2, surface_n3, salem_default,
                                                  monkeypatch):
    # 50 lattice points per block cuts the sweep mid-row; the counts were
    # recorded from the per-cell sweep, whose m = 3 and 5 offsets j/m are
    # inexact floats
    surface_n4 = SurfaceSpec(n=4, f=salem_default)
    cases = ((surface_n3, 5, 2), (surface_n2, 9, 3), (surface_n3, 4, 3), (surface_n2, 8, 5),
             (surface_n4, 2, 3))
    counts = [occupied_cell_count(spec, k, m) for spec, k, m in cases]
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 50)
    assert [occupied_cell_count(spec, k, m) for spec, k, m in cases] == counts
    assert counts == [1338, 668, 363, 375, 104]


def test_cover_evaluates_each_lattice_point_once(surface_n3, monkeypatch):
    # the depth-3 lattice with 2 samples per cell has 17 points per axis;
    # cells share their boundary points, so 289 evaluations, not 64 * 9
    rows = []

    def counting(spec, pts):
        rows.append(len(pts))
        return surface_values(spec, pts)

    monkeypatch.setattr(measure_module, "surface_values", counting)
    count = occupied_cell_count(surface_n3, 3, 2, budget=289)
    assert sum(rows) == 289
    assert count == occupied_cell_count(surface_n3, 3, 2)
    with pytest.raises(BudgetError, match="289 evaluations exceed budget 288"):
        occupied_cell_count(surface_n3, 3, 2, budget=288)


# ----------------------------------------------------------- cover values


def test_cover_value_identity_example(identity_n2):
    count = occupied_cell_count(identity_n2, 8, 3)
    delta = 2.0**-8 * math.sqrt(2.0)  # diameter of a depth-8 planar cell
    value = cover_sum(1.0, 2, 8, count)
    assert count == 511
    assert count <= 2**16  # cells of the depth-8 planar grid
    assert value == alpha(1.0) * 511 * delta
    assert value == pytest.approx(2.823, abs=5e-4)


def test_cover_sum_s0_counts_cells(surface_n2):
    count = occupied_cell_count(surface_n2, 6, 2)
    assert cover_sum(0.0, 2, 6, count) == float(count)


def test_cover_values_bounded_n2(surface_n2):
    # N(k) * 2^-k stays below the variation bound 2 (plus boundary effects)
    for k in (6, 9, 12):
        value = cover_sum(1.0, 2, k, occupied_cell_count(surface_n2, k, 3))
        assert value <= 2.0 * math.sqrt(2.0) * alpha(1.0) + 0.1


# ------------------------------------------------------------- dimension


def test_box_dimension_identity_segment(identity_n2):
    est = box_dimension(identity_n2, 6, 12, 2)
    assert est.slope == pytest.approx(1.0, abs=0.02)
    assert est.r2 > 0.999
    assert est.depths == tuple(range(6, 13))


def test_box_dimension_charges_its_whole_window(surface_n2):
    # the finest sweep alone fits a budget that the window's sweeps exceed
    with pytest.raises(BudgetError):
        box_dimension(surface_n2, 6, 14, 3, budget=4 << 14)
    total = sum((3 << k) + 1 for k in range(6, 15))
    assert box_dimension(surface_n2, 6, 14, 3, budget=total).depths == tuple(range(6, 15))
    with pytest.raises(DomainError):
        box_dimension(surface_n2, -5, 3, 2)
    with pytest.raises(DomainError):
        box_dimension(surface_n2, 6, 14, 0)


def test_box_dimension_needs_three_depths(identity_n2):
    with pytest.raises(InsufficientDataError):
        box_dimension(identity_n2, 6, 7, 2)


def test_dimension_estimate_carries_its_counts(identity_n2, surface_n3):
    # the finest count and the fitted trend that feed cover_sum come from one sweep
    est = box_dimension(surface_n3, 2, 5, 2)
    assert est.counts == tuple(occupied_cell_count(surface_n3, k, 2) for k in est.depths)
    slope, intercept = np.polyfit(est.depths, np.log2(est.counts), 1)
    assert est.fitted_count(5) == pytest.approx(2.0 ** (intercept + slope * 5), rel=1e-12)
    assert cover_sum(1.0, 2, 8, 511) == cover_sum(1.0, 2, 8, occupied_cell_count(identity_n2, 8, 3))


def test_extrapolated_value_identity(identity_n2):
    # exact counts 2^{k+1} - 1 give a trend value just under 2 sqrt(2)
    est = box_dimension(identity_n2, 6, 12, 2)
    value = cover_sum(1.0, 2, 12, est.fitted_count(12))
    assert value == pytest.approx(2.0 * math.sqrt(2.0), rel=0.02)


def test_box_dimension_salem_calibrated_windows(surface_n2, surface_n3):
    # calibrated windows; the graph scales like a set of dimension n - 1
    est2 = box_dimension(surface_n2, 6, 14, 3)
    assert 0.95 <= est2.slope <= 1.05
    est3 = box_dimension(surface_n3, 4, 9, 2)
    assert 1.9 <= est3.slope <= 2.1


# ---------------------------------------------------------------- length


def test_length_identity_is_sqrt2(identity_n2):
    for k in (1, 5, 10):
        assert graph_length_n2(identity_n2, k) == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_length_salem_depth1(surface_n2):
    # two segments through (1/2, 3/4): hand value (sqrt(13) + sqrt(5)) / 4
    expected = (math.sqrt(13.0) + math.sqrt(5.0)) / 4.0
    assert graph_length_n2(surface_n2, 1) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.4604048132409448, rel=1e-15)


def test_length_matches_binomial_oracle(surface_n2):
    for k in (4, 10, 16):
        assert graph_length_n2(surface_n2, k) == pytest.approx(
            length_binomial(k, 0.25), rel=1e-12
        )


def test_length_monotone_in_k(surface_n2):
    values = [graph_length_n2(surface_n2, k) for k in range(2, 14, 2)]
    assert values == sorted(values)


def test_length_k22_frozen_value(surface_n2):
    # frozen from two agreeing routes: direct dyadic summation over 2^22
    # cells and the binomial aggregation above
    assert graph_length_n2(surface_n2, 22) == pytest.approx(1.8274409202959285, rel=1e-12)


def test_length_variation_bound_termwise(surface_n2):
    k = 10
    xs = np.arange((1 << k) + 1, dtype=np.float64) / (1 << k)
    from antichain import evaluate_many

    f, _ = evaluate_many(surface_n2.f, xs)
    df = np.abs(np.diff(f))
    dx = 2.0**-k
    terms = np.sqrt(dx * dx + df * df)
    assert (terms <= dx + df + 1e-18).all()
    assert math.fsum(dx + d for d in df) == pytest.approx(2.0, abs=1e-12)
    assert graph_length_n2(surface_n2, k) <= 2.0 + 1e-12


def test_length_validation(surface_n2, surface_n3):
    with pytest.raises(DomainError):
        graph_length_n2(surface_n3, 8)
    with pytest.raises(PrecisionError):
        graph_length_n2(surface_n2, 60)
    with pytest.raises(BudgetError):
        graph_length_n2(surface_n2, 20, budget=1000)


# ------------------------------------------------------------ projections


def test_classify_regions_is_partition(surface_n3):
    probe = SingularSetProbe(depth=40, eps=0.01)
    rng = seeded_rng(3)
    pts = rng.uniform(1e-6, 1 - 1e-6, (5000, 2))
    labels = classify_regions(surface_n3, probe, pts)
    assert set(np.unique(labels)) <= {0, 1, 2, 3}
    # dual route: the scalar membership op decides the label
    for row, label in list(zip(pts, labels))[:200]:
        outside = [not in_singular_set(surface_n3.f, probe, float(c)) for c in row]
        if sum(outside) == 0:
            assert label == 3
        elif sum(outside) == 1:
            assert label == outside.index(True) + 1
        else:
            assert label == 0


def test_projection_degenerate_probe(identity_n2):
    # huge eps accepts everything: the last-axis piece is the whole domain,
    # all other pieces are empty
    probe = SingularSetProbe(depth=10, eps=1e9)
    areas = projection_measures(identity_n2, probe, 8, 6, 2, seed=0)
    assert areas[2] == 1.0
    assert areas[1] == 0.0
    assert math.fsum(areas.values()) == 1.0


def test_projection_areas_in_unit_interval(salem_default):
    # one area per axis 1..n, in axis order
    probe = SingularSetProbe(depth=40, eps=0.01)
    for n, kd, ki, m in ((2, 10, 7, 3), (3, 6, 5, 2), (4, 4, 4, 2)):
        areas = projection_measures(SurfaceSpec(n=n, f=salem_default), probe, kd, ki, m, seed=0)
        assert list(areas) == list(range(1, n + 1))
        assert all(0.0 <= area <= 1.0 for area in areas.values())


def test_projection_axis_n_monotone_in_eps(surface_n2):
    # larger eps accepts a superset into the last piece; same seed, same jitter
    kwargs = dict(domain_depth=10, image_depth=7, samples_per_cell=3, seed=0)
    areas = [
        projection_measures(surface_n2, SingularSetProbe(40, eps), **kwargs)[2]
        for eps in (0.002, 0.01, 0.05)
    ]
    assert areas == sorted(areas)


def test_projection_count_monotone_in_image_depth(surface_n2):
    # identical samples marked at two image resolutions: cells split, so the
    # occupied count cannot drop
    probe = SingularSetProbe(depth=40, eps=0.01)
    kwargs = dict(domain_depth=10, samples_per_cell=3, seed=0)
    coarse = projection_measures(surface_n2, probe, image_depth=6, **kwargs)[1]
    fine = projection_measures(surface_n2, probe, image_depth=7, **kwargs)[1]
    assert round(fine * 2**7) >= round(coarse * 2**6)


def test_projection_validation(surface_n3):
    probe = SingularSetProbe(depth=40, eps=0.01)
    with pytest.raises(PrecisionError):
        projection_measures(surface_n3, SingularSetProbe(depth=60), 6, 5, 2)
    with pytest.raises(BudgetError):
        projection_measures(surface_n3, probe, 10, 5, 3, budget=100)
    with pytest.raises(BudgetError):
        projection_measures(surface_n3, probe, 6, 15, 2)  # image array guard
    with pytest.raises(BudgetError, match="64-bit"):
        projection_measures(surface_n3, probe, 32, 5, 1, budget=2**70)
    with pytest.raises(BudgetError, match="64-bit"):  # before 1 << 10**9 is built
        projection_measures(surface_n3, probe, 10**9, 5, 1)


# ---------------------------------------------------------------- jitter


def test_jitter_deterministic_and_block_keyed():
    a = _block_jitter(7, 3).random((16, 4, 2))
    b = _block_jitter(7, 3).random((16, 4, 2))
    assert np.array_equal(a, b)
    c = _block_jitter(7, 4).random((16, 4, 2))
    assert not np.array_equal(a, c)
    d = _block_jitter(8, 3).random((16, 4, 2))
    assert not np.array_equal(a, d)
    assert a.min() >= 0.0 and a.max() < 1.0
    # a block drawn in pieces, cell by cell, gets the numbers of one whole draw
    gen = _block_jitter(7, 3)
    assert np.array_equal(np.concatenate([gen.random((n, 4, 2)) for n in (5, 1, 10)]), a)


def test_projection_areas_do_not_depend_on_chunk_size(surface_n2, surface_n3, monkeypatch):
    # small chunks split the jitter blocks; depth 18 spans two of them
    probe = SingularSetProbe(depth=40, eps=0.01)
    cases = ((surface_n3, 6, 5, 3), (surface_n2, 18, 8, 1))
    areas = [projection_measures(spec, probe, kd, ki, m, seed=2) for spec, kd, ki, m in cases]
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 1 << 14)
    assert [projection_measures(spec, probe, kd, ki, m, seed=2)
            for spec, kd, ki, m in cases] == areas
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 50)
    assert projection_measures(surface_n3, probe, 6, 5, 3, seed=2) == areas[0]


def test_projection_memory_does_not_grow_with_samples(surface_n3, monkeypatch):
    # chunks hold at most _CHUNK_ROWS sample rows whatever the sample count,
    # also when one cell's samples outnumber them (16384 rows per cell at m = 128);
    # the first call fills the kernels' cached tables before tracing starts
    probe = SingularSetProbe(depth=40, eps=0.01)
    projection_measures(surface_n3, probe, 3, 5, 1, seed=1)
    for chunk_rows, depth, samples in ((1 << 12, 6, (2, 8)), (1 << 10, 2, (8, 128))):
        monkeypatch.setattr(measure_module, "_CHUNK_ROWS", chunk_rows)
        peaks = []
        for m in samples:
            tracemalloc.start()
            try:
                projection_measures(surface_n3, probe, depth, 5, m, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], (chunk_rows, depth, peaks)


def test_projection_deterministic(surface_n2):
    probe = SingularSetProbe(depth=40, eps=0.01)
    a = projection_measures(surface_n2, probe, 9, 6, 2, seed=11)[1]
    b = projection_measures(surface_n2, probe, 9, 6, 2, seed=11)[1]
    assert a == b


def per_axis_reference(spec, probe, kd, ki, m, seed):
    """Projection areas rebuilt axis by axis: the image of piece i < n drops
    coordinate i and appends F, and its cells are counted in a set.  The
    samples are the sweep's: cell corners in flat-id order, each repeated on
    m^d rows, plus one draw of the first jitter block."""
    d, n = spec.domain_dim, spec.n
    assert (1 << (kd * d)) <= JITTER_BLOCK
    corners = np.array(list(itertools.product(range(1 << kd), repeat=d)), dtype=np.float64)
    corners = np.repeat(corners, m**d, axis=0)
    pts = (corners + _block_jitter(seed, 0).random(corners.shape)) / float(1 << kd)
    labels = classify_regions(spec, probe, pts)
    top = (1 << ki) - 1
    areas = {}
    for axis in range(1, n + 1):
        image = pts[labels == axis]
        if axis < n:
            image = np.column_stack([np.delete(image, axis - 1, axis=1),
                                     surface_values(spec, image)])
        cells = {tuple(min(math.floor(x * 2**ki), top) for x in row) for row in image}
        areas[axis] = len(cells) * (2.0**-ki) ** d
    return areas, labels


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.9])
def test_projection_matches_per_axis_reference(lam):
    probe = SingularSetProbe(depth=40, eps=0.01)
    for n, kd, ki, m in ((2, 10, 7, 3), (3, 6, 5, 2), (4, 4, 4, 2)):
        spec = SurfaceSpec(n=n, f=SingularFunctionSpec(lam=lam))
        expected, _ = per_axis_reference(spec, probe, kd, ki, m, seed=4)
        assert projection_measures(spec, probe, kd, ki, m, seed=4) == expected


def test_projection_matches_per_axis_reference_minkowski():
    spec = SurfaceSpec(n=3, f=SingularFunctionSpec(kind="minkowski"))
    probe = SingularSetProbe(depth=40, eps=0.01)
    expected, labels = per_axis_reference(spec, probe, 6, 5, 2, seed=1)
    assert set(np.unique(labels)) == {0, 1, 2, 3}  # every piece and the rest
    assert projection_measures(spec, probe, 6, 5, 2, seed=1) == expected


def test_projection_lifts_each_chunk_once(surface_n3, monkeypatch):
    # 16384 rows in chunks of 512: one F evaluation per chunk, on exactly
    # the rows of pieces 1..n-1
    probe = SingularSetProbe(depth=40, eps=0.01)
    lifted, calls = [], []

    def spy_classify(spec, probe, pts):
        labels = classify_regions(spec, probe, pts)
        lifted.append(pts[(labels > 0) & (labels < spec.n)].copy())
        return labels

    def spy_values(spec, pts):
        calls.append(pts.copy())
        return surface_values(spec, pts)

    monkeypatch.setattr(measure_module, "classify_regions", spy_classify)
    monkeypatch.setattr(measure_module, "surface_values", spy_values)
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 1000)
    projection_measures(surface_n3, probe, 6, 5, 2, seed=3)
    assert len(lifted) == 16384 // 512
    assert len(calls) == len(lifted)
    assert all(np.array_equal(got, want) for got, want in zip(calls, lifted))
