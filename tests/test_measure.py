import itertools
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import antichain.measure as measure_module
import antichain.surface as surface_module
from antichain import (
    BudgetError,
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    PrecisionError,
    SingularFunctionSpec,
    SingularSetProbe,
    SurfaceSpec,
    alpha,
    antichain_scan,
    box_dimension,
    graph_length_n2,
    occupied_cell_count,
    projection_lower_bound,
    projection_measures,
)
from antichain.errors import check_budget
from antichain.measure import (
    JITTER_BLOCK,
    _block_jitter,
    _cell_codes,
    _grid_walk,
    _slabs,
    classify_regions,
    cover_sum,
)
from antichain.singular import (
    KINDS,
    digit_words,
    evaluate_many,
    in_singular_set,
    in_singular_set_many,
    salem_slopes,
)
from antichain.surface import surface_from_f, surface_values

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


# ------------------------------------------------------- integer sizes

#: each estimator's size arguments at small valid values
_SIZE_ARGS = {
    occupied_cell_count: {"domain_depth": 3, "samples_per_cell": 2},
    box_dimension: {"k_min": 2, "k_max": 4, "samples_per_cell": 1},
    graph_length_n2: {"k": 3},
    projection_measures: {"probe": SingularSetProbe(depth=8), "domain_depth": 3,
                          "image_depth": 3, "samples_per_cell": 2},
    antichain_scan: {"pairs": 10},
}
_SIZE_NAMES = {"k": "partition depth"}  # the name a refusal gives, where it differs


@pytest.mark.parametrize("call, arg", [(call, arg) for call, args in _SIZE_ARGS.items()
                                       for arg in args if arg != "probe"],
                         ids=lambda v: getattr(v, "__name__", v))
def test_estimators_refuse_non_integer_sizes(surface_n2, call, arg):
    # a float size used to fail inside Python or numpy with a bare
    # TypeError, and a bool passed as an int; numpy integers pass
    args = _SIZE_ARGS[call]
    name = _SIZE_NAMES.get(arg, arg)
    for value in (3.0, 2.5, "3", True):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got "):
            call(surface_n2, **{**args, arg: value})
    assert call(surface_n2, **{**args, arg: np.int64(args[arg])}) == call(surface_n2, **args)


@pytest.mark.parametrize("call", list(_SIZE_ARGS), ids=lambda call: call.__name__)
def test_estimators_refuse_non_integer_budgets(surface_n2, call):
    # a string budget failed in the comparison with a bare TypeError, and a
    # float or a bool was compared as a number; numpy integers pass
    args = _SIZE_ARGS[call]
    for value in ("x", 2.5, 1e9, True):
        with pytest.raises(ConfigurationError, match="^budget must be an integer, got "):
            call(surface_n2, **args, budget=value)
    assert call(surface_n2, **args, budget=np.int64(10**6)) == call(surface_n2, **args)


@pytest.mark.parametrize("call", [antichain_scan, projection_measures],
                         ids=lambda call: call.__name__)
def test_seeded_estimators_refuse_non_integer_seeds(surface_n2, call):
    # a float seed failed in ``seed & mask`` with a bare TypeError, a bool
    # ran as 0 or 1, and a numpy integer overflowed the mask; now numpy
    # integers give the int's result, negative ones with 64-bit semantics
    args = _SIZE_ARGS[call]
    for value in (1.5, "3", True):
        with pytest.raises(ConfigurationError, match="^seed must be an integer, got "):
            call(surface_n2, **args, seed=value)
    for seed in (3, -3):
        assert call(surface_n2, **args, seed=np.int64(seed)) == call(surface_n2, **args, seed=seed)
    assert call(surface_n2, **args, seed=-1) == call(surface_n2, **args, seed=2**64 - 1)


# ------------------------------------------------------------ cell marking


def mark_codes(points: np.ndarray, depth: int) -> np.ndarray:
    """Cell codes of an (N, dim) array of points, as the sweeps build them:
    each axis's digit words, here taken at depth + 3 and shifted down."""
    return _cell_codes(digit_words(points.T, depth + 3) >> 3, depth)


def test_mark_codes_half_open():
    # a point on a cell boundary belongs to the upper cell; the largest
    # coordinate a sweep makes, 1 - 2^-53, to the last
    top = 1.0 - 2.0**-53
    pts = np.array([[0.5, 0.25], [0.0, 0.999], [0.25, top], [top, top]])
    codes = mark_codes(pts, 2)
    assert [divmod(int(c), 4) for c in codes] == [(2, 1), (0, 3), (1, 3), (3, 3)]
    assert mark_codes(np.array([[0.375]]), 3)[0] == 3
    assert mark_codes(np.array([[0.375 - 2.0**-54]]), 3)[0] == 2


def test_mark_codes_nest_across_depths():
    # a depth-k code is the depth-(k+1) code with each axis's last digit dropped
    pts = seeded_rng(17).random((2000, 3))
    for k in (1, 4, 9):
        coarse, fine = mark_codes(pts, k), mark_codes(pts, k + 1)
        for j in range(3):
            coarse_axis = (coarse >> ((2 - j) * k)) & ((1 << k) - 1)
            fine_axis = (fine >> ((2 - j) * (k + 1))) & ((1 << (k + 1)) - 1)
            assert np.array_equal(coarse_axis, fine_axis >> 1)


# --------------------------------------------------------------- grid walk


@pytest.mark.parametrize("side, dim, per_point, block", [
    (17, 2, 3, 100),  # the cover's sides m 2^k + 1: m = 2, k = 3
    (25, 3, 2, 1000),  # m = 3, k = 3
    (41, 2, 1, 333),  # m = 5, k = 3
    (13, 1, 5, 7),
])
def test_grid_walk_matches_unravel_index(side, dim, per_point, block):
    # the projection's walk: blocks of ``block`` rows that do not divide the row
    # count, each point repeated on ``per_point`` rows, in flat-id order, as floats
    rows = side**dim * per_point
    assert rows % block
    walked = list(_grid_walk(side, dim, per_point, block, budget=rows))
    assert [first for first, _ in walked] == list(range(0, rows, block))
    got = np.concatenate([coords for _, coords in walked], axis=1)
    expected = np.stack(np.unravel_index(np.arange(rows) // per_point, (side,) * dim))
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("side, dim, chunk_rows", [
    (17, 1, 50),
    (17, 1, 5),  # a few cells a box
    (17, 2, 50),  # whole rows, 17 - r0 points each on the half lattice
    (17, 2, 7),  # at m >= 2 one cell overfills a box: one cell a box
    (17, 3, 50),  # a row of 289 points: one axis-1 index (or cell), axis 2 split
    (13, 3, 50),  # m = 3 and 6 among the cell sizes
    (5, 4, 20),  # 25 points an axis-2 index: axis 3 split too
    (9, 3, 1000),
])
def test_slabs_tile_the_lattice(side, dim, chunk_rows, monkeypatch):
    # the full walk is the row-major lattice in boxes of at most chunk_rows points.
    # The cover's walk, for every cell size m that divides side - 1, cuts only between
    # cells, m indices each and m + 1 in the last; it holds every point with
    # x_1 <= x_2 once, and its other points (the overhang) lie in a box's axis-1 rows
    # at or past the box's first row
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", chunk_rows)
    shape = (side,) * dim

    def flat_ids(boxes):
        grids = (np.meshgrid(*[np.arange(*r) for r in box], indexing="ij") for box in boxes)
        return [np.ravel_multi_index(grid, shape).ravel() for grid in grids]

    def size(box):
        return math.prod(b - a for a, b in box)

    full = list(_slabs(side, dim))
    assert max(map(size, full)) <= chunk_rows
    assert np.array_equal(np.concatenate(flat_ids(full)), np.arange(side**dim))
    for m in (m for m in range(1, side) if (side - 1) % m == 0):
        cover = list(_slabs(side, dim, m))
        assert max(map(size, cover)) <= max(chunk_rows, (m + 1)**dim), m
        edges = {edge for box in cover for r in box for edge in r}
        assert all(edge == side or (edge % m == 0 and edge < side - 1) for edge in edges), m
        ids = np.concatenate(flat_ids(cover))
        assert np.unique(ids).size == ids.size
        if dim == 1:
            assert ids.size == side
            continue
        i, j = np.unravel_index(ids, shape)[:2]
        assert np.count_nonzero(i <= j) == side**dim * (side + 1) // (2 * side)
        assert all(box[1][0] >= box[0][0] for box in cover)


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
    split = occupied_cell_count(surface_n3, 7, 2)  # 257^2 lattice points, 3 chunks
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 50)
    assert [occupied_cell_count(spec, k, m) for spec, k, m in cases] == counts
    assert counts == [1338, 668, 363, 375, 104]
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 1 << 21)
    assert occupied_cell_count(surface_n3, 7, 2) == split


@pytest.mark.parametrize("k", [15, 16])
def test_cover_codes_either_side_of_int32(surface_n2, k):
    # 2k code bits: the codes are int32 at k = 15 and int64 at k = 16; the
    # sweeps of 2^k + 1 points take two and three chunks
    assert occupied_cell_count(surface_n2, k, 1) == lattice_cell_count(surface_n2, k, 1)


def test_cover_evaluates_each_lattice_point_once(surface_n3, monkeypatch):
    # the depth-3 lattice with 2 samples per cell has 17 points per axis:
    # f runs on the 17 axis values, not on 2 * 289 coordinates, and F on the
    # 289 lattice points, not on 64 * 9, in one box; the budget charges the 289
    f_sizes, F_rows = [], []

    def counting_f(spec, xs):
        f_sizes.append(np.size(xs))
        return evaluate_many(spec, xs)

    def counting_F(fv):
        F_rows.append(len(fv))
        return surface_from_f(fv)

    monkeypatch.setattr(measure_module, "evaluate_many", counting_f)
    monkeypatch.setattr(measure_module, "surface_from_f", counting_F)
    count = occupied_cell_count(surface_n3, 3, 2, budget=289)
    assert f_sizes == [17]
    assert F_rows == [289]
    assert count == occupied_cell_count(surface_n3, 3, 2)
    # 50-point boxes on the half lattice: as many whole two-row cells of axis 2's
    # indices from the box's first row r0 on as fit, 17 - r0 a row, the last cell
    # holding rows 14-16: rows 0-1 (34 points), 2-3 (30), 4-5 (26), 6-9 (44) and
    # 10-16 (49, no cut before the last cell), 183 points where the lattice has 289
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 50)
    f_sizes.clear(), F_rows.clear()
    assert occupied_cell_count(surface_n3, 3, 2, budget=289) == count
    assert f_sizes == [17]
    assert F_rows == [34, 30, 26, 44, 49]
    with pytest.raises(BudgetError, match="^289 evaluations exceed budget 288$"):
        occupied_cell_count(surface_n3, 3, 2, budget=288)
    assert len(f_sizes) == 1  # refused before f runs


@pytest.mark.parametrize("n, k_min, k_max, m, chunk_rows, f_sizes", [
    (3, 2, 5, 2, None, [9 + 17 + 33 + 65]),
    (3, 1, 4, 3, None, [7 + 13 + 25 + 49]),
    (4, 1, 3, 2, None, [5 + 9 + 17]),
    # n = 2, where the axis is the whole lattice: once a box, on whole cells (two
    # cells of 3 values, the last box ending on the last cell of 4)
    (2, 2, 4, 3, 7, [6, 7] + [6] * 3 + [7] + [6] * 7 + [7]),
])
def test_box_dimension_evaluates_f_once_per_window(n, k_min, k_max, m, chunk_rows, f_sizes,
                                                   salem_default, monkeypatch):
    # at n >= 3 one evaluate_many call takes the axis values of every depth (the
    # kernel is elementwise, so each f is the same double), and the counts are those
    # of the sweeps one depth at a time
    spec = SurfaceSpec(n=n, f=salem_default)
    counts = tuple(occupied_cell_count(spec, k, m) for k in range(k_min, k_max + 1))
    sizes = []

    def counting_f(spec, xs):
        sizes.append(np.size(xs))
        return evaluate_many(spec, xs)

    monkeypatch.setattr(measure_module, "evaluate_many", counting_f)
    if chunk_rows is not None:
        monkeypatch.setattr(measure_module, "_CHUNK_ROWS", chunk_rows)
    assert box_dimension(spec, k_min, k_max, m).counts == counts
    assert sizes == f_sizes


def lattice_cell_count(spec: SurfaceSpec, k: int, m: int) -> int:
    """Independent cover count: F at every lattice point, floor(2^k v) cell
    codes collected in a Python set."""
    side = (m << k) + 1
    axis = [min(max((i // m + (i % m) / m) / 2**k, 2.0**-50), 1.0 - 2.0**-50)
            for i in range(side)]
    pts = np.array(list(itertools.product(axis, repeat=spec.domain_dim)))
    ambient = np.column_stack([pts, surface_values(spec, pts)])
    return len({tuple(math.floor(v * 2**k) for v in row) for row in ambient.tolist()})


@pytest.mark.parametrize("chunk_rows", [None, 50, 7])
@pytest.mark.parametrize("n, kind, lam, k, m", [
    (2, "salem", 0.25, 8, 3),
    (3, "salem", 0.25, 4, 2),
    (3, "salem", 0.25, 4, 3),  # odd m: 7-point boxes split each cell of 9 to 16 points off
    (3, "salem", 0.7, 3, 5),  # one cell, 25 to 36 points, overfills a 7- or 50-point box
    (4, "salem", 0.25, 2, 3),
    (4, "salem", 0.4, 3, 3),
    (4, "salem", 0.25, 3, 2),  # 17^2 = 289 points an axis-1 row: 50-point boxes split it
    (2, "salem", 0.7, 9, 2),
    (3, "salem", 0.4, 4, 2),
    (2, "salem", 0.5, 8, 3),  # the identity
])
def test_cover_matches_lattice_oracle(n, kind, lam, k, m, chunk_rows, monkeypatch):
    # 50 or 7 points a box split the lattice's rows, cells and the last cell (m + 1
    # indices on each axis), and the count adds up the distinct codes of many boxes
    spec = SurfaceSpec(n=n, f=SingularFunctionSpec(kind=kind, lam=lam))
    if chunk_rows is not None:
        monkeypatch.setattr(measure_module, "_CHUNK_ROWS", chunk_rows)
    assert occupied_cell_count(spec, k, m) == lattice_cell_count(spec, k, m)


def test_cover_traced_peak_is_bounded(surface_n3):
    # n = 3, k = 9, m = 2: 1025^2 lattice points, about half of them evaluated on
    # the half lattice in 18 boxes.  1.5 MiB; 4.06 MiB when every chunk's distinct
    # codes were kept for a second sort over the concatenation, 10.1 MiB when each
    # chunk evaluated f at its coordinates and np.unique made the dedup's copies;
    # the first call fills the kernels' cached tables
    occupied_cell_count(surface_n3, 2, 1)
    tracemalloc.start()
    try:
        occupied_cell_count(surface_n3, 9, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_cover_axis_traced_peak_is_bounded(surface_n2):
    # n = 2, k = 18, m = 3: the 786433-point axis is the whole lattice, so f and
    # the cells are taken box by box, and each box holds whole cells, so nothing is
    # carried to the next box: the peak, 2.5 MiB, stays below a box's working set
    # (twelve 8-byte values a point), whatever the count.  7.3 MiB when every
    # box's distinct codes were kept for a second sort, 19.1 MiB when f's values and
    # bounds and a cell table were built over the whole axis at once
    occupied_cell_count(surface_n2, 2, 1)
    tracemalloc.start()
    try:
        count = occupied_cell_count(surface_n2, 18, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * measure_module._CHUNK_ROWS, (peak, count)


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


@pytest.mark.parametrize("n, kind", [(n, kind) for n in range(2, 7) for kind in KINDS])
def test_classify_regions_matches_scalar_membership(n, kind):
    # every row against the scalar membership route.  At depth 20 and eps
    # 0.5 about a quarter of the coordinates fall outside the probed
    # set, so rows with none, one and several outside coordinates all occur
    spec = SurfaceSpec(n=n, f=SingularFunctionSpec(kind=kind))
    probe = SingularSetProbe(depth=20, eps=0.5)
    pts = seeded_rng(n).uniform(1e-6, 1 - 1e-6, (400, n - 1))
    labels = classify_regions(spec, probe, pts)
    assert labels.shape == (400,)
    outside_counts = set()
    for row, label in zip(pts.tolist(), labels.tolist()):
        outside = [i for i, x in enumerate(row, start=1) if not in_singular_set(spec.f, probe, x)]
        outside_counts.add(min(len(outside), 2))
        assert label == (n if not outside else outside[0] if len(outside) == 1 else 0)
    assert outside_counts == ({0, 1} if n == 2 else {0, 1, 2})


@pytest.mark.parametrize("kind", KINDS)
def test_sweep_labels_read_deeper_digit_words(kind):
    # the sweep labels from one word per coordinate at the deepest depth it
    # needs; shifted down to the probe's depth, its labels are classify_regions'
    spec = SurfaceSpec(n=4, f=SingularFunctionSpec(kind=kind))
    probe = SingularSetProbe(depth=20, eps=0.5)
    pts = seeded_rng(29).uniform(1e-6, 1 - 1e-6, (2000, 3))
    labels = classify_regions(spec, probe, pts)
    assert set(np.unique(labels)) == {0, 1, 2, 3, 4}
    cols = np.ascontiguousarray(pts.T)
    table = measure_module._label_table(spec.n)
    for width in (20, 21, 40, 63):
        masks = measure_module._inside_masks(spec, probe, digit_words(cols, width), width)
        np.testing.assert_array_equal(table.take(masks), labels)


def test_classify_regions_refuses_wide_domains(salem_default):
    # the label table has 2^(n-1) entries; past 2^23, where the projection's
    # own occupancy guard stops, it is refused before any is built
    probe = SingularSetProbe(depth=20, eps=0.5)
    with pytest.raises(BudgetError, match=r"piece-label table of 2\^24 codes"):
        classify_regions(SurfaceSpec(n=25, f=salem_default), probe, np.full((3, 24), 0.5))


def _bound_fraction(lam: float, k: int, threshold: int) -> Fraction:
    """Leb(S) + 1 - mu(S) over the depth-k cells with at most ``threshold`` ones, summed
    cell class by cell class in exact rationals."""
    a = Fraction(lam)
    return 1 + sum(math.comb(k, o) * (Fraction(1, 2**k) - a ** (k - o) * (1 - a) ** o)
                   for o in range(min(threshold, k) + 1))


@pytest.mark.parametrize("lam", [0.01, 0.25, 0.5, 0.75, 0.99])
@pytest.mark.parametrize("k", [1, 7, 40, 64, 100])
def test_projection_lower_bound_is_the_fraction_sum_rounded_down(lam, k):
    spec = SurfaceSpec(n=2, f=SingularFunctionSpec(lam=lam))
    for threshold in sorted({0, 1, k // 3, k // 2, k - 1, k, k + 5}):
        exact = _bound_fraction(lam, k, threshold)
        bound = projection_lower_bound(spec, k, threshold)
        assert bound <= exact < math.nextafter(bound, 2.0), (threshold, bound)
    # S is every cell: the graph projects onto the whole first axis alone
    assert projection_lower_bound(spec, k, k) == 1.0


def test_projection_lower_bound_at_the_cli_probe_and_deeper(surface_n2):
    # the CLI's probe (depth 40, eps 0.01) accepts the cells with at most 21 ones;
    # deeper, with the best threshold, the bound climbs towards the EMPR bound 2
    accepted = np.flatnonzero(salem_slopes(0.25, 40) < 0.01)
    assert accepted.tolist() == list(range(22))
    assert round(projection_lower_bound(surface_n2, 40, 21), 4) == 1.6804
    for k, threshold, total in ((40, 25, 1.905218), (52, 32, 1.942754), (100, 63, 1.991499),
                                (200, 126, 1.999805)):
        assert round(projection_lower_bound(surface_n2, k, threshold), 6) == total
    # a second certified route: the inscribed polyline is no longer than the curve
    bound, length = projection_lower_bound(surface_n2, 400, 252), length_binomial(400, 0.25)
    assert bound < 2.0 and length < 2.0
    assert abs(bound - length) < 1e-6


def test_projection_lower_bound_validation(surface_n2, surface_n3):
    with pytest.raises(DomainError, match="n = 2"):
        projection_lower_bound(surface_n3, 40, 21)
    for probe_depth, threshold in ((0, 1), (2.0, 1), (40, -1), (40, 1.5), (40, True)):
        with pytest.raises(ConfigurationError):
            projection_lower_bound(surface_n2, probe_depth, threshold)


def test_projection_degenerate_probe(identity_n2):
    # huge eps accepts everything: the last-axis piece is the whole domain,
    # all other pieces are empty
    probe = SingularSetProbe(depth=10, eps=1e9)
    areas = projection_measures(identity_n2, probe, 8, 6, 2, seed=0)
    assert areas[2] == 1.0
    assert areas[1] == 0.0
    assert math.fsum(areas.values()) == 1.0


def test_projection_with_every_row_at_label_0_has_zero_areas(surface_n3):
    # eps below every depth-8 salem slope (the least is 2^-8 at lam 1/4): no
    # coordinate lies in the probed set, so every row has label 0 and no
    # area reads its marks
    probe = SingularSetProbe(depth=8, eps=1e-6)
    assert not classify_regions(surface_n3, probe, seeded_rng(3).random((1000, 2))).any()
    assert projection_measures(surface_n3, probe, 6, 5, 2, seed=0) == {1: 0.0, 2: 0.0, 3: 0.0}


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
    deep = "probe depth 60 exceeds spec depth 52"  # both name the probe's depth alike
    with pytest.raises(PrecisionError, match=deep):
        projection_measures(surface_n3, SingularSetProbe(depth=60), 6, 5, 2)
    with pytest.raises(PrecisionError, match=deep):
        classify_regions(surface_n3, SingularSetProbe(depth=60), np.full((3, 2), 0.5))
    with pytest.raises(BudgetError):
        projection_measures(surface_n3, probe, 10, 5, 3, budget=100)
    with pytest.raises(BudgetError, match=r"occupancy array of 3 x 2\^30 cells"):
        projection_measures(surface_n3, probe, 6, 15, 2)  # image array guard
    with pytest.raises(BudgetError, match=r"occupancy array of 3 x 2\^28 cells"):
        projection_measures(surface_n3, probe, 6, 14, 2)  # 3 axes of 2^28 cells
    with pytest.raises(BudgetError, match=r"2 x 2\^27 cells and a discard row"):
        projection_measures(SurfaceSpec(n=2, f=surface_n3.f), probe, 6, 27, 2)  # 2^28 + 2^27
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
    # chunks as large as the jitter blocks
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 1 << 21)
    assert [projection_measures(spec, probe, kd, ki, m, seed=2)
            for spec, kd, ki, m in cases] == areas


def test_projection_traced_peak_is_bounded(surface_n3):
    # 11.8 MB in chunks of one jitter block; about 2.4 MB in the default chunks;
    # the first call fills the kernels' cached tables before tracing starts
    probe = SingularSetProbe(depth=40, eps=0.01)
    projection_measures(surface_n3, probe, 3, 5, 1, seed=1)
    tracemalloc.start()
    try:
        projection_measures(surface_n3, probe, 8, 6, 3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


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


# ----------------------------------------------------------- draw errors


@pytest.mark.parametrize("side", ["draw", "mark"])
def test_projection_error_reaches_the_caller(surface_n2, monkeypatch, side):
    # a draw failing on the second jitter block, or a mark failing on the third
    # chunk, reaches the caller, and the sweep starts no thread.  A first, small sweep
    # fills the cached mark table, whose build also packs codes with _cell_codes
    probe = SingularSetProbe(depth=40, eps=0.01)
    projection_measures(surface_n2, probe, 2, 8, 1)
    marks = []

    def failing_jitter(seed, block):
        if block == 1:
            raise RuntimeError("draw failed")
        return _block_jitter(seed, block)

    def failing_codes(axes, depth):
        marks.append(depth)
        if len(marks) == 3:
            raise RuntimeError("mark failed")
        return _cell_codes(axes, depth)

    if side == "draw":
        monkeypatch.setattr(measure_module, "_block_jitter", failing_jitter)
    else:
        monkeypatch.setattr(measure_module, "_cell_codes", failing_codes)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{side} failed"):
        projection_measures(surface_n2, probe, 18, 8, 1)
    assert threading.active_count() == before


class ConstantJitter:
    """Stands in for a block's jitter generator: every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
def test_projection_survives_edge_draws(surface_n3, monkeypatch, u):
    # at corner 0 a draw of 0.0 gives the sample 0.0; on the last cell row a
    # draw within 2^(kd-54) of 1 rounds the sample to 1.0.  Both are clipped
    # into the open cube instead of failing the classification
    monkeypatch.setattr(measure_module, "_block_jitter", lambda seed, block: ConstantJitter(u))
    probe = SingularSetProbe(depth=40, eps=0.01)
    areas = projection_measures(surface_n3, probe, 3, 3, 1)
    assert list(areas) == [1, 2, 3]
    assert all(0.0 <= area <= 1.0 for area in areas.values())


def sweep_points(d, kd, m, seed):
    """The projection sweep's samples in row order: cell corners in flat-id
    order, each repeated on m^d rows, plus one draw of the first jitter block."""
    assert (1 << (kd * d)) <= JITTER_BLOCK
    corners = np.array(list(itertools.product(range(1 << kd), repeat=d)), dtype=np.float64)
    corners = np.repeat(corners, m**d, axis=0)
    pts = (corners + _block_jitter(seed, 0).random(corners.shape)) / float(1 << kd)
    return np.clip(pts, 2.0**-50, 1.0 - 2.0**-50)


def per_axis_reference(spec, probe, kd, ki, m, seed):
    """Projection areas rebuilt axis by axis over the sweep's samples: the image
    of piece i < n drops coordinate i and appends F, and its cells are counted
    in a set."""
    d, n = spec.domain_dim, spec.n
    pts = sweep_points(d, kd, m, seed)
    # piece labels from the membership masks, not from classify_regions
    outside = np.column_stack([~in_singular_set_many(spec.f, probe, pts[:, j]) for j in range(d)])
    labels = np.where(outside.sum(axis=1) == 1, outside.argmax(axis=1) + 1, 0)
    labels[~outside.any(axis=1)] = n
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


def test_projection_past_16_domain_dimensions_sends_every_lifted_row():
    # at n = 18 the F-cell table's boxes are depth-0 cells: its one box, the whole
    # cube, is open, so every lifted row goes to _F_cells
    spec = SurfaceSpec(n=18, f=SingularFunctionSpec())
    probe = SingularSetProbe(depth=40, eps=0.01)
    assert surface_module._F_cell_table(spec.f, 17, 0, 1).tolist() == [-1]
    expected, _ = per_axis_reference(spec, probe, 1, 1, 1, seed=4)
    assert projection_measures(spec, probe, 1, 1, 1, seed=4) == expected


def test_projection_evaluates_only_undecided_lifted_rows(surface_n3, monkeypatch):
    # 16384 rows in chunks of 512: F's cell comes off the depth-8 box table where the
    # box's bounds share a cell; _F_cells gets only the other lifted rows, held across
    # chunks and sent in batches of at most _CHUNK_ROWS rows, and evaluates a small
    # subset of them at full depth
    probe = SingularSetProbe(depth=40, eps=0.01)
    pts = sweep_points(2, 6, 2, seed=3)
    labels = classify_regions(surface_n3, probe, pts)  # apart from the sweep's own
    lifted = {tuple(row) for row in pts[(labels > 0) & (labels < 3)].tolist()}
    sent, evaluated = [], []

    def spy_cells(spec, cols, depth):
        sent.append(cols.T.copy())
        return F_cells(spec, cols, depth)

    def spy_values(spec, pts):
        evaluated.append(pts.copy())
        return surface_values(spec, pts)

    F_cells = measure_module._F_cells
    monkeypatch.setattr(measure_module, "_F_cells", spy_cells)
    monkeypatch.setattr(surface_module, "surface_values", spy_values)
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 1000)
    projection_measures(surface_n3, probe, 6, 5, 2, seed=3)
    assert 0 < len(sent) < 16384 // 512  # fewer calls than chunks
    for rows in sent + evaluated:
        assert len(rows) <= 1000
        assert {tuple(row) for row in rows.tolist()} <= lifted
    held, full = sum(map(len, sent)), sum(map(len, evaluated))
    assert 0 < full < held < len(lifted)
    assert full < len(lifted) / 10, (full, len(lifted))


def test_projection_sends_held_rows_before_a_batch_would_pass_the_chunk(surface_n2, monkeypatch):
    # every row is lifted (no cell has a slope under 1e-3), in chunks of 512 rows: a few
    # rows of the first chunk fall in open boxes of the depth-8 table, and every box of
    # the second is marked open, so the held rows are sent before the second chunk's 512
    # join them, and the areas do not move.  The sweep reads the open boxes off the mark
    # table, built here uncached from the patched F-cell table
    probe = SingularSetProbe(depth=8, eps=1e-3)
    want = projection_measures(surface_n2, probe, 10, 3, 1, seed=5)
    table = surface_module._F_cell_table(surface_n2.f, 1, 8, 3).copy()
    table[128:] = -1  # x from 1/2 on
    sent = []

    def spy_cells(spec, cols, depth):
        sent.append(cols.shape[1])
        return F_cells(spec, cols, depth)

    F_cells = measure_module._F_cells
    monkeypatch.setattr(measure_module, "_F_cell_table", lambda f, d, t, depth: table)
    monkeypatch.setattr(measure_module, "_mark_table", measure_module._mark_table.__wrapped__)
    monkeypatch.setattr(measure_module, "_F_cells", spy_cells)
    monkeypatch.setattr(measure_module, "_CHUNK_ROWS", 512)
    assert projection_measures(surface_n2, probe, 10, 3, 1, seed=5) == want
    assert len(sent) == 2 and 0 < sent[0] < 512 // 4 and sent[1] == 512, sent


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mark_table_holds_each_rows_code_on_each_box(n):
    # t = min(16 // d, 12), the sweep's at the default spec and probe; image depths 1..t,
    # where a box fixes every image cell, and t + 1, t + 2 past it.  Entry [r, box] is r's
    # code with each coordinate's image cell, its box cell shifted to the image depth (down,
    # or up with zero low digits), and F's cell in coordinate r's place on the piece rows r < d
    f, d = SingularFunctionSpec(), n - 1
    t = min(16 // d, 12)
    box = np.arange(1 << d * t)
    box_cells = [(box >> t * (d - 1 - j)) % (1 << t) for j in range(d)]
    for depth in range(1, t + 3):
        table = measure_module._mark_table(f, n, t, depth)
        F = surface_module._F_cell_table(f, d, t, depth).astype(np.int64)
        assert table.shape == (n + 1, box.size) and not table.flags.writeable
        # the narrowest signed type that holds -1 and the discard row's last code
        top = ((n + 1) << d * depth) - 1
        assert np.iinfo(table.dtype).min < 0 and np.iinfo(table.dtype).max >= top
        assert table.dtype == np.int8 or np.iinfo(f"int{4 * table.dtype.itemsize}").max < top
        assert 0 < np.count_nonzero(F < 0) < F.size
        for r in range(n + 1):
            cells = [c * 2**depth // 2**t for c in box_cells]
            if r < d:
                cells[r] = F
            want = r * 2 ** (d * depth) + sum(c * 2 ** (depth * (d - 1 - j))
                                               for j, c in enumerate(cells))
            if r < d:
                want[F < 0] = -1
            assert np.array_equal(table[r], want), (n, depth, r)
        assert table[d:].min() >= 0  # piece n's row and the discard row take no F


#: sweeps whose boxes and depth-12 enclosures often straddle an image-cell edge, so
#: many lifted rows reach ``_F_cells`` and full depth: (n, f, probe, kd, ki, m).  At image
#: depths up to the table depth t = min(16 // (n-1), 12, spec depth, probe width) a row's
#: mark is one entry of the mark table (n3-image8: t = 8, the deepest such); n2-image14,
#: n3-image9, n4-image8 and n5-image6 lie past t, where the image digits below the box's
#: are or-ed into that entry
_STRADDLE_CASES = {
    "n2-image14": (2, SingularFunctionSpec(), SingularSetProbe(), 10, 14, 2),
    "lam0.01": (2, SingularFunctionSpec(lam=0.01), SingularSetProbe(8, 1e-3), 10, 14, 2),
    "lam0.99": (2, SingularFunctionSpec(lam=0.99), SingularSetProbe(8, 1e-3), 10, 14, 2),
    "lam0.4": (2, SingularFunctionSpec(lam=0.4), SingularSetProbe(), 10, 14, 2),
    "depth10": (3, SingularFunctionSpec(depth=10), SingularSetProbe(8, 0.5), 6, 7, 2),
    "n3-image8": (3, SingularFunctionSpec(), SingularSetProbe(), 6, 8, 2),
    "n3-image9": (3, SingularFunctionSpec(), SingularSetProbe(), 6, 9, 2),
    "n4-image8": (4, SingularFunctionSpec(), SingularSetProbe(), 4, 8, 2),
    "n5-image6": (5, SingularFunctionSpec(), SingularSetProbe(), 3, 6, 2),
}


@pytest.mark.parametrize("case", list(_STRADDLE_CASES))
def test_projection_matches_per_axis_reference_where_cells_straddle(case):
    n, f, probe, kd, ki, m = _STRADDLE_CASES[case]
    spec = SurfaceSpec(n=n, f=f)
    expected, labels = per_axis_reference(spec, probe, kd, ki, m, seed=4)
    assert set(range(1, n + 1)) <= set(np.unique(labels))  # every piece occurs
    assert projection_measures(spec, probe, kd, ki, m, seed=4) == expected
