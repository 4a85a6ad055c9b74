"""Numerical Hausdorff-measure machinery over dyadic grids.

Everything here reduces to counting occupied half-open dyadic cells:

* ``occupied_cell_count`` -- N(k), the occupied cells of one depth-k sweep
  (``lattice_surface``: F broadcast over row-major slabs, at n >= 3 of the half
  lattice x_1 <= x_2; sorted dedup carrying one band of codes from slab to slab);
  ``cover_sum`` turns a count into the cover sum alpha(s) * N * diam^s,
* ``box_dimension``   -- log2 N(k) against k regression (box-counting slope);
  its counts and fitted trend feed ``cover_sum`` without a second sweep,
* ``graph_length_n2`` -- inscribed polyline length of the planar graph,
* ``projection_measures`` -- ``{axis: area}`` of the n coordinate projections
  of the slope probe's graph pieces from one sweep, F taking the place of
  coordinate i on piece i < n; the ``math.fsum`` of the areas is the sampled total.

The projection sweep takes each coordinate's digit word once, for the slope
probe (a ones count) and the image cell.  A lifted row's image cell of F comes
from ``surface._F_cells``: read off F's bounds on its depth-12 f box where
they, widened by 2^-40, lie in one cell, else from F at the spec's depth (a
few percent of the rows), so the marks and areas are those of evaluating
every lifted row in full.

Counts are exact integers; length/area accumulations keep float error far
below the 1e-12 budget (per-chunk pairwise sums combined with exact fsum).  Both sweeps
hold at most ``_CHUNK_ROWS`` rows at a time; jitter comes from a generator keyed by
seed and cell block, so results do not depend on the chunks.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (DEFAULT_EVAL_BUDGET, BudgetError, DomainError, InsufficientDataError,
                     PrecisionError, check_budget, check_int)
from .singular import SingularSetProbe, digit_words, evaluate_many, salem_slopes
from .surface import SurfaceSpec, _domain_points, _F_cells, surface_from_f

#: cells per jitter block; a fixed constant that is part of the sampling
#: definition (jitter for a cell depends only on seed, block, in-block row)
JITTER_BLOCK = 2**17

#: sample rows processed per vectorised chunk.  Chunks of 2^15 rows keep a
#: chunk's working set at a few MB, cache-sized and reused from chunk to
#: chunk, while the per-call overhead of numpy stays small against the rows
_CHUNK_ROWS = 2**15

#: domain coordinates are pulled this far inside the open cube before
#: evaluation; far below any cell width in use
_EDGE = 2.0**-50

#: most domain coordinates ``classify_regions`` labels by a table lookup,
#: as many as the projection's occupancy guard allows
_LABEL_BITS = 23

#: calibrated (k_min, k_max, samples_per_cell) box-counting window per
#: ambient dimension, frozen by the runs in scripts/reproduce_headline.py
DIMENSION_WINDOWS = {2: (6, 14, 3), 3: (4, 9, 2)}

#: calibrated (domain_depth, image_depth, samples_per_cell) of the
#: projection sweep per ambient dimension, frozen by the same runs
PROJECTION_DEFAULTS = {2: (14, 10, 8), 3: (11, 6, 3)}


@dataclass(frozen=True)
class DimensionEstimate:
    """Least-squares slope of log2 N(k) against k, with fit quality and counts."""

    slope: float
    intercept: float
    r2: float
    depths: tuple[int, ...]
    counts: tuple[int, ...]

    def fitted_count(self, k: int) -> float:
        """N(k) read off the fitted trend: 2^(intercept + slope k)."""
        return 2.0 ** (self.intercept + self.slope * k)


def alpha(s: float) -> float:
    """Volume of the s-dimensional ball of radius 1/2: pi^(s/2) / (2^s Gamma(s/2+1))."""
    if s < 0:
        raise DomainError(f"dimension parameter must be >= 0, got {s}")
    return math.pi ** (s / 2.0) / (2.0**s * math.gamma(s / 2.0 + 1.0))


def cover_sum(s: float, n: int, k: int, count: float) -> float:
    """alpha(s) * count * (2^-k sqrt(n))^s: the s-cover sum of ``count``
    depth-k cells of [0,1]^n.  The grid restricts the infimum over arbitrary
    covers, so single values overestimate; trends over k carry the meaning."""
    delta = 2.0**-k * math.sqrt(n)
    return alpha(s) * count * delta**s


def _grid_walk(side: int, dim: int, per_point: int, block: int, budget: int) -> Iterator[tuple]:
    """Float coordinates of the side^dim grid in flat-id order, each point on ``per_point``
    consecutive rows, as (first row, (dim, rows)) blocks of ``block`` rows.  The budget
    charge of one evaluation per row and the 64-bit row-id guard run at the call."""
    rows = side**dim * per_point
    check_budget(rows, budget)
    if rows > 2**62:
        raise BudgetError("domain grid overflows 64-bit row ids")

    def coords(start: int) -> np.ndarray:
        stop = min(start + block, rows)
        first = start // per_point  # the points of the block, each divided once
        ids = np.arange(first, (stop - 1) // per_point + 1, dtype=np.int64)
        out = np.empty((dim, len(ids)))
        for j in range(dim - 1, -1, -1):
            rest = ids // side
            np.subtract(ids, rest * side, out=out[j])  # faster than np.remainder
            ids = rest
        if per_point > 1:  # a block may start and end inside a point's rows
            counts = np.full(out.shape[1], per_point)
            counts[0] -= start - first * per_point
            counts[-1] -= (first + out.shape[1]) * per_point - stop
            out = np.repeat(out, counts, axis=1)
        return out

    # no array is held across the yield: the caller's reference is the only one
    return ((start, coords(start)) for start in range(0, rows, block))


def _slabs(side: int, dim: int, half: bool, head: tuple = ()) -> Iterator[tuple]:
    """Row-major boxes of the side^dim lattice, (start, stop) per axis: as many whole rows
    as fit ``_CHUNK_ROWS`` points, else one row (``head``) split alike along the next axis."""
    start = head[0][0] if half and len(head) == 1 else 0
    while start < side:  # ``tail``, the axes after this one: if half, axis 2 from ``start`` on
        tail = [(start if half and not head else 0, side), *[(0, side)] * dim][:dim - len(head) - 1]
        per = math.prod(stop - lo for lo, stop in tail)  # points per index
        stop = min(start + max(_CHUNK_ROWS // per, 1), side)
        yield from (_slabs(side, dim, half, (*head, (start, stop))) if per > _CHUNK_ROWS
                    else [(*head, (start, stop), *tail)])
        start = stop


def lattice_surface(spec: SurfaceSpec, side: int, axis: Callable[[np.ndarray], np.ndarray],
                    budget: int = DEFAULT_EVAL_BUDGET, half: bool = False) -> Iterator[tuple]:
    """(index vector per axis, F) on each box of ``_slabs`` over the lattice of axis values
    ``axis(np.arange(side))``, vector j along axis j of F's shape: f once per axis value
    (box by box at n = 2), F on the f values broadcast over the box, after the budget
    charge of one evaluation per point.  ``half`` (n >= 3) gives every F value: ``p_many``
    sorts its columns, so F is bitwise symmetric under swapping x_1 and x_2."""
    d = spec.domain_dim
    check_budget(side**d, budget)
    fa = evaluate_many(spec.f, axis(np.arange(side)))[0] if d > 1 else None

    def box(ranges: tuple) -> tuple[list[np.ndarray], np.ndarray]:
        idx = [np.arange(*r).reshape(-1, *(1,) * (d - 1 - j)) for j, r in enumerate(ranges)]
        fv = np.empty((d, *(stop - start for start, stop in ranges)))
        for j, i in enumerate(idx):  # at n = 2 the axis values are the box's points
            fv[j] = fa.take(i) if d > 1 else evaluate_many(spec.f, axis(i))[0]
        return idx, surface_from_f(fv.reshape(d, -1).T).reshape(fv.shape[1:])

    return (box(ranges) for ranges in _slabs(side, d, half))


def _check_code_bits(depth: int, dim: int) -> None:
    """Depth-``depth`` cell codes of the ``dim``-cube must fit 64-bit integers;
    checked before any ``1 << depth`` is built."""
    if depth * dim > 62:
        raise BudgetError(f"grid depth {depth} in dimension {dim} overflows 64-bit cell codes")


def _checked_cover_side(spec: SurfaceSpec, depth: int, samples_per_cell: int) -> int:
    """Points per axis of the cover's lattice, after the cover's argument
    checks; a sweep evaluates side**domain_dim."""
    if min(check_int("domain_depth", depth, None),
           check_int("samples_per_cell", samples_per_cell, None)) < 1:
        raise DomainError("domain_depth and samples_per_cell must be >= 1")
    _check_code_bits(depth, spec.n)
    return (samples_per_cell << depth) + 1


def _cell_codes(axes: Sequence[np.ndarray], depth: int) -> np.ndarray:
    """Linear half-open cell codes from each axis's depth-``depth`` digit words,
    first axis first."""
    codes = axes[0].copy()
    for cells in axes[1:]:
        codes <<= depth
        codes |= cells
    return codes


def occupied_cell_count(spec: SurfaceSpec, domain_depth: int, samples_per_cell: int,
                        budget: int = DEFAULT_EVAL_BUDGET) -> int:
    """Number of ambient grid cells hit by sampled graph points.

    Each domain cell at ``domain_depth`` is sampled at the offsets j/m, corners
    included.  The lattice they form is a product grid: f is evaluated once per axis
    value and F at most once per point, which the budget charges as one evaluation, and
    the image cells of the lifted points are marked at the same depth.  The 2m lattice
    contains the m lattice, so counts cannot drop when m doubles.
    """
    side = _checked_cover_side(spec, domain_depth, samples_per_cell)
    d, k, m = spec.domain_dim, domain_depth, samples_per_cell
    dtype = np.int32 if k * spec.n < 32 else np.int64  # int32 codes sort faster

    def axis(i: np.ndarray) -> np.ndarray:  # point i: cell i // m, offset (i % m) / m
        values = i % m / m
        values += i // m
        values /= float(1 << domain_depth)
        return np.clip(values, _EDGE, 1.0 - _EDGE, out=values)

    def cells(ids: np.ndarray) -> np.ndarray:
        # axis value i lies in cell i // m, the last (1, clipped) in the last cell: the
        # float q + r/m stays below q + 1 while m q < 2^52, as in any lattice in memory
        return np.minimum(ids // m, (1 << k) - 1).astype(dtype, copy=False)

    def weight(codes: np.ndarray) -> int:  # a cell off the diagonal counts its mirror too
        a1, a2 = codes >> k * d, (codes >> k * (d - 1)) & ((1 << k) - 1)
        return np.count_nonzero(a2 >= a1) + np.count_nonzero(a2 > a1)

    count, band = 0, np.empty(0, dtype)
    for idx, F in lattice_surface(spec, side, axis, budget, half=d > 1):
        codes = digit_words(F, k).astype(dtype, copy=False)  # F's cell below the axes'
        for j, ids in enumerate(idx):
            codes |= cells(ids) << k * (d - j)
        codes = np.concatenate([band, codes.ravel()])
        codes.sort()
        codes = codes[np.concatenate([[True], codes[1:] != codes[:-1]])]  # the distinct ones
        # later boxes start at or past this box's last axis-1 cell: codes below it are final
        cut = codes.searchsorted(cells(idx[0].max()) << k * d)
        count += cut if d == 1 else weight(codes[:cut])
        band = codes[cut:].copy()
        del idx, F, codes  # freed before the next box is evaluated
    return int(count + (band.size if d == 1 else weight(band)))


def box_dimension(
    spec: SurfaceSpec,
    k_min: int,
    k_max: int,
    samples_per_cell: int,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> DimensionEstimate:
    """Box-counting dimension estimate of the graph over a depth window; the
    budget caps the evaluations of all the window's sweeps together."""
    if check_int("k_max", k_max, None) - check_int("k_min", k_min, None) + 1 < 3:
        raise InsufficientDataError("need at least 3 grid depths for a regression")
    depths = range(k_min, k_max + 1)
    # the checks stop a deep window before its lattice sizes are summed
    sides = [_checked_cover_side(spec, k, samples_per_cell) for k in depths]
    check_budget(sum(side**spec.domain_dim for side in sides), budget)
    counts = [occupied_cell_count(spec, k, samples_per_cell, budget=budget) for k in depths]
    ks = np.asarray(depths, dtype=np.float64)
    logs = np.log2(np.asarray(counts, dtype=np.float64))
    slope, intercept = np.polyfit(ks, logs, 1)
    ss_res = float(np.sum((logs - (intercept + slope * ks)) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DimensionEstimate(slope=float(slope), intercept=float(intercept), r2=r2,
                             depths=tuple(depths), counts=tuple(counts))


def graph_length_n2(spec: SurfaceSpec, k: int, budget: int = DEFAULT_EVAL_BUDGET) -> float:
    """Inscribed polyline length of the planar graph over the depth-k partition.

    Exact up to summation rounding: f's values at dyadic endpoints are exact.
    Nondecreasing in k; converges upward to the graph's length.
    """
    if spec.n != 2:
        raise DomainError(f"polyline length is defined for n = 2, got n = {spec.n}")
    if check_int("partition depth", k, None) < 1:
        raise DomainError("partition depth must be >= 1")
    if k > spec.f.depth:
        raise PrecisionError(f"partition depth {k} exceeds evaluation depth {spec.f.depth}")
    check_budget((1 << k) + 1, budget)
    dx = 2.0**-k
    pieces: list[float] = []
    # chunk endpoint evaluations; chunks overlap by one point to close gaps
    for start in range(0, 1 << k, _CHUNK_ROWS):
        xs = np.arange(start, min(start + _CHUNK_ROWS, 1 << k) + 1, dtype=np.float64) * dx
        f, _ = evaluate_many(spec.f, xs)
        df = np.diff(f)
        pieces.append(float(np.sum(np.sqrt(dx * dx + df * df))))
    return math.fsum(pieces)


def _block_jitter(seed: int, block_index: int) -> np.random.Generator:
    """Jitter generator of one block of cells, keyed by (seed, block); drawn
    cell by cell in flat-id order, in one piece or several alike."""
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def projection_measures(
    spec: SurfaceSpec,
    probe: SingularSetProbe,
    domain_depth: int,
    image_depth: int,
    samples_per_cell: int,
    seed: int = 0,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> dict[int, float]:
    """Occupied image area of each coordinate projection, axis 1..n, from one
    sweep: jittered samples are classified into the B-pieces, and each row is marked
    at the flat ``_cell_codes`` of its piece's occupancy row and its image cells, F's
    cell in coordinate i's place on piece i < n (unlabelled rows: a last, discard row)."""
    d, n = spec.domain_dim, spec.n
    if probe.depth > spec.f.depth:
        raise PrecisionError(f"probe depth {probe.depth} exceeds spec depth {spec.f.depth}")
    if min(check_int("domain_depth", domain_depth, None),
           check_int("image_depth", image_depth, None),
           check_int("samples_per_cell", samples_per_cell, None)) < 1:
        raise DomainError("depths and samples_per_cell must be >= 1")
    check_int("seed", seed, None)
    bits = image_depth * d  # code bits per axis; tested alone first, so n << bits stays small
    if bits > 28 or (n + 1) << bits > 1 << 28:
        raise BudgetError(f"image occupancy array of {n} x 2^{bits} cells and a discard row "
                          "exceeds the 2^28 guard")
    _check_code_bits(domain_depth, d)
    width = max(probe.depth, image_depth)  # at most 63: the spec's depth bounds the probe's
    per_cell = samples_per_cell**d
    # power-of-two chunks of rows tile the jitter blocks of JITTER_BLOCK cells
    chunk = 1 << (min(_CHUNK_ROWS, JITTER_BLOCK).bit_length() - 1)
    block_rows = JITTER_BLOCK * per_cell
    blocks = _grid_walk(1 << domain_depth, d, per_cell, chunk, budget)
    row = np.r_[n, :n].astype(np.int32)  # by label: piece i's row i - 1; label 0's discard row n
    occupancy = np.zeros((n + 1, 1 << bits), dtype=bool)

    for first, cols in blocks:  # (d, rows), each coordinate contiguous
        if first % block_rows == 0:
            jitter = _block_jitter(seed, first // block_rows)
        cols += jitter.random(cols.shape[::-1]).T
        cols *= 1.0 / (1 << domain_depth)  # scaling by a power of two is exact
        np.clip(cols, _EDGE, 1.0 - _EDGE, out=cols)  # a draw can be 0.0 or round to 1.0
        words = digit_words(cols, width)
        labels = _piece_labels(spec, probe, words, width)
        lift = np.flatnonzero((labels > 0) & (labels < n))
        words >>= width - image_depth  # now each coordinate's image cell; the guard
        words = words.astype(np.int32)  # keeps every image code below 2^28
        # F in place of x_i permutes piece i's image coordinates: image cells map one to one
        words[labels.take(lift) - 1, lift] = _F_cells(spec, cols.take(lift, axis=1), image_depth)
        codes = _cell_codes([row.take(labels), *words], image_depth)
        occupancy.reshape(-1)[codes.astype(np.intp)] = True  # faster than indexing's own cast
        del cols, words, labels, lift, codes  # freed before the next chunk is drawn
    cell_area = (2.0**-image_depth) ** d
    return {axis: float(occupancy[axis - 1].sum()) * cell_area for axis in range(1, n + 1)}


def _piece_labels(spec: SurfaceSpec, probe: SingularSetProbe, words: np.ndarray,
                  width: int) -> np.ndarray:
    """``classify_regions`` at the points of the (d, N) digit words ``words`` at a
    depth ``width`` >= the probe's (the probe reads their ones counts).  The bit
    mask of the inside coordinates indexes a table of labels, n at the full mask, i at
    the full mask less bit i - 1, else 0 (masked writes would mispredict branches)."""
    d = spec.domain_dim
    if d > _LABEL_BITS:
        raise BudgetError(f"piece-label table of 2^{d} codes exceeds the 2^{_LABEL_BITS} guard")
    full = (1 << d) - 1
    label = np.zeros(1 << d, dtype=np.uint8)  # n <= _LABEL_BITS + 1
    label[full] = spec.n
    label[full ^ (1 << np.arange(d))] = np.arange(1, d + 1)
    inside = (salem_slopes(spec.f.lam, probe.depth) < probe.eps).astype(np.int32)
    shift = width - probe.depth
    # take, not fancy indexing: indexing with bitwise_count's uint8 counts casts first
    masks = ((inside << j).take(np.bitwise_count(w >> shift if shift else w))
             for j, w in enumerate(words))
    code = next(masks)
    for mask in masks:
        code |= mask
    return label.take(code)


def classify_regions(spec: SurfaceSpec, probe: SingularSetProbe, points: np.ndarray) -> np.ndarray:
    """B-piece label per domain point: 1..n-1, n, or 0 for none.

    A point belongs to piece i < n when exactly coordinate i falls outside
    the probed set, to piece n when no coordinate does, and to no piece
    otherwise; the pieces partition their union by construction (``_piece_labels``)."""
    points = _domain_points(spec, points)
    if probe.depth > spec.f.depth:
        raise PrecisionError(f"probe depth {probe.depth} exceeds spec depth {spec.f.depth}")
    if points.size and not (points.min() > 0.0 and points.max() < 1.0):
        raise DomainError("coordinates must lie in (0,1)")
    return _piece_labels(spec, probe, digit_words(points.T, probe.depth), probe.depth)
