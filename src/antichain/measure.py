"""Numerical Hausdorff-measure machinery over dyadic grids.

Everything here reduces to counting occupied half-open dyadic cells:

* ``occupied_cell_count`` -- N(k), the occupied cells of one depth-k sweep;
  ``cover_sum`` turns a count into the cover sum alpha(s) * N * diam^s,
* ``box_dimension``   -- log2 N(k) against k regression (box-counting slope);
  its counts and fitted trend feed ``cover_sum`` without a second sweep,
* ``graph_length_n2`` -- inscribed polyline length of the planar graph,
* ``projection_measures`` -- ``{axis: area}`` of the n coordinate projections
  of the slope probe's graph pieces from one sweep, F taking the place of
  coordinate i on piece i < n; the ``math.fsum`` of the areas is the sampled total.

Counts are exact integers; length/area accumulations keep float error far
below the 1e-12 budget (per-chunk pairwise sums combined with exact fsum).
Both sweeps walk one grid in chunks of at most ``_CHUNK_ROWS`` rows; jitter comes
from a generator keyed by seed and cell block, so results do not depend on the chunks.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DEFAULT_EVAL_BUDGET,
    BudgetError,
    DomainError,
    InsufficientDataError,
    PrecisionError,
    check_budget,
)
from .singular import SingularSetProbe, digit_words, evaluate_many, in_singular_set_many
from .surface import SurfaceSpec, surface_values

#: cells per jitter block; a fixed constant that is part of the sampling
#: definition (jitter for a cell depends only on seed, block, in-block row)
JITTER_BLOCK = 2**17

#: sample rows processed per vectorised chunk
_CHUNK_ROWS = 2**21

#: domain coordinates are pulled this far inside the open cube before
#: evaluation; far below any cell width in use
_EDGE = 2.0**-50

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


def _grid_walk(side: int, dim: int, per_point: int, block: int,
               budget: int) -> Iterator[tuple[int, np.ndarray]]:
    """Integer coordinates of the side^dim grid in flat-id order, each point
    repeated on ``per_point`` consecutive rows, as (first row, (rows, dim))
    blocks of ``block`` rows.  The budget charge of one evaluation per row and
    the 64-bit row-id guard run at the call, not lazily."""
    rows = side**dim * per_point
    check_budget(rows, budget)
    if rows > 2**62:
        raise BudgetError("domain grid overflows 64-bit row ids")

    def blocks() -> Iterator[tuple[int, np.ndarray]]:
        for start in range(0, rows, block):
            ids = np.arange(start, min(start + block, rows), dtype=np.int64) // per_point
            out = np.empty((len(ids), dim), dtype=np.int64)
            for j in range(dim - 1, -1, -1):
                np.remainder(ids, side, out=out[:, j])
                ids //= side
            yield start, out

    return blocks()


def _check_code_bits(depth: int, dim: int) -> None:
    """Depth-``depth`` cell codes of the ``dim``-cube must fit 64-bit integers;
    checked before any ``1 << depth`` is built."""
    if depth * dim > 62:
        raise BudgetError(f"grid depth {depth} in dimension {dim} overflows 64-bit cell codes")


def _checked_cover_side(spec: SurfaceSpec, depth: int, samples_per_cell: int) -> int:
    """Points per axis of the cover's lattice, after the cover's argument
    checks; a sweep evaluates side**domain_dim."""
    if depth < 1 or samples_per_cell < 1:
        raise DomainError("domain_depth and samples_per_cell must be >= 1")
    _check_code_bits(depth, spec.n)
    return (samples_per_cell << depth) + 1


def _mark_codes(points: np.ndarray, depth: int) -> np.ndarray:
    """Linear half-open cell codes of ambient points in [0,1]^dim, one axis at a time."""
    lin = np.zeros(len(points), dtype=np.int64)
    for j in range(points.shape[1]):
        lin <<= depth
        lin |= np.minimum(digit_words(points[:, j], depth), (1 << depth) - 1)  # 1 -> last cell
    return lin


def occupied_cell_count(
    spec: SurfaceSpec,
    domain_depth: int,
    samples_per_cell: int,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> int:
    """Number of ambient grid cells hit by sampled graph points.

    Each domain cell at ``domain_depth`` is sampled at the offsets j/m,
    corners included; the lattice they form is swept once per point and the
    image cells of the lifted points are marked at the same depth.  The 2m
    lattice contains the m lattice, so counts cannot drop when m doubles.
    """
    side = _checked_cover_side(spec, domain_depth, samples_per_cell)
    blocks = _grid_walk(side, spec.domain_dim, 1, _CHUNK_ROWS, budget)
    i, m = np.arange(side), samples_per_cell  # point i: cell i // m, offset (i % m) / m
    axis = np.clip((i // m + (i % m) / m) / float(1 << domain_depth), _EDGE, 1.0 - _EDGE)
    seen: list[np.ndarray] = []
    for _, ids in blocks:
        pts = axis[ids]
        ambient = np.column_stack([pts, surface_values(spec, pts)])
        seen.append(np.unique(_mark_codes(ambient, domain_depth)))
    return int(np.unique(np.concatenate(seen)).size)


def box_dimension(
    spec: SurfaceSpec,
    k_min: int,
    k_max: int,
    samples_per_cell: int,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> DimensionEstimate:
    """Box-counting dimension estimate of the graph over a depth window; the
    budget caps the evaluations of all the window's sweeps together."""
    if k_max - k_min + 1 < 3:
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

    Exact up to summation rounding for salem, whose dyadic endpoint values are
    exact; other kinds only within their truncation bounds (minkowski's reach
    2^-61 at some dyadics).  Nondecreasing in k; converges upward to the graph's length.
    """
    if spec.n != 2:
        raise DomainError(f"polyline length is defined for n = 2, got n = {spec.n}")
    if k < 1:
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
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
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
    sweep: jittered samples are classified into the B-pieces, F takes the
    place of coordinate i on piece i < n, and piece i's image is marked for axis i."""
    d, n = spec.domain_dim, spec.n
    if probe.depth > spec.f.depth:
        raise PrecisionError(f"probe depth {probe.depth} exceeds spec depth {spec.f.depth}")
    if domain_depth < 1 or image_depth < 1 or samples_per_cell < 1:
        raise DomainError("depths and samples_per_cell must be >= 1")
    if image_depth * d > 28:
        raise BudgetError("image occupancy array would exceed the memory guard")
    _check_code_bits(domain_depth, d)
    per_cell = samples_per_cell**d
    # power-of-two chunks of rows tile the jitter blocks of JITTER_BLOCK cells
    chunk = 1 << (min(_CHUNK_ROWS, JITTER_BLOCK).bit_length() - 1)
    block_rows = JITTER_BLOCK * per_cell
    blocks = _grid_walk(1 << domain_depth, d, per_cell, chunk, budget)
    occupancy = np.zeros((n, 1 << (image_depth * d)), dtype=bool)
    for first, corners in blocks:
        if first % block_rows == 0:
            jitter = _block_jitter(seed, first // block_rows)
        pts = (corners + jitter.random(corners.shape)) / float(1 << domain_depth)
        labels = classify_regions(spec, probe, pts)
        # F in place of x_i reorders piece i's image (x_-i, F) by a fixed
        # permutation of coordinates, which maps image cells one to one
        lift = np.flatnonzero((labels > 0) & (labels < n))
        pts[lift, labels[lift] - 1] = surface_values(spec, pts[lift])
        hit = labels > 0
        occupancy[labels[hit] - 1, _mark_codes(pts, image_depth)[hit]] = True
    cell_area = (2.0**-image_depth) ** d
    return {axis: float(occupancy[axis - 1].sum()) * cell_area for axis in range(1, n + 1)}


def classify_regions(
    spec: SurfaceSpec, probe: SingularSetProbe, points: np.ndarray
) -> np.ndarray:
    """B-piece label per domain point: 1..n-1, n, or 0 for none.

    A point belongs to piece i < n when exactly coordinate i falls outside
    the probed set, to piece n when no coordinate does, and to no piece
    otherwise; the pieces partition their union by construction.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != spec.domain_dim:
        raise DomainError(f"expected points of dimension {spec.domain_dim}")
    outside = [
        ~in_singular_set_many(spec.f, probe, points[:, j]) for j in range(spec.domain_dim)
    ]
    count = sum(o.astype(np.int8) for o in outside)
    labels = np.where(count == 0, spec.n, 0)
    only_one = count == 1
    for i, out in enumerate(outside, start=1):
        labels[only_one & out] = i
    return labels
