"""Numerical Hausdorff-measure machinery over dyadic grids.

Everything here reduces to counting occupied half-open dyadic cells:

* ``cover_estimate``  -- one normalised cover sum alpha(s) * N * diam^s,
* ``box_dimension``   -- log2 N(k) against k regression (box-counting slope),
* ``graph_length_n2`` -- inscribed polyline length of the planar graph,
* ``projection_measure`` / ``lower_bound_total`` -- area of coordinate
  projections of the graph pieces classified by the slope probe; summing
  them realises the projection lower-bound mechanism.

Counts are exact integers; length/area accumulations keep float error far
below the 1e-12 budget (per-chunk pairwise sums combined with exact fsum).
Sampling jitter comes from a counter-based generator keyed by the seed and
the cell block, so results do not depend on how the grid is partitioned.
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
#: ambient dimension, frozen by scripts/calibration_run.py
DIMENSION_WINDOWS = {2: (6, 14, 3), 3: (4, 9, 2)}

#: calibrated (domain_depth, image_depth, samples_per_cell) of the
#: projection sweep per ambient dimension, frozen by the same runs
PROJECTION_DEFAULTS = {2: (14, 10, 8), 3: (11, 6, 3)}


@dataclass(frozen=True)
class CoverEstimate:
    """One normalised cover sum: value = alpha(s) * count * delta^s."""

    s: float
    delta: float
    count: int
    value: float


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


@dataclass(frozen=True)
class ProjectionEstimate:
    """Occupied-cell area of one coordinate projection of a graph piece."""

    axis: int
    area: float
    probe: SingularSetProbe
    grid_depth: int


def alpha(s: float) -> float:
    """Volume of the s-dimensional ball of radius 1/2: pi^(s/2) / (2^s Gamma(s/2+1))."""
    if s < 0:
        raise DomainError(f"dimension parameter must be >= 0, got {s}")
    return math.pi ** (s / 2.0) / (2.0**s * math.gamma(s / 2.0 + 1.0))


def cover_sum(s: float, n: int, k: int, count: float) -> float:
    """alpha(s) * count * (2^-k sqrt(n))^s: the s-cover sum of ``count``
    depth-k cells of [0,1]^n."""
    delta = 2.0**-k * math.sqrt(n)
    return alpha(s) * count * delta**s


def _offset_grid(samples_per_cell: int, dim: int) -> np.ndarray:
    """Per-cell sample offsets: the (m+1)^dim lattice j/m including all corners.

    Doubling m refines this lattice in place (old offsets are kept), which
    makes occupied-cell counts monotone under sample refinement.
    """
    offs = np.arange(samples_per_cell + 1, dtype=np.float64) / samples_per_cell
    grids = np.meshgrid(*([offs] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _grid_walk(depth: int, dim: int, per_cell: int, block: int,
               budget: int) -> Iterator[np.ndarray]:
    """Integer corners (cells, dim) of the depth-``depth`` grid of [0,1]^dim in
    flat-id order, ``block`` cells at a time.  The id guard and the budget
    charge of ``per_cell`` evaluations per cell run at the call, not lazily."""
    if depth * dim > 62:
        raise BudgetError("domain grid overflows 64-bit cell ids")
    n_cells = 1 << (depth * dim)
    check_budget(n_cells * per_cell, budget)
    shifts = depth * np.arange(dim - 1, -1, -1, dtype=np.int64)
    mask = (1 << depth) - 1
    return ((np.arange(start, min(start + block, n_cells), dtype=np.int64)[:, None] >> shifts)
            & mask for start in range(0, n_cells, block))


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

    The domain grid at ``domain_depth`` is swept cell by cell; each cell is
    sampled on the corner-including offset lattice and the image cells of
    the lifted points are marked at the same depth.
    """
    if domain_depth < 1 or samples_per_cell < 1:
        raise DomainError("domain_depth and samples_per_cell must be >= 1")
    d = spec.domain_dim
    if domain_depth * spec.n > 62:
        raise BudgetError(f"grid depth {domain_depth} in dimension {spec.n} "
                          "overflows 64-bit cell codes")
    n_off = (samples_per_cell + 1) ** d
    blocks = _grid_walk(domain_depth, d, n_off, max(1, _CHUNK_ROWS // n_off), budget)
    offsets = _offset_grid(samples_per_cell, d)
    scale = float(1 << domain_depth)
    seen: list[np.ndarray] = []
    for corners in blocks:
        coords = (corners[:, None, :] + offsets[None, :, :]) / scale
        pts = np.clip(coords.reshape(-1, d), _EDGE, 1.0 - _EDGE)
        F = surface_values(spec, pts)
        ambient = np.concatenate([pts, F[:, None]], axis=1)
        seen.append(np.unique(_mark_codes(ambient, domain_depth)))
    return int(np.unique(np.concatenate(seen)).size)


def cover_estimate(
    spec: SurfaceSpec,
    s: float,
    k: int,
    samples_per_cell: int,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> CoverEstimate:
    """Grid cover sum at one resolution: alpha(s) * N * (2^-k sqrt(n))^s.

    The grid restricts the infimum over arbitrary covers, so single values
    overestimate; trends over k carry the meaning.
    """
    count = occupied_cell_count(spec, k, samples_per_cell, budget=budget)
    delta = 2.0**-k * math.sqrt(spec.n)
    return CoverEstimate(s=s, delta=delta, count=count, value=cover_sum(s, spec.n, k, count))


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
    if k_min < 1 or samples_per_cell < 1:
        raise DomainError("domain_depth and samples_per_cell must be >= 1")
    depths = list(range(k_min, k_max + 1))
    d = spec.domain_dim
    check_budget(sum((1 << (k * d)) * (samples_per_cell + 1) ** d for k in depths), budget)
    counts = [occupied_cell_count(spec, k, samples_per_cell, budget=budget) for k in depths]
    ks = np.asarray(depths, dtype=np.float64)
    logs = np.log2(np.asarray(counts, dtype=np.float64))
    slope, intercept = np.polyfit(ks, logs, 1)
    ss_res = float(np.sum((logs - (intercept + slope * ks)) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DimensionEstimate(slope=float(slope), intercept=float(intercept), r2=r2,
                             depths=tuple(depths), counts=tuple(counts))


def extrapolated_cover_value(
    spec: SurfaceSpec,
    s: float,
    k_min: int,
    k_max: int,
    samples_per_cell: int,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> float:
    """Cover value at the finest depth read off the fitted count trend.

    Fits log2 N(k) over the window and evaluates alpha(s) * N_fit * diam^s
    at k_max, smoothing single-grid noise out of upper-bound checks.
    """
    est = box_dimension(spec, k_min, k_max, samples_per_cell, budget=budget)
    return cover_sum(s, spec.n, k_max, est.fitted_count(k_max))


def graph_length_n2(spec: SurfaceSpec, k: int, budget: int = DEFAULT_EVAL_BUDGET) -> float:
    """Inscribed polyline length of the planar graph over the depth-k partition.

    Endpoint evaluations are exact (dyadic inputs of depth <= k terminate),
    so the result is the exact polygonal length up to summation rounding.
    Nondecreasing in k; converges upward to the length of the graph.
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
    step = _CHUNK_ROWS
    for start in range(0, 1 << k, step):
        stop = min(start + step, 1 << k)
        xs = np.arange(start, stop + 1, dtype=np.float64) * dx
        f, _ = evaluate_many(spec.f, xs)
        df = np.diff(f)
        pieces.append(float(np.sum(np.sqrt(dx * dx + df * df))))
    return math.fsum(pieces)


def _block_jitter(seed: int, block_index: int, n_cells: int, per_cell: int, dim: int) -> np.ndarray:
    """Stratified jitter for one block of cells, keyed by (seed, block)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random((n_cells, per_cell, dim))


def _projection_sweep(
    spec: SurfaceSpec,
    probe: SingularSetProbe,
    axes: list[int],
    domain_depth: int,
    image_depth: int,
    samples_per_cell: int,
    seed: int,
    budget: int,
) -> dict[int, float]:
    """Classify jittered domain samples into the B-pieces and mark their
    projected graph images; one pass serves every requested axis.  Returns
    the occupied image area per axis."""
    d = spec.domain_dim
    n = spec.n
    if probe.depth > spec.f.depth:
        raise PrecisionError(f"probe depth {probe.depth} exceeds spec depth {spec.f.depth}")
    for axis in axes:
        if not 1 <= axis <= n:
            raise DomainError(f"projection axis must lie in 1..{n}, got {axis}")
    if domain_depth < 1 or image_depth < 1 or samples_per_cell < 1:
        raise DomainError("depths and samples_per_cell must be >= 1")
    img_dim = n - 1
    if image_depth * img_dim > 28:
        raise BudgetError("image occupancy array would exceed the memory guard")
    per_cell = samples_per_cell**d
    blocks = _grid_walk(domain_depth, d, per_cell, JITTER_BLOCK, budget)
    occupancy = {axis: np.zeros(1 << (image_depth * img_dim), dtype=bool) for axis in axes}
    scale = float(1 << domain_depth)
    for block_index, corners in enumerate(blocks):
        jit = _block_jitter(seed, block_index, len(corners), per_cell, d)
        pts = ((corners[:, None, :] + jit) / scale).reshape(-1, d)
        labels = classify_regions(spec, probe, pts)
        for axis in axes:
            image = pts[labels == axis]
            if axis < n:  # drop coordinate axis, append F
                F = surface_values(spec, image)
                image = np.concatenate([image[:, : axis - 1], image[:, axis:], F[:, None]], axis=1)
            if len(image):
                occupancy[axis][_mark_codes(image, image_depth)] = True
    cell_area = (2.0**-image_depth) ** img_dim
    return {axis: float(occupancy[axis].sum()) * cell_area for axis in axes}


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


def projection_measure(
    spec: SurfaceSpec,
    axis: int,
    probe: SingularSetProbe,
    domain_depth: int,
    image_depth: int,
    samples_per_cell: int,
    seed: int = 0,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> ProjectionEstimate:
    """Area estimate of one coordinate projection of its graph piece."""
    areas = _projection_sweep(
        spec, probe, [axis], domain_depth, image_depth, samples_per_cell, seed, budget
    )
    return ProjectionEstimate(axis=axis, area=areas[axis], probe=probe, grid_depth=image_depth)


def projection_measures(
    spec: SurfaceSpec,
    probe: SingularSetProbe,
    domain_depth: int,
    image_depth: int,
    samples_per_cell: int,
    seed: int = 0,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> list[ProjectionEstimate]:
    """All n axis projections from a single shared sample sweep."""
    axes = list(range(1, spec.n + 1))
    areas = _projection_sweep(
        spec, probe, axes, domain_depth, image_depth, samples_per_cell, seed, budget
    )
    return [
        ProjectionEstimate(axis=a, area=areas[a], probe=probe, grid_depth=image_depth)
        for a in axes
    ]


def lower_bound_total(
    spec: SurfaceSpec,
    probe: SingularSetProbe,
    domain_depth: int,
    image_depth: int,
    samples_per_cell: int,
    seed: int = 0,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> float:
    """Sum of the n projection areas; approaches n as resolution grows."""
    estimates = projection_measures(
        spec, probe, domain_depth, image_depth, samples_per_cell, seed, budget
    )
    return math.fsum(e.area for e in estimates)
