"""Numerical Hausdorff-measure machinery over dyadic grids.

Everything here reduces to counting occupied half-open dyadic cells:

* ``occupied_cell_count`` -- N(k), the occupied cells of one depth-k sweep
  (``lattice_surface``: F broadcast over row-major boxes of whole domain cells, at
  n >= 3 of the half lattice x_1 <= x_2; each box's distinct codes counted at once);
  ``cover_sum`` turns a count into the cover sum alpha(s) * N * diam^s,
* ``box_dimension``   -- log2 N(k) against k regression (box-counting slope; at n >= 3
  f once for the window); its counts and trend feed ``cover_sum`` without a second sweep,
* ``graph_length_n2`` -- inscribed polyline length of the planar graph,
* ``projection_measures`` -- ``{axis: area}`` of the n coordinate projections
  of the slope probe's graph pieces from one sweep, F taking the place of
  coordinate i on piece i < n; the ``math.fsum`` of the areas is the sampled total,
* ``projection_lower_bound`` -- at n = 2, a certified lower bound on the graph's
  length from the pieces over a ones-count class of dyadic cells, in exact sums.

The projection sweep takes each coordinate's digit word once, for the slope
probe (a ones count) and the marks.  F's image cell comes in three tiers, each
sound, so the marks and areas are those of evaluating every lifted row in full:
off ``surface._F_cell_table``, a cached table of F's cell on each box of depth-t
domain cells (t = min(16 // (n-1), 12, spec depth, probe width); 77% of the
boxes at n = 3, image depth 6); for the rows whose box is open, held across
chunks and sent to ``surface._F_cells`` once ``_CHUNK_ROWS // 4`` are held, off
F's bounds on their own depth-12 f boxes; and for the few rows those leave open,
F at the spec's depth.  One gather of ``_mark_table``, a cached table of flat
occupancy codes by occupancy row and box built on the F-cell table, marks each
row; past depth t the image digits below the box's cells, F's coordinate's
excepted, are or-ed into the code.

Counts are exact integers; length/area accumulations keep float error far
below the 1e-12 budget (per-chunk pairwise sums combined with exact fsum).  Both sweeps
hold at most ``_CHUNK_ROWS`` rows at a time; jitter comes from a generator keyed by
seed and cell block, so results do not depend on the chunks.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (DEFAULT_EVAL_BUDGET, BudgetError, DomainError, InsufficientDataError,
                     PrecisionError, check_budget, check_int)
from .singular import (SingularFunctionSpec, SingularSetProbe, _cylinder_numerators,
                       digit_words, evaluate_many, salem_slopes)
from .surface import (_F_TABLE_BITS, _F_TABLE_SLAB, SurfaceSpec, _domain_points, _F_cell_table,
                      _F_cells, _table_depth, surface_from_f)

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


def _slabs(side: int, dim: int, cell: int = 0, head: tuple = ()) -> Iterator[tuple]:
    """Row-major boxes of the side^dim lattice, (start, stop) per axis: as many whole rows as
    fit ``_CHUNK_ROWS`` points, else one row (``head``) split alike along the next axis.  The
    cover's walk (``cell`` = m) cuts only between domain cells, of m indices and m + 1 in the
    last (one may overfill a box), and starts axis 2 at each box's first row: x_1 <= x_2."""
    unit = max(cell, 1)
    last = side - unit - (cell > 0)  # the last cell's first index
    start = head[0][0] if cell and len(head) == 1 else 0
    while start < side:  # ``tail``, the axes after this one; the cover's axis 2 from ``start`` on
        tail = [(start if cell and not head else 0, side), *[(0, side)] * dim][:dim - len(head) - 1]
        per = math.prod(stop - lo for lo, stop in (*head, *tail))  # points per index
        stop = start + max(_CHUNK_ROWS // per // unit, 1) * unit
        if stop > last:  # the whole last cell, or a cut before it where that would overfill
            stop = side if start == last or (side - start) * per <= _CHUNK_ROWS else last
        box = (*head, (start, stop))
        yield from (_slabs(side, dim, cell, box) if tail and (stop - start) * per > _CHUNK_ROWS
                    else [(*box, *tail)])
        start = stop


def lattice_surface(spec: SurfaceSpec, side: int, axis: Callable[[np.ndarray], np.ndarray],
                    budget: int = DEFAULT_EVAL_BUDGET, cell: int = 0,
                    fa: np.ndarray | None = None) -> Iterator[tuple]:
    """(index vector per axis, F) on each box of ``_slabs(side, d, cell)`` over the lattice of
    axis values ``axis(np.arange(side))``, vector j along axis j of F's shape: f once per axis
    value (``fa`` if given; box by box at n = 2), F on the f values broadcast over the box,
    after the budget charge of one evaluation per point.  The cover's half lattice gives every
    F value: ``p_many`` sorts its columns, so F is bitwise symmetric under swapping x_1, x_2."""
    d = spec.domain_dim
    check_budget(side**d, budget)
    fa = evaluate_many(spec.f, axis(np.arange(side)))[0] if d > 1 and fa is None else fa

    def box(ranges: tuple) -> tuple[list[np.ndarray], np.ndarray]:
        idx = [np.arange(*r).reshape(-1, *(1,) * (d - 1 - j)) for j, r in enumerate(ranges)]
        fv = np.empty((d, *(stop - start for start, stop in ranges)))
        for j, i in enumerate(idx):  # at n = 2 the axis values are the box's points
            fv[j] = fa.take(i) if d > 1 else evaluate_many(spec.f, axis(i))[0]
        return idx, surface_from_f(fv.reshape(d, -1).T).reshape(fv.shape[1:])

    return (box(ranges) for ranges in _slabs(side, d, cell))


def _check_code_bits(depth: int, dim: int) -> None:
    """Depth-``depth`` cell codes of the ``dim``-cube must fit 64-bit integers;
    checked before any ``1 << depth`` is built."""
    if depth * dim > 62:
        raise BudgetError(f"grid depth {depth} in dimension {dim} overflows 64-bit cell codes")


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
    included.  The lattice they form is a product grid, swept in boxes of whole domain
    cells: f is evaluated once per axis value and F at most once per point, which the
    budget charges as one evaluation, and the image cells of the lifted points are marked
    at the same depth.  The 2m lattice contains the m lattice: counts cannot drop as m doubles.
    """
    return _cover_counts(spec, [domain_depth], samples_per_cell, budget)[0]


def _cover_counts(spec: SurfaceSpec, depths: Sequence[int], m: int, budget: int) -> list[int]:
    """``occupied_cell_count`` at each depth, after one budget charge for all the lattices.
    At n >= 3 f runs once on all their axes (``evaluate_many`` is elementwise); at n = 2,
    where the axis is the lattice, box by box.  A box holds whole domain cells, so the
    distinct codes of each box are final and are counted at once."""
    d = spec.domain_dim
    for k in depths:  # checked before any lattice size is summed
        if min(check_int("domain_depth", k, None), check_int("samples_per_cell", m, None)) < 1:
            raise DomainError("domain_depth and samples_per_cell must be >= 1")
        _check_code_bits(k, spec.n)
    sides = [(m << k) + 1 for k in depths]
    check_budget(sum(side**d for side in sides), budget)

    def axis(i: np.ndarray, k: int) -> np.ndarray:  # index i: cell i // m, offset (i % m) / m
        values = i % m / m
        values += i // m
        values /= float(1 << k)
        return np.clip(values, _EDGE, 1.0 - _EDGE, out=values)

    if d > 1:
        axes = [axis(np.arange(side), k) for k, side in zip(depths, sides)]
        fs = np.split(evaluate_many(spec.f, np.concatenate(axes))[0], np.cumsum(sides)[:-1])

    def distinct(codes: np.ndarray) -> int:
        codes = np.sort(codes, axis=None)
        return int(np.count_nonzero(codes[1:] != codes[:-1])) + (codes.size > 0)

    counts = [0] * len(sides)
    for t, (k, side) in enumerate(zip(depths, sides)):
        dtype = np.int32 if k * spec.n < 32 else np.int64  # int32 codes sort faster
        for idx, F in lattice_surface(spec, side, lambda i, k=k: axis(i, k), budget,
                                      m, fs[t] if d > 1 else None):
            # F's cell, ``digit_words`` cast straight to the code type, below the axes' cells
            codes = np.multiply(F, float(1 << k), out=F).astype(dtype)
            for j, ids in enumerate(idx):
                # axis value i lies in cell i // m, the last (1, clipped) in the last cell: the
                # float q + r/m stays below q + 1 while m q < 2^52, as in any lattice in memory
                codes |= np.minimum(ids // m, (1 << k) - 1).astype(dtype) << k * (d - j)
            # axis-2 indices below the box's axis-1 stop give each code and its mirror; past
            # them the codes count twice, their mirrors being in no box
            below = np.count_nonzero(idx[1] <= idx[0].max()) if d > 1 else len(codes)
            square, right = np.split(codes, [below], axis=min(d - 1, 1))
            counts[t] += distinct(square) + 2 * distinct(right)
            del idx, F, codes, square, right  # freed before the next box is evaluated
    return counts


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
    counts = _cover_counts(spec, depths, samples_per_cell, budget)
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
    # occupancy row by inside mask: piece i's row i - 1, where F takes x_i's place; label 0's
    # discard row n
    row = np.r_[n, :n].astype(np.int32).take(_label_table(n))
    occupancy = np.zeros((n + 1, 1 << bits), dtype=bool)
    t = min(_F_TABLE_BITS // d, _table_depth(spec.f), width)
    marks = _mark_table(spec.f, n, t, image_depth)
    low = max(image_depth - t, 0)  # image digits per coordinate below a row's depth-t box
    # per occupancy row, the image-code bits a row's own digits fill: all but F's field on
    # the piece rows r < d, whose F cell the table holds whole
    keep = np.full(n + 1, -1, dtype=np.int32)
    keep[:d] = ~((1 << image_depth) - 1 << image_depth * np.arange(d - 1, -1, -1))
    held = []  # (cols, rows) of lifted samples whose box is open, for one _F_cells call

    def mark(codes: np.ndarray) -> None:
        occupancy.reshape(-1)[codes.astype(np.intp)] = True  # faster than indexing's own cast

    def send() -> None:
        cols, rows = (np.concatenate(parts, axis=-1) for parts in zip(*held))
        held.clear()
        words = digit_words(cols, image_depth).astype(np.int32)
        words.reshape(-1)[np.arange(rows.size) + rows * rows.size] = (
            _F_cells(spec, cols, image_depth).astype(np.int32))
        mark(_cell_codes([rows, *words], image_depth))

    for first, cols in blocks:  # (d, rows), each coordinate contiguous
        if first % block_rows == 0:
            jitter = _block_jitter(seed, first // block_rows)
        cols += jitter.random(cols.shape[::-1]).T
        cols *= 1.0 / (1 << domain_depth)  # scaling by a power of two is exact
        np.clip(cols, _EDGE, 1.0 - _EDGE, out=cols)  # a draw can be 0.0 or round to 1.0
        words = digit_words(cols, width)
        rows = row.take(_inside_masks(spec, probe, words, width))
        words >>= width - t - low  # each coordinate's cell at the deeper of the two depths
        if low:  # the guard keeps every image code below 2^28
            image = _cell_codes(words.astype(np.int32), image_depth)
            image &= keep.take(rows)
            words >>= low
        codes = marks.take(_cell_codes([rows, *words], t))  # -1 where the box is open
        if low:  # an open box's -1 stays -1
            codes |= image
        todo = np.flatnonzero(codes < 0)
        if sum(part[1].size for part in held) + todo.size > _CHUNK_ROWS:
            send()
        held.append((cols.take(todo, axis=1), rows.take(todo)))
        mark(codes)  # a negative code marks from the end, in the discard row
        del cols, words, rows, codes, todo  # freed before a batch or the next chunk
        if sum(part[1].size for part in held) >= _CHUNK_ROWS // 4:
            send()
    if held:
        send()
    cell_area = (2.0**-image_depth) ** d
    return {axis: float(occupancy[axis - 1].sum()) * cell_area for axis in range(1, n + 1)}


@functools.lru_cache(maxsize=16)
def _mark_table(f: SingularFunctionSpec, n: int, t: int, image_depth: int) -> np.ndarray:
    """Flat occupancy code of each sample by its occupancy row r and its box of d = n - 1
    depth-t domain cells (``_F_cell_table`` order), as an (n + 1, 2^(d t)) table in the
    narrowest signed type: the ``_cell_codes`` of r and the box's image cells, each the box's
    cell shifted to the image depth (up past t, its low digits zero), with F's cell off
    ``_F_cell_table`` in coordinate r's place on the piece rows r < d, and -1 where that box
    is open.  Built in slabs of ``_F_TABLE_SLAB`` boxes."""
    d = n - 1
    cells = _F_cell_table(f, d, t, image_depth)
    table = np.empty((n + 1, cells.size), dtype=np.min_scalar_type(-((n + 1) << d * image_depth)))
    for start in range(0, cells.size, _F_TABLE_SLAB):
        box = np.arange(start, min(start + _F_TABLE_SLAB, cells.size))
        image = [((box >> t * (d - 1 - j)) & ((1 << t) - 1)) << image_depth >> t
                 for j in range(d)]
        F = cells[start:start + box.size]
        for r in range(n + 1):
            axes = [np.full(box.size, r), *image]
            if r < d:
                axes[1 + r] = F
            codes = _cell_codes(axes, image_depth)
            if r < d:
                codes[F < 0] = -1
            table[r, start:start + box.size] = codes
    table.setflags(write=False)
    return table


def projection_lower_bound(spec: SurfaceSpec, probe_depth: int, threshold: int) -> float:
    """Certified lower bound on the length (H^1) of the planar graph: with S the depth-k
    (``probe_depth``) dyadic cells holding at most ``threshold`` ones, the disjoint pieces
    over S and over the rest project 1-Lipschitz onto S and onto F's values there, so
    H^1 >= Leb(S) + 1 - mu(S), mu(S) the rise of f over S.  Exact binomial sums over the
    ones counts (``singular._cylinder_numerators``), rounded down; k may exceed 63.  At
    lam < 1/2 the cells the slope probe accepts are those of at most some ones count."""
    if spec.n != 2:
        raise DomainError(f"the projection lower bound is defined for n = 2, got n = {spec.n}")
    k = check_int("probe_depth", probe_depth, 1)
    counts = [math.comb(k, o) for o in range(min(check_int("threshold", threshold, 0), k) + 1)]
    nums, q_k = _cylinder_numerators(spec.f.lam, k)
    den = q_k << k  # the total, 1 + sum(counts) / 2^k - sum(counts * nums) / q^k, is num / den
    num = den + sum(counts) * q_k - (sum(c * m for c, m in zip(counts, nums)) << k)
    bound = num / den  # correctly rounded; one step down if that rounded up
    top, bottom = bound.as_integer_ratio()
    return bound if top * den <= num * bottom else math.nextafter(bound, 0.0)


def _label_table(n: int) -> np.ndarray:
    """Piece label by the bit mask of the inside coordinates (``_inside_masks``): n at the
    full mask, i at the full mask less bit i - 1, else 0 (masked writes would mispredict
    branches)."""
    d = n - 1
    if d > _LABEL_BITS:
        raise BudgetError(f"piece-label table of 2^{d} codes exceeds the 2^{_LABEL_BITS} guard")
    full = (1 << d) - 1
    label = np.zeros(1 << d, dtype=np.uint8)  # n <= _LABEL_BITS + 1
    label[full] = n
    label[full ^ (1 << np.arange(d))] = np.arange(1, d + 1)
    return label


def _inside_masks(spec: SurfaceSpec, probe: SingularSetProbe, words: np.ndarray,
                  width: int) -> np.ndarray:
    """Bit mask of the coordinates in the probed set at the points of the (d, N) digit
    words ``words`` at a depth ``width`` >= the probe's (the probe reads their ones
    counts): bit j is set when coordinate j's slope is below eps."""
    d = spec.domain_dim
    # the slope is monotone in the ones count (by the factor (1 - lam) / lam per one, and
    # rounding is monotone), so the counts the probe accepts run from accepted[0] to [-1]
    accepted = np.flatnonzero(salem_slopes(spec.f.lam, probe.depth) < probe.eps)
    masks = np.zeros(words.shape[1], dtype=np.min_scalar_type((1 << d) - 1))
    shift = width - probe.depth
    for j, w in enumerate(words if accepted.size else ()):
        count = np.bitwise_count(w >> shift if shift else w)
        count -= np.uint8(accepted[0])  # counts below the interval wrap past its span
        masks |= np.left_shift(count <= accepted[-1] - accepted[0], j, dtype=masks.dtype)
    return masks


def classify_regions(spec: SurfaceSpec, probe: SingularSetProbe, points: np.ndarray) -> np.ndarray:
    """B-piece label per domain point: 1..n-1, n, or 0 for none.

    A point belongs to piece i < n when exactly coordinate i falls outside
    the probed set, to piece n when no coordinate does, and to no piece
    otherwise; the pieces partition their union by construction (``_label_table``)."""
    points = _domain_points(spec, points)
    if probe.depth > spec.f.depth:
        raise PrecisionError(f"probe depth {probe.depth} exceeds spec depth {spec.f.depth}")
    if points.size and not (points.min() > 0.0 and points.max() < 1.0):
        raise DomainError("coordinates must lie in (0,1)")
    words = digit_words(points.T, probe.depth)
    return _label_table(spec.n).take(_inside_masks(spec, probe, words, probe.depth))
