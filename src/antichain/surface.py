"""The monotone map p, the surface F, and the antichain checks.

``p`` maps the open cube (0,1)^m onto (0,1): sort the coordinates, multiply
all but the largest into P, call the largest M, and return P/(1 - M + P)
(for m = 1 it is the identity).  It is strictly increasing in every
coordinate and permutation symmetric.

``F(x) = 1 - p(f(x_1), ..., f(x_{n-1}))`` composes p with a strictly
increasing singular function f, so F is strictly *decreasing* along every
coordinate; its graph in [0,1]^n therefore contains no two comparable
points.

The same monotonicity certifies the numbers (an interval enclosure, Moore,
*Interval Analysis*, 1966).  Each f value is known to within the kernel's
rounding below it and its truncation bound plus that rounding above it, so
``surface_enclosure`` evaluates
``1 - p`` at the upper and at the lower corner of that box, widened by p's
own rounding, and gets lo <= F <= hi.  Its two steps, the f box
(``_f_box``) and 1 - p at its corners (``_F_sides``, with no sort: a bound needs
p only to within its slack), are the only bound code.
``surface_values`` returns values alone for the estimators.  A comparable
pair is ``ordered_ok`` when the lower point's lo exceeds the upper point's
hi, a violation when the lower point's hi falls below the upper point's
lo, and within tolerance when the two enclosures overlap.

The scan's first pass and the projection sweep's first marks read one
shallow f box: the box at depth T = min(spec depth, 12), widened by 2^-44
of each corner, hundreds of ulps, so it holds the exact f and f as computed
at the spec's greater depth.  It is gathered by each coordinate's digit word
from per-cell tables built once per spec at the cell midpoints (at a cell's
left end, where the elementwise box is narrower, the table's box holds it),
by one kernel, ``_shallow_sides``, which reads F's bounds off its corners.
The projection's image cells of F take both bounds: they hold the exact F,
and F as ``surface_values`` computes it to within p's rounding, so where they,
widened by 2^-40, share a cell, so does F (``_shallow_cells``).  That decides
F's cell in three tiers: on whole boxes of depth-t domain cells, d t <= 16, in
a table built once per (f, d, t, image depth) from the same corner tables at
depth t (``_F_cell_table``); row by row on each point's own box at depth T
(``_F_cells``); and for the rows both leave open, from F at the spec's depth.

Pair verdicts are taken in two passes.  The first reads the points' digit
words and computes only what an ``ordered_ok`` verdict needs: lo of each
lower point, from the upper corner of its shallow box, and hi of each upper
point, from the lower corner, in one ``_shallow_sides`` call.  The pairs it
leaves not ok are enclosed in full at the spec's depth.  Every enclosure
contains the exact F, so a first-pass verdict is certified, and a deep box
lies inside the shallow one up to a few ulps of rounding: the full-depth
pass would confirm it.  A two-sided shallow pass could add only violations,
which no sound enclosure certifies for a comparable pair (F is strictly
decreasing).  The scan draws its points as 53-bit integers, takes their
digit words by a shift and makes doubles only for the second pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DEFAULT_EVAL_BUDGET, ConfigurationError, DomainError, check_budget, check_int
from .singular import SingularFunctionSpec, digit_words, evaluate_many

#: surface values are kept strictly inside (0,1) at float resolution
_ONE_BELOW = 1.0 - 2.0**-53
_ONE_ABOVE = 2.0**-1074

#: pairs per block of ``antichain_scan``; bounds its memory, not its verdicts.
#: At n = 5 a block's temporaries take about 2 MB, which stays in cache and,
#: with the CLI's fixed malloc thresholds, is reused from block to block
_SCAN_BLOCK = 2**12

#: depth of the shallow f boxes (the spec's own, if lower), gathered from
#: per-cell tables (2^12 cells, 64 KB of tables)
_TABLE_DEPTH = 12

#: relative widening of the shallow f box corners
_WIDEN = 2.0**-44

#: margin about F's shallow bounds in ``_shallow_cells``' cell decision; far above
#: the slack, under 2^-46, by which F as computed at full depth may lie outside them
_MARK_MARGIN = 2.0**-40

#: the boxes of ``_F_cell_table``: at most 2^16 entries, d t <= 16 (64 KB at int8),
#: built in slabs of 2^12 so that a slab's gathers and ``_F_sides`` stay small
_F_TABLE_BITS = 16
_F_TABLE_SLAB = 2**12


@dataclass(frozen=True)
class Point:
    """A point of an open unit cube; every coordinate strictly in (0,1)."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise DomainError("a point needs at least one coordinate")
        for c in coords:
            if not 0.0 < c < 1.0:
                raise DomainError(f"coordinate {c} outside the open interval (0,1)")

    @property
    def dim(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class SurfaceSpec:
    """Ambient dimension n plus the singular function generating F."""

    n: int
    f: SingularFunctionSpec

    def __post_init__(self) -> None:
        check_int("ambient dimension", self.n, 2)

    @property
    def domain_dim(self) -> int:
        return self.n - 1


def p_eval(x: Point) -> float:
    """Monotone map of the open cube onto (0,1): one row of ``p_many``."""
    return float(p_many(np.array([x.coords]))[0])


def p_many(vals: np.ndarray) -> np.ndarray:
    """p on each row of an (N, m) array of cube points, kept in (0,1);
    the identity when m = 1."""
    vals = np.asarray(vals, dtype=np.float64)
    if vals.ndim != 2 or not vals.shape[1]:
        raise DomainError("expected a 2-d array of row points with at least one coordinate")
    m = vals.shape[1]
    cols = list(vals.T)
    for rnd in range(m):  # odd-even transposition sort of the columns, m rounds
        for i in range(rnd % 2, m - 1, 2):
            lo, hi = cols[i], cols[i + 1]
            cols[i], cols[i + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    p = cols[0]
    for c in cols[1:-1]:  # ascending order fixes P's rounding: exact symmetry
        p = p * c
    if m > 1:
        p = p / (1.0 - cols[-1] + p)
    return np.clip(p, _ONE_ABOVE, _ONE_BELOW)


def _domain_points(spec: SurfaceSpec, points: np.ndarray) -> np.ndarray:
    """``points`` as an (N, n-1) float array of domain points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != spec.domain_dim:
        raise DomainError(f"expected points of dimension {spec.domain_dim}")
    return points


def _f_values(spec: SurfaceSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and its truncation bounds at an (N, n-1) array of domain points."""
    return evaluate_many(spec.f, _domain_points(spec, points))


def surface_from_f(fv: np.ndarray) -> np.ndarray:
    """F from an (N, n-1) array of f values: the one F kernel."""
    # at the corner M = 1, P = 0 p is 0/0; fmax turns that NaN into a value
    # inside the enclosure, which is [0, 1] there (see _enclose)
    with np.errstate(invalid="ignore"):
        return np.fmin(np.fmax(1.0 - p_many(fv), _ONE_ABOVE), _ONE_BELOW)


def _f_box(f: SingularFunctionSpec, fv: np.ndarray, fe: np.ndarray) -> tuple[np.ndarray, ...]:
    """Box (f_lo, f_hi) about the exact f from f values and their truncation bounds."""
    # The exact f lies within the cell rise (fe, correctly rounded) above the
    # exact truncated sum t, and t within rounding_ulps ulp(t) <= 2 spacing(fv)
    # of fv (the two can straddle a power of two).  The factor 1 + 2^-50 and
    # two spare spacings absorb the roundings of fe, r, fe + r and fv +- r
    # (each under u = 2^-53 relative, and u fv < spacing(fv)): no directed
    # rounding needed.
    r = np.spacing(fv)
    r *= 2 * f.rounding_ulps + 2
    up = fe * (1.0 + 2.0**-50)
    up += r
    f_hi = np.minimum(fv + up, 1.0)
    return np.maximum(fv - r, 0.0, out=r), f_hi


def _F_sides(corners: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of F from an (m, N) array of f box corners by coordinate: lo from
    columns [0, k), each an upper corner, and hi from the rest, each a lower corner."""
    # p is nondecreasing in every coordinate: 1 - p(f_hi) <= F <= 1 - p(f_lo).  M is the
    # running maximum, and P takes the lesser of M and each next column, so it ends as the
    # product of all but one largest value.  p's rounding (u = 2^-53, p <= 1): the m - 2
    # products of P (in any order), 1 - M, the sum and the quotient give at most (2m - 2) u
    # (3u if m = 2, 0 if m = 1) <= m 2^-52; the subtraction from the exact 1 -+ slack adds
    # u.  (m + 4) 2^-52 leaves room for second-order terms and underflow in P; fmax turns
    # the 0/0 at the corner M = 1, P = 0 into lo = 0.
    M, P = corners[0], None
    for c in corners[1:]:
        P = np.minimum(M, c) if P is None else np.multiply(P, np.minimum(M, c), out=P)
        M = np.maximum(M, c)
    slack = (len(corners) + 4) * 2.0**-52
    with np.errstate(invalid="ignore"):
        p = M if P is None else P / ((1.0 - M) + P)
    return np.fmax((1.0 - slack) - p[:k], 0.0), np.fmin((1.0 + slack) - p[k:], 1.0)


def _enclose(f: SingularFunctionSpec, fv: np.ndarray, fe: np.ndarray) -> tuple[np.ndarray, ...]:
    """Enclosure (lo, hi) of the exact F from f values and their truncation bounds."""
    f_lo, f_hi = _f_box(f, fv, fe)
    return _F_sides(np.concatenate([f_hi, f_lo]).T, len(fv))


def surface_values(spec: SurfaceSpec, points: np.ndarray) -> np.ndarray:
    """F over an (N, n-1) array of domain points."""
    fv, _ = _f_values(spec, points)
    return surface_from_f(fv)


def surface_enclosure(spec: SurfaceSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds (lo, hi) with lo <= F <= hi at each domain point."""
    fv, fe = _f_values(spec, points)
    return _enclose(spec.f, fv, fe)


def _table_depth(f: SingularFunctionSpec) -> int:
    """T, the depth of the shallow f boxes: the spec's, capped at ``_TABLE_DEPTH``."""
    return min(f.depth, _TABLE_DEPTH)


@functools.lru_cache(maxsize=64)
def _cell_boxes(f: SingularFunctionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Tables (f_lo, f_hi) of f at depth T (``_table_depth``): entry w is the
    f box at the midpoint of cell w, each corner widened by ``_WIDEN`` of
    itself.  f's value and bound are the same at every point of a cell, and
    hold f at its left end (``evaluate_many``)."""
    f = replace(f, depth=_table_depth(f))
    f_lo, f_hi = _f_box(f, *evaluate_many(f, (np.arange(1 << f.depth) + 0.5) / (1 << f.depth)))
    f_lo *= 1.0 - _WIDEN
    f_hi *= 1.0 + _WIDEN
    np.minimum(f_hi, 1.0, out=f_hi)
    for table in f_lo, f_hi:
        table.setflags(write=False)
    return f_lo, f_hi


def _shallow_sides(f: SingularFunctionSpec, words: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Bounds of F from the (d, M) depth-T digit words of M points by
    coordinate: lo at columns [0, k), from the upper corners of their shallow
    f boxes, and hi at [k, M), from the lower corners, gathered from
    ``_cell_boxes`` into one (d, M) array of ``_F_sides``' columns."""
    # The exact truncated f at a depth above T is f at a point of the depth-T
    # cell, so it lies in the unwidened box.  Its computed value is at most
    # 2 ulps off (``rounding_ulps``), inside the widening of 2^8 ulps.
    f_lo, f_hi = _cell_boxes(f)
    corners = np.empty(words.shape)
    corners[:, :k] = f_hi.take(words[:, :k])
    corners[:, k:] = f_lo.take(words[:, k:])
    return _F_sides(corners, k)


def _shallow_cells(f: SingularFunctionSpec, words: np.ndarray, depth: int) -> np.ndarray:
    """Depth-``depth`` cells of F, as digit words, on the boxes of the (d, N) depth-T
    digit words ``words`` (``_shallow_sides``), or -1 where they are open: F as
    ``surface_values`` computes it anywhere in a box lies in the box's cell when F's
    bounds there, widened by ``_MARK_MARGIN``, share a digit word (floor is monotone;
    lo, F >= 0 and the margin is under a cell, so truncation serves as floor)."""
    # p is nondecreasing and computed to within _F_sides' slack, so the computed F
    # lies within twice the slack of [lo, hi]; at the 0/0 corner M = 1, P = 0 it is
    # 2^-1074.  Two calls keep one _F_sides' temporaries live at a time.
    lo = _shallow_sides(f, words, words.shape[1])[0]
    codes = digit_words(_shallow_sides(f, words, 0)[1] + _MARK_MARGIN, depth)
    codes[digit_words(lo - _MARK_MARGIN, depth) != codes] = -1
    return codes


@functools.lru_cache(maxsize=16)
def _F_cell_table(f: SingularFunctionSpec, d: int, t: int, depth: int) -> np.ndarray:
    """``_shallow_cells`` of every box of d depth-t domain cells, t <= ``_table_depth``:
    entry w holds the box whose cell on axis j is digit j of w in base 2^t, first axis
    first, as ``_cell_codes`` packs them, in the narrowest signed type that holds -1 and
    the cells.  At t = T it reads ``_cell_boxes(f)``; built in slabs of ``_F_TABLE_SLAB``
    entries."""
    table = np.full(1 << d * t, -1, dtype=np.min_scalar_type(-(1 << depth)))
    if t:  # at t = 0 the one box is the whole cube, where F takes every value in (0, 1)
        f_t = f if t == _table_depth(f) else replace(f, depth=t)
        for start in range(0, table.size, _F_TABLE_SLAB):
            ids = np.arange(start, min(start + _F_TABLE_SLAB, table.size))
            words = np.stack([(ids >> t * (d - 1 - j)) & ((1 << t) - 1) for j in range(d)])
            table[start:start + ids.size] = _shallow_cells(f_t, words, depth)
    table.setflags(write=False)
    return table


def _F_cells(spec: SurfaceSpec, cols: np.ndarray, depth: int) -> np.ndarray:
    """Depth-``depth`` cells of F, as digit words, at the points of the open cube
    held by coordinate in the (n-1, N) array ``cols``: those of F as ``surface_values``
    computes it.  They are read off each point's depth-T box (``_shallow_cells``);
    only the rows whose box is open get ``surface_values``."""
    codes = _shallow_cells(spec.f, digit_words(cols, _table_depth(spec.f)), depth)
    todo = np.flatnonzero(codes < 0)
    codes[todo] = digit_words(surface_values(spec, cols.take(todo, axis=1).T), depth)
    return codes


def F_eval(spec: SurfaceSpec, x: Point) -> tuple[float, float]:
    """F(x) = 1 - p(f(x_1), ..., f(x_{n-1})), with the half-width of its
    enclosure about the value as error bound."""
    fv, fe = _f_values(spec, np.array([x.coords]))
    value = float(surface_from_f(fv)[0])
    lo, hi = _enclose(spec.f, fv, fe)
    return value, max(value - float(lo[0]), float(hi[0]) - value)


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of comparing two domain points on the surface.

    ``ordered_ok`` for comparable pairs whose F values are ordered the right
    way.  ``within_tolerance`` flags comparable pairs whose F enclosures
    overlap, so neither order is certified; equal points have overlapping
    enclosures: within tolerance.
    """

    verdict: str  # "incomparable" | "ordered_ok" | "violation"
    within_tolerance: bool = False


def _pair_verdicts(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified verdicts from the F enclosures of 2k rows: k lower points,
    then their k upper partners.  Returns the masks (ordered_ok, violation);
    a pair in neither is within tolerance."""
    k = len(lo) // 2
    return lo[:k] > hi[k:], hi[:k] < lo[k:]


def _certified_verdicts(spec: SurfaceSpec, words: np.ndarray, rows) -> tuple[np.ndarray, ...]:
    """The masks (ordered_ok, violation) of ``_pair_verdicts`` for k pairs from the
    (d, 2k) depth-T digit words of their points by coordinate, lower points in
    columns [0, k), upper in [k, 2k).  A pair is ok when ``_shallow_sides``' lo of
    its lower point exceeds hi of its upper one: both bound the exact F, so it is
    certified.  The pairs this leaves not ok are enclosed in full at the spec's
    depth, at the float rows that ``rows`` returns for their columns."""
    lo_lower, hi_upper = _shallow_sides(spec.f, words, words.shape[1] // 2)
    ok = lo_lower > hi_upper
    bad = np.zeros_like(ok)
    todo = np.flatnonzero(~ok)
    if todo.size:
        pairs = rows(np.concatenate([todo, todo + len(ok)]))
        ok[todo], bad[todo] = _pair_verdicts(*surface_enclosure(spec, pairs))
    return ok, bad


def check_antichain_pair(spec: SurfaceSpec, x: Point, y: Point) -> PairVerdict:
    """Check the defining property of the graph on one pair of points, with
    the verdicts of ``antichain_scan``."""
    if x.dim != y.dim or x.dim != spec.domain_dim:
        raise DomainError("points must both have the surface's domain dimension")
    lower = tuple(map(min, x.coords, y.coords))
    upper = tuple(map(max, x.coords, y.coords))
    if lower not in (x.coords, y.coords):  # neither point lies below the other
        return PairVerdict("incomparable")
    rows = np.array([lower, upper])
    words = digit_words(rows.T, _table_depth(spec.f))
    ok, bad = _certified_verdicts(spec, words, rows.__getitem__)
    if bad[0]:
        return PairVerdict("violation")
    return PairVerdict("ordered_ok", within_tolerance=not ok[0])


def _draw_block(bits: np.random.BitGenerator, d: int, k: int) -> np.ndarray:
    """The scan's next k pairs as a (d, 2k) int64 block of 53-bit integers v,
    each the double v 2^-53 that ``Generator.random`` makes of the same output:
    by coordinate, each pair's min in columns [0, k), its max in [k, 2k)."""
    raw = bits.random_raw(2 * d * k)
    raw >>= 11
    v = raw.view(np.int64).reshape(k, 2, d).transpose(1, 2, 0)  # (2, d, k): the two points
    block = np.empty((d, 2 * k), dtype=np.int64)
    np.minimum(v[0], v[1], out=block[:, :k])
    np.maximum(v[0], v[1], out=block[:, k:])
    return block


@dataclass(frozen=True)
class ScanResult:
    """Aggregate verdicts of a seeded batch comparability scan."""

    pairs: int
    ordered_ok: int
    within_tolerance: int
    violations: int


def antichain_scan(
    spec: SurfaceSpec, pairs: int, seed: int = 0, budget: int = DEFAULT_EVAL_BUDGET
) -> ScanResult:
    """Draw seeded random comparable pairs and count verdicts.

    The pairs follow the law of two iid uniform points of the open cube
    conditioned on being comparable.  Given x <= y, the density 2^d on
    {x <= y} factors over the coordinates, each pair (x_i, y_i) being
    uniform on {x_i <= y_i}: the law of (min, max) of two independent
    uniforms.  Both orders are equally likely, so the lower point is the
    per-coordinate min and the upper point the per-coordinate max of two
    uniform points, drawn directly with no rejection.

    Pairs are walked in blocks of ``_SCAN_BLOCK``, so memory does not grow
    with ``pairs``.  Pair i reads the 2d uniforms at positions [2di, 2d(i+1))
    of the Philox stream keyed by the seed, so the verdicts do not depend
    on the block size.  A block is held by coordinate as integers
    (``_draw_block``); a 0 becomes 2^-1074 as a double.  Equal points come
    up with probability about 2^(-53d); such a pair has overlapping
    enclosures and counts as within tolerance.

    Each block takes the shallow first pass and then, for the pairs it
    leaves not ok, the full enclosures at the spec's depth (see the module
    docstring); both bound the exact F, so every verdict is certified.
    ``budget`` counts full-depth surface evaluations, charged up front as
    two per pair, the most the full-depth pass can make; the shallow pass
    is not charged.
    """
    if check_int("pairs", pairs, None) < 1:
        raise ConfigurationError(f"a scan needs at least one pair, got {pairs}")
    check_budget(2 * pairs, budget)
    d = spec.domain_dim
    key = np.uint64(int(check_int("seed", seed, None)) & 0xFFFFFFFFFFFFFFFF)  # 64-bit semantics
    bits, shift = np.random.Philox(key=key), 53 - _table_depth(spec.f)
    ok = bad = 0
    for start in range(0, pairs, _SCAN_BLOCK):
        block = _draw_block(bits, d, min(_SCAN_BLOCK, pairs - start))
        ok_k, bad_k = _certified_verdicts(spec, block >> shift, lambda cols: np.maximum(
            block[:, cols].T * 2.0**-53, _ONE_ABOVE))  # random() < 1: no max exceeds _ONE_BELOW
        ok += int(np.count_nonzero(ok_k))
        bad += int(np.count_nonzero(bad_k))
    tol = pairs - ok - bad
    return ScanResult(pairs=pairs, ordered_ok=ok + tol, within_tolerance=tol, violations=bad)
