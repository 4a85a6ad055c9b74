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
*Interval Analysis*, 1966).  Each f value is known to within its truncation
bound plus the kernel's rounding, the bound above the value only where f
truncates from below (salem), so ``surface_enclosure`` evaluates
``1 - p`` at the upper and at the lower corner of that box, widened by p's
own rounding, and gets lo <= F <= hi.  Its two steps, the f box
(``_f_box``) and 1 - p at its corners (``_F_sides``), are the only bound code.
``surface_values`` returns values alone for the estimators.  A comparable
pair is ``ordered_ok`` when the lower point's lo exceeds the upper point's
hi, a violation when the lower point's hi falls below the upper point's
lo, and within tolerance when the two enclosures overlap.

Pair verdicts are taken in three passes.  The first, at depth 8 (or the
spec's depth, if lower), computes only what an ``ordered_ok`` verdict needs:
lo of each lower point, from the upper corner of its f box, and hi of each
upper point, from the lower corner, through one ``p_many`` over both.  For
salem those corners are gathered from two tables per spec, indexed by a
coordinate's depth-8 digit word and whether it is the left end of its cell;
each entry is the double the elementwise box would hold, so the verdicts
are bit for bit those of the full enclosures.  The pairs it leaves are
enclosed in full at that depth, and the pairs still undecided, neither
``ordered_ok`` nor a violation, at the spec's own depth.  An enclosure at
any depth contains the exact F, so a verdict certified at depth 8 is
certified.  A deep cell lies inside its depth-8 cell, so its f box lies
inside the depth-8 box up to a few ulps of rounding: a deep pass over
every pair would confirm each depth-8 verdict.

The projection sweep's first marks read f_lo and the inside f_hi entry of the
tables at 2^12 cells by digit word (``shallow_enclosure``), widened by 2^-44 of
each corner, hundreds of ulps: its bounds hold the exact F and F as
``surface_values`` computes it at the spec's greater depth, to within p's rounding.
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

#: depth of the first enclosure passes of the pair verdicts; only the pairs
#: they leave undecided are enclosed again at the spec's own depth
_SCAN_FIRST_DEPTH = 8

#: deepest salem spec whose f boxes are gathered from per-cell corner tables
#: (2^12 cells, 96 KB of tables)
_TABLE_DEPTH = 12

#: relative widening of the f box corners in ``shallow_enclosure``
_WIDEN = 2.0**-44


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
    if vals.ndim != 2:
        raise DomainError("expected a 2-d array of row points")
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


def _f_values(spec: SurfaceSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and its truncation bounds at an (N, n-1) array of domain points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != spec.domain_dim:
        raise DomainError(f"expected points of dimension {spec.domain_dim}")
    return evaluate_many(spec.f, points)


def surface_from_f(fv: np.ndarray) -> np.ndarray:
    """F from an (N, n-1) array of f values: the one F kernel."""
    # at the corner M = 1, P = 0 p is 0/0; fmax turns that NaN into a value
    # inside the enclosure, which is [0, 1] there (see _enclose)
    with np.errstate(invalid="ignore"):
        return np.fmin(np.fmax(1.0 - p_many(fv), _ONE_ABOVE), _ONE_BELOW)


def _f_box(f: SingularFunctionSpec, fv: np.ndarray, fe: np.ndarray) -> tuple[np.ndarray, ...]:
    """Box (f_lo, f_hi) about the exact f from f values and their truncation bounds."""
    # The exact f lies within the cell rise (fe, correctly rounded) of the
    # exact truncated sum t, above t only when f truncates from below, and t
    # within rounding_ulps ulp(t) <= 2 spacing(fv) of fv (the two can straddle
    # a power of two).  The factor 1 + 2^-50 and two spare spacings absorb the
    # roundings of fe, r, fe + r and fv +- r (each under u = 2^-53 relative,
    # and u fv < spacing(fv)): no directed rounding needed.
    r = np.spacing(fv)
    r *= 2 * f.rounding_ulps + 2
    up = fe * (1.0 + 2.0**-50)
    up += r
    f_hi = np.minimum(fv + up, 1.0)
    down = r if f.truncates_from_below else up
    return np.maximum(fv - down, 0.0, out=down), f_hi


def _F_sides(corners: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of F from rows of f box corners: lo from the first k rows, each
    an upper corner, and hi from the rest, each a lower corner."""
    # p is nondecreasing in every coordinate: 1 - p(f_hi) <= F <= 1 - p(f_lo).
    # p's rounding (u = 2^-53, p <= 1): the m - 2 products of P, 1 - M, the
    # sum and the quotient give at most (2m - 2) u (3u if m = 2, 0 if m = 1)
    # <= m 2^-52; p_many's clip and the subtraction from the exact 1 -+ slack
    # add u each.  (m + 4) 2^-52 leaves room for second-order terms and
    # underflow in P; fmax turns the 0/0 at the corner M = 1, P = 0 into lo = 0.
    slack = (corners.shape[1] + 4) * 2.0**-52
    with np.errstate(invalid="ignore"):
        p = p_many(corners)
    return np.fmax((1.0 - slack) - p[:k], 0.0), np.fmin((1.0 + slack) - p[k:], 1.0)


def _enclose(f: SingularFunctionSpec, fv: np.ndarray, fe: np.ndarray) -> tuple[np.ndarray, ...]:
    """Enclosure (lo, hi) of the exact F from f values and their truncation bounds."""
    f_lo, f_hi = _f_box(f, fv, fe)
    return _F_sides(np.concatenate([f_hi, f_lo]), len(fv))


def surface_values(spec: SurfaceSpec, points: np.ndarray) -> np.ndarray:
    """F over an (N, n-1) array of domain points."""
    fv, _ = _f_values(spec, points)
    return surface_from_f(fv)


def surface_enclosure(spec: SurfaceSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds (lo, hi) with lo <= F <= hi at each domain point."""
    fv, fe = _f_values(spec, points)
    return _enclose(spec.f, fv, fe)


def shallow_enclosure(spec: SurfaceSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) at an (N, n-1) array of points of the open cube that
    hold the exact F, and F as ``surface_values`` computes it for the spec to
    within twice ``_F_sides``' slack, from the f box at depth T = min(spec
    depth, ``_TABLE_DEPTH``) widened by 2^-44 of each corner; salem gathers
    it from the corner tables by the coordinates' depth-T digit words."""
    # The exact truncated f at a depth above T lies in the unwidened box: for
    # salem it is f at a point of the depth-T cell, for minkowski a later
    # partial sum, within the truncation bound.  Its computed value is at most
    # 63 ulps off (``rounding_ulps``), inside the widening of 2^8 ulps.  p is
    # nondecreasing and computed to within the slack, so that F lies within
    # twice the slack of [lo, hi]; at the 0/0 corner M = 1, P = 0 it is 2^-1074.
    f = replace(spec.f, depth=min(spec.f.depth, _TABLE_DEPTH))
    if f.truncates_from_below:
        f_hi, f_lo = _salem_corner_tables(f)
        w = digit_words(points.T, f.depth)  # (n-1, N): each coordinate contiguous
        f_lo, f_hi = f_lo.take(w).T, f_hi[1::2].take(w).T  # entry 2w + 1 holds f on cell w
    else:
        f_lo, f_hi = _f_box(f, *evaluate_many(f, points))
    f_lo *= 1.0 - _WIDEN
    f_hi *= 1.0 + _WIDEN
    lo = _F_sides(np.minimum(f_hi, 1.0, out=f_hi), len(f_hi))[0]
    del f_hi  # two calls over separate corners keep one p_many's temporaries live at a time
    return lo, _F_sides(f_lo, 0)[1]


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


@functools.lru_cache(maxsize=64)
def _salem_corner_tables(f: SingularFunctionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Corners of the f box per depth cell, for a salem f of depth at most
    ``_TABLE_DEPTH``: entry 2w of the f_hi table for x at the left end of
    cell w, entry 2w + 1 for x inside it, and entry w of the f_lo table for
    either.  Each entry is what ``_f_box`` makes of
    ``evaluate_many`` at the cell's left end or midpoint, so a gather returns
    the doubles of the elementwise path (the cell constancy in
    ``SingularFunctionSpec.truncates_from_below``)."""
    cells = np.arange(1 << f.depth) / float(1 << f.depth)
    ends = np.stack([cells, cells + 0.5 / (1 << f.depth)], axis=1)  # (left end, midpoint)
    f_lo, f_hi = _f_box(f, *evaluate_many(f, ends))
    tables = f_hi.ravel(), f_lo[:, 1].copy()
    for table in tables:
        table.setflags(write=False)
    return tables


def _salem_corners(f: SingularFunctionSpec, xs: np.ndarray, upper: bool) -> np.ndarray:
    """The upper (f_hi) or the lower (f_lo) corners of the f boxes of a salem
    f at the points ``xs`` of the open cube, gathered from
    ``_salem_corner_tables``; ``take`` raises past the tables, but a negative
    index would wrap."""
    f_hi, f_lo = _salem_corner_tables(f)
    t = xs * float(1 << f.depth)  # exact; floor(t) is the digit word w
    if not upper:
        return f_lo.take(t.astype(np.intp))
    index = np.floor(t)
    index += np.ceil(t, out=t)  # 2w at the left end of cell w, 2w + 1 inside it
    return f_hi.take(index.astype(np.intp))


def _first_pass_ok(spec: SurfaceSpec, rows: np.ndarray) -> np.ndarray:
    """The ordered_ok mask of ``_pair_verdicts`` for 2k rows, from one side of
    each enclosure: lo of the k lower rows, from the upper corners of their f
    boxes, and hi of the k upper rows, from the lower corners; one ``p_many``
    over the 2k stacked corners.  Salem gathers the corners from per-cell
    tables (``_salem_corners``)."""
    f, k = spec.f, len(rows) // 2
    if f.truncates_from_below:
        corners = np.concatenate([_salem_corners(f, rows[:k], upper=True),
                                  _salem_corners(f, rows[k:], upper=False)])
    else:
        f_lo, f_hi = _f_box(f, *evaluate_many(f, rows))
        corners = np.concatenate([f_hi[:k], f_lo[k:]])
    # An ok pair is no violation: lo <= hi on every row (the slack covers
    # p_many's rounding, and fmax and fmin turn the 0/0 corner into [0, 1]),
    # so hi_lower >= lo_lower > hi_upper >= lo_upper.
    lo_lower, hi_upper = _F_sides(corners, k)
    return lo_lower > hi_upper


def _certified_verdicts(spec: SurfaceSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masks (ordered_ok, violation) of ``_pair_verdicts`` for 2k rows:
    ``_first_pass_ok`` at depth ``_SCAN_FIRST_DEPTH`` (or the spec's, if
    lower), the full enclosures at that depth of the pairs it leaves not
    ok, then those of the pairs still undecided at the spec's depth."""
    first = SurfaceSpec(spec.n, replace(spec.f, depth=min(_SCAN_FIRST_DEPTH, spec.f.depth)))
    ok = _first_pass_ok(first, rows)
    bad = np.zeros_like(ok)
    for at in (first,) if first == spec else (first, spec):
        todo = np.flatnonzero(~(ok | bad))
        if todo.size:
            pairs = rows[np.concatenate([todo, todo + len(ok)])]
            ok[todo], bad[todo] = _pair_verdicts(*surface_enclosure(at, pairs))
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
    ok, bad = _certified_verdicts(spec, np.array([lower, upper]))
    if bad[0]:
        return PairVerdict("violation")
    return PairVerdict("ordered_ok", within_tolerance=not ok[0])


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
    on the block size.  Equal points come up with probability about
    2^(-53d); such a pair has overlapping enclosures and counts as within
    tolerance.

    Each block is enclosed first at depth ``_SCAN_FIRST_DEPTH`` and then,
    for the pairs those passes leave undecided, at the spec's depth (see
    the module docstring); an enclosure at either depth contains the exact
    F, so every verdict is certified.  ``budget`` counts full-depth surface
    evaluations, charged up front as two per pair, the most the full-depth
    pass can make; the depth-8 passes are not charged.
    """
    if check_int("pairs", pairs, None) < 1:
        raise ConfigurationError(f"a scan needs at least one pair, got {pairs}")
    check_budget(2 * pairs, budget)
    d = spec.domain_dim
    key = np.uint64(int(check_int("seed", seed, None)) & 0xFFFFFFFFFFFFFFFF)  # 64-bit semantics
    rng = np.random.Generator(np.random.Philox(key=key))
    ok = bad = 0
    for start in range(0, pairs, _SCAN_BLOCK):
        k = min(_SCAN_BLOCK, pairs - start)
        u = rng.random((k, 2, d))
        rows = np.empty((2 * k, d))
        np.minimum(u[:, 0], u[:, 1], out=rows[:k])
        np.maximum(u[:, 0], u[:, 1], out=rows[k:])
        np.clip(rows, _ONE_ABOVE, _ONE_BELOW, out=rows)
        ok_k, bad_k = _certified_verdicts(spec, rows)
        ok += int(ok_k.sum())
        bad += int(bad_k.sum())
    tol = pairs - ok - bad
    return ScanResult(pairs=pairs, ordered_ok=ok + tol, within_tolerance=tol, violations=bad)
