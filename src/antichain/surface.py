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
bound plus the kernel's rounding, so ``surface_enclosure`` evaluates
``1 - p`` at the upper and at the lower corner of that box, widened by p's
own rounding, and gets lo <= F <= hi; it is the only bound code.
``surface_values`` returns values alone for the estimators.  A comparable
pair is ``ordered_ok`` when the lower point's lo exceeds the upper point's
hi, a violation when the lower point's hi falls below the upper point's
lo, and within tolerance when the two enclosures overlap.

Pair verdicts are taken in two passes.  Every pair is first enclosed at
depth 8 (or the spec's depth, if lower), where the salem kernel reads one
8-bit digit table instead of the seven of depth 52; only the pairs left
undecided, neither ``ordered_ok`` nor a violation, are enclosed again at
the spec's own depth.  An enclosure at any depth contains the exact F, so
a verdict certified at depth 8 is certified.  A deep cell lies inside its
depth-8 cell, so its f box lies inside the depth-8 box up to a few ulps of
rounding: a deep pass over every pair would confirm each depth-8 verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DEFAULT_EVAL_BUDGET, ConfigurationError, DomainError, check_budget
from .singular import SingularFunctionSpec, evaluate_many

#: surface values are kept strictly inside (0,1) at float resolution
_ONE_BELOW = 1.0 - 2.0**-53
_ONE_ABOVE = 2.0**-1074

#: pairs per block of ``antichain_scan``; bounds its memory, not its verdicts.
#: At n = 5 a block's temporaries take about 2 MB, which stays in cache and,
#: with the CLI's fixed malloc thresholds, is reused from block to block
_SCAN_BLOCK = 2**12

#: depth of the first enclosure pass of the pair verdicts; only the pairs it
#: leaves undecided are enclosed again at the spec's own depth
_SCAN_FIRST_DEPTH = 8


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
        if self.n < 2:
            raise ConfigurationError(f"ambient dimension must be >= 2, got {self.n}")
        if not self.f.strictly_increasing:
            raise ConfigurationError(
                f"{self.f.kind} is not strictly increasing; the construction "
                "requires a strictly increasing singular function"
            )

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


def _F_of(fv: np.ndarray) -> np.ndarray:
    # at the corner M = 1, P = 0 p is 0/0; fmax turns that NaN into a value
    # inside the enclosure, which is [0, 1] there (see _enclose)
    with np.errstate(invalid="ignore"):
        return np.fmin(np.fmax(1.0 - p_many(fv), _ONE_ABOVE), _ONE_BELOW)


def _enclose(f: SingularFunctionSpec, fv: np.ndarray, fe: np.ndarray) -> tuple[np.ndarray, ...]:
    """Enclosure (lo, hi) of the exact F from f values and their truncation bounds."""
    # The exact f lies within the cell rise (fe, correctly rounded) of the
    # exact truncated sum t, and t within rounding_ulps ulp(t) <= 2 spacing(fv)
    # of fv (the two can straddle a power of two).  The factor 1 + 2^-50 and
    # two spare spacings absorb the roundings of fe, r and fv +- r (each under
    # u = 2^-53 relative, and u fv < spacing(fv)): no directed rounding needed.
    r = np.spacing(fv)
    r *= 2 * f.rounding_ulps + 2
    r += fe * (1.0 + 2.0**-50)
    f_hi = np.minimum(fv + r, 1.0)
    f_lo = np.maximum(fv - r, 0.0, out=r)
    # p is nondecreasing in every coordinate: 1 - p(f_hi) <= F <= 1 - p(f_lo).
    # p's rounding (u = 2^-53, p <= 1): the m - 2 products of P, 1 - M, the
    # sum and the quotient give at most (2m - 2) u (3u if m = 2, 0 if m = 1)
    # <= m 2^-52; p_many's clip and the subtraction from the exact 1 -+ slack
    # add u each.  (m + 4) 2^-52 leaves room for second-order terms and
    # underflow in P; fmax turns the 0/0 at the corner M = 1, P = 0 into lo = 0.
    slack = (fv.shape[1] + 4) * 2.0**-52
    with np.errstate(invalid="ignore"):
        lo = np.fmax((1.0 - slack) - p_many(f_hi), 0.0)
    hi = np.fmin((1.0 + slack) - p_many(f_lo), 1.0)
    return lo, hi


def surface_values(spec: SurfaceSpec, points: np.ndarray) -> np.ndarray:
    """F over an (N, n-1) array of domain points."""
    fv, _ = _f_values(spec, points)
    return _F_of(fv)


def surface_enclosure(spec: SurfaceSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds (lo, hi) with lo <= F <= hi at each domain point."""
    fv, fe = _f_values(spec, points)
    return _enclose(spec.f, fv, fe)


def F_eval(spec: SurfaceSpec, x: Point) -> tuple[float, float]:
    """F(x) = 1 - p(f(x_1), ..., f(x_{n-1})), with the half-width of its
    enclosure about the value as error bound."""
    fv, fe = _f_values(spec, np.array([x.coords]))
    value = float(_F_of(fv)[0])
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


def _certified_verdicts(spec: SurfaceSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masks (ordered_ok, violation) of ``_pair_verdicts`` for 2k rows:
    all rows enclosed at depth ``_SCAN_FIRST_DEPTH`` (or the spec's, if
    lower), then the rows of the pairs left undecided at the spec's depth."""
    first = replace(spec.f, depth=min(_SCAN_FIRST_DEPTH, spec.f.depth))
    ok, bad = _pair_verdicts(*surface_enclosure(SurfaceSpec(spec.n, first), rows))
    undecided = np.flatnonzero(~(ok | bad))
    if undecided.size and first != spec.f:
        rows = rows[np.concatenate([undecided, undecided + len(ok)])]
        ok[undecided], bad[undecided] = _pair_verdicts(*surface_enclosure(spec, rows))
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
    seed: int


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
    for the pairs that pass leaves undecided, at the spec's depth (see the
    module docstring); an enclosure at either depth contains the exact F,
    so every verdict is certified.  ``budget`` counts full-depth surface
    evaluations, charged up front as two per pair, the most the second pass
    can make; the depth-8 pass is not charged.
    """
    if pairs < 1:
        raise ConfigurationError(f"a scan needs at least one pair, got {pairs}")
    check_budget(2 * pairs, budget)
    d = spec.domain_dim
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)  # seeds follow 64-bit semantics
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
    return ScanResult(pairs=pairs, ordered_ok=ok + tol, within_tolerance=tol,
                      violations=bad, seed=seed)


def p_projective_crosscheck(x: Point) -> float:
    """Geometric alternative route to p for planar points.

    Project x onto the diagonal {(t,t)}: from (1,0) when x lies on or below
    the diagonal, from (0,1) when above.  The intersection parameter t is
    found by an explicit 2x2 linear solve, an arithmetic path independent of
    ``p_eval``.
    """
    if x.dim != 2:
        raise DomainError("the projective construction lives in dimension 2")
    x1, x2 = x.coords
    center = (1.0, 0.0) if x2 <= x1 else (0.0, 1.0)
    # solve center + u * (x - center) = (t, t) for (u, t)
    a = np.array([[x1 - center[0], -1.0], [x2 - center[1], -1.0]])
    rhs = np.array([-center[0], -center[1]])
    _, t = np.linalg.solve(a, rhs)
    return float(t)
