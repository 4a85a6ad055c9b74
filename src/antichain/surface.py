"""The monotone map p, the surface F, and the antichain checks.

``p`` maps the open cube (0,1)^m onto (0,1): sort the coordinates, multiply
all but the largest into P, call the largest M, and return P/(1 - M + P)
(for m = 1 it is the identity).  It is strictly increasing in every
coordinate and permutation symmetric.

``F(x) = 1 - p(f(x_1), ..., f(x_{n-1}))`` composes p with a strictly
increasing singular function f, so F is strictly *decreasing* along every
coordinate; its graph in [0,1]^n therefore contains no two comparable
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .singular import SingularFunctionSpec, evaluate_many

#: surface values are kept strictly inside (0,1) at float resolution
_ONE_BELOW = 1.0 - 2.0**-53
_ONE_ABOVE = 2.0**-1074

#: Lipschitz clip: inputs this close to 1 are pulled back before the
#: error-propagation factor is formed
_LIP_CLIP = 1.0 - 1e-9


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
    """Monotone map of the open cube onto (0,1); identity in dimension 1."""
    vals = sorted(x.coords)
    if len(vals) == 1:
        return vals[0]
    prod = math.prod(vals[:-1])
    top = vals[-1]
    p = prod / (1.0 - top + prod)
    return min(max(p, _ONE_ABOVE), _ONE_BELOW)


def p_many(vals: np.ndarray) -> np.ndarray:
    """Row-wise ``p_eval`` on an (N, m) array of cube points."""
    vals = np.asarray(vals, dtype=np.float64)
    if vals.ndim != 2:
        raise DomainError("expected a 2-d array of row points")
    if vals.shape[1] == 1:
        return vals[:, 0].copy()
    svals = np.sort(vals, axis=1)
    prod = np.prod(svals[:, :-1], axis=1)
    top = svals[:, -1]
    p = prod / (1.0 - top + prod)
    return np.clip(p, _ONE_ABOVE, _ONE_BELOW)


def _propagation_factor(prod: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Conservative per-coordinate Lipschitz factor 4/(1 - M + P)^2.

    The factor is evaluated with the largest coordinate clipped away from 1
    so that it stays finite near the delicate corner M -> 1, P -> 0.
    """
    top_c = np.minimum(top, _LIP_CLIP)
    denom = 1.0 - top_c + prod
    return 4.0 / (denom * denom)


#: floor on surface error bounds: a few ulps of arithmetic noise, so that
#: truncation bounds far below float resolution cannot certify a verdict
_ERR_FLOOR = 1e-15


def surface_values(spec: SurfaceSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F over an (N, n-1) array of domain points; returns (values, bounds).

    The error bound propagates the per-coordinate evaluation bounds through
    the conservative Lipschitz factor of p, holds a floor at float
    arithmetic noise, and is capped at 1.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != spec.domain_dim:
        raise DomainError(f"expected points of dimension {spec.domain_dim}")
    fv, fe = evaluate_many(spec.f, points)
    svals = np.sort(fv, axis=1)
    if spec.domain_dim == 1:
        p = svals[:, 0]
        err = fe[:, 0] + _ERR_FLOOR
    else:
        prod = np.prod(svals[:, :-1], axis=1)
        top = svals[:, -1]
        p = prod / (1.0 - top + prod)
        err = np.minimum(_propagation_factor(prod, top) * fe.sum(axis=1) + _ERR_FLOOR, 1.0)
    F = 1.0 - np.clip(p, _ONE_ABOVE, _ONE_BELOW)
    return np.clip(F, _ONE_ABOVE, _ONE_BELOW), err


def F_eval(spec: SurfaceSpec, x: Point) -> tuple[float, float]:
    """F(x) = 1 - p(f(x_1), ..., f(x_{n-1})), with its error bound."""
    if x.dim != spec.domain_dim:
        raise DomainError(f"point has dim {x.dim}, surface domain needs {spec.domain_dim}")
    values, bounds = surface_values(spec, np.array([x.coords]))
    return float(values[0]), float(bounds[0])


def graph_point(spec: SurfaceSpec, x: Point) -> Point:
    """Lift a domain point onto the graph by appending F(x)."""
    value, _ = F_eval(spec, x)
    return Point(x.coords + (value,))


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of comparing two domain points on the surface.

    ``ordered_ok`` for comparable pairs whose F values are ordered the right
    way (equal points count vacuously: x = y is not x < y, so no constraint
    applies).  ``within_tolerance`` flags comparable pairs whose F gap is
    inside the combined error bound.
    """

    verdict: str  # "incomparable" | "ordered_ok" | "violation"
    within_tolerance: bool = False


def check_antichain_pair(spec: SurfaceSpec, x: Point, y: Point) -> PairVerdict:
    """Check the defining property of the graph on one pair of points."""
    if x.dim != y.dim or x.dim != spec.domain_dim:
        raise DomainError("points must both have the surface's domain dimension")
    x_le_y = all(a <= b for a, b in zip(x.coords, y.coords))
    y_le_x = all(b <= a for a, b in zip(x.coords, y.coords))
    if not x_le_y and not y_le_x:
        return PairVerdict("incomparable")
    if x_le_y and y_le_x:  # x == y: not x < y, nothing to check
        return PairVerdict("ordered_ok")
    lo, hi = (x, y) if x_le_y else (y, x)
    f_lo, e_lo = F_eval(spec, lo)
    f_hi, e_hi = F_eval(spec, hi)
    combined = e_lo + e_hi
    gap = f_lo - f_hi  # must be positive: F strictly decreases
    if gap > combined:
        return PairVerdict("ordered_ok")
    if gap < -combined:
        return PairVerdict("violation")
    return PairVerdict("ordered_ok", within_tolerance=True)


@dataclass(frozen=True)
class ScanResult:
    """Aggregate verdicts of a seeded batch comparability scan."""

    pairs: int
    ordered_ok: int
    within_tolerance: int
    violations: int
    seed: int


def antichain_scan(spec: SurfaceSpec, pairs: int, seed: int = 0) -> ScanResult:
    """Draw seeded random comparable pairs and count verdicts.

    Pairs are drawn uniformly from the open cube and rejected unless
    comparable; equal pairs never occur (probability zero, and rejection
    keeps only strictly ordered ones).
    """
    d = spec.domain_dim
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)  # seeds follow 64-bit semantics
    rng = np.random.Generator(np.random.Philox(key=key))
    got = 0
    ok = tol = bad = 0
    # acceptance rate for a random pair is 2 * 2^-d
    batch = max(4096, min(4_000_000, int(pairs * 2 ** (d - 1) * 1.25)))
    while got < pairs:
        a = rng.random((batch, d))
        b = rng.random((batch, d))
        a_le_b = (a <= b).all(axis=1)
        b_le_a = (b <= a).all(axis=1)
        comparable = (a_le_b | b_le_a) & (a != b).any(axis=1)
        a, b = a[comparable], b[comparable]
        swap = (b <= a).all(axis=1)
        lo = np.where(swap[:, None], b, a)
        hi = np.where(swap[:, None], a, b)
        if got + len(lo) > pairs:
            lo, hi = lo[: pairs - got], hi[: pairs - got]
        np.clip(lo, _ONE_ABOVE, _ONE_BELOW, out=lo)
        np.clip(hi, _ONE_ABOVE, _ONE_BELOW, out=hi)
        f_lo, e_lo = surface_values(spec, lo)
        f_hi, e_hi = surface_values(spec, hi)
        combined = e_lo + e_hi
        gap = f_lo - f_hi
        ok += int((gap > combined).sum())
        bad += int((gap < -combined).sum())
        tol += int((np.abs(gap) <= combined).sum())
        got += len(lo)
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


def section(spec: SurfaceSpec, fixed: Point, t: float) -> float:
    """F with the last coordinate freed: the strictly decreasing section."""
    if spec.n < 3:
        raise DomainError("sections need ambient dimension >= 3")
    if fixed.dim != spec.n - 2:
        raise DomainError(f"fixed part has dim {fixed.dim}, expected {spec.n - 2}")
    value, _ = F_eval(spec, Point(fixed.coords + (float(t),)))
    return value
