"""Strictly increasing singular functions on [0,1] with certified error bounds.

Three families are supported:

* ``salem``     -- the self-affine function with contraction ratio ``lam``,
                   satisfying L(x) = lam*L(2x) on [0,1/2] and
                   L(x) = lam + (1-lam)*L(2x-1) on [1/2,1].  Strictly
                   increasing, surjective, singular for lam != 1/2.
* ``minkowski`` -- the question-mark function, evaluated from the continued
                   fraction of x (alternating dyadic series).
* ``cantor``    -- the devil's staircase.  Monotone and singular but NOT
                   strictly increasing; kept as a negative control.

All evaluations truncate at a finite ``depth`` and return a rigorous
truncation bound alongside the value.  Digits come from one primitive,
``digit_words``: for x in [0,1) and k <= 63 the int64 floor(x * 2**k) is
exactly the first k binary digits of x.  The salem function is affine on
every dyadic cell (Salem 1943): on the cell of a k-digit word c with o ones,
f = f(c 2**-k) + lam**(k-o) (1-lam)**o f(T^k x), T the binary shift.  The
kernel composes these maps over 8-bit digit chunks with tables built once
per (lam, width) in exact integer arithmetic, to within 2 ulp of the exact
truncated sum; the bound is the rise over the depth-cell of x, or exactly 0
when x has no digit past the depth.  The slope probe is one popcount.
Each quantity has one array kernel, and the scalar calls are one-row
wrappers over it; ``evaluate_many`` is the one place that branches on the
kind.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, PrecisionError

SALEM = "salem"
MINKOWSKI = "minkowski"
CANTOR = "cantor"
KINDS = (SALEM, MINKOWSKI, CANTOR)

#: continued-fraction partial quotients are clamped here so every
#: 2**(-sum a_i) term stays representable
_MAX_CF_QUOTIENT = 62

#: digits per salem table chunk (2**8-entry tables stay in L1)
_CHUNK_BITS = 8

#: elements per salem kernel pass: words and gathers stay in cache, scratch bounded
_BLOCK = 2**15


@dataclass(frozen=True)
class SingularFunctionSpec:
    """Which singular function to use and how deep to evaluate it.

    ``lam`` is only meaningful for the salem kind.  lam = 1/2 collapses the
    recursion to the identity, which is not singular; it is rejected unless
    ``allow_non_singular`` is set (test fixtures use that escape hatch).
    """

    kind: str = SALEM
    lam: float = 0.25
    depth: int = 52
    allow_non_singular: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        if not 1 <= self.depth <= 63:
            raise ConfigurationError(f"depth must be in [1, 63], got {self.depth}")
        if self.kind == SALEM:
            if not 0.0 < self.lam < 1.0:
                raise ConfigurationError(f"salem ratio must lie in (0,1), got {self.lam}")
            if self.lam == 0.5 and not self.allow_non_singular:
                raise ConfigurationError(
                    "lam = 1/2 gives the identity, which is not singular; "
                    "pass allow_non_singular=True for fixture use"
                )

    @property
    def strictly_increasing(self) -> bool:
        return self.kind != CANTOR

    @property
    def error_bound(self) -> float:
        """Worst-case truncation bound of ``evaluate`` over the whole domain."""
        if self.kind == SALEM:
            return max(self.lam, 1.0 - self.lam) ** self.depth
        if self.kind == MINKOWSKI:
            return 2.0 ** (1 - self.depth)
        return 2.0 ** (-self.depth)

    @property
    def rounding_ulps(self) -> int:
        """Worst-case rounding of ``evaluate`` values in ulps of the exact
        truncated sum: 2 for the salem tables; otherwise one per addition of
        a power of two (minkowski partial sums stay within twice the value)."""
        return 2 if self.kind == SALEM else self.depth


@dataclass(frozen=True)
class SingularSetProbe:
    """Finite surrogate for the full-measure set where the derivative vanishes.

    A point belongs to the probed set iff its dyadic slope at resolution
    ``depth`` falls below ``eps``.  Membership is monotone in eps: a larger
    threshold accepts a superset of points.
    """

    depth: int = 40
    eps: float = 0.01

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigurationError(f"probe depth must be >= 1, got {self.depth}")
        if not self.eps > 0.0:
            raise ConfigurationError(f"probe eps must be positive, got {self.eps}")


def _eval_minkowski(x: float, depth: int) -> tuple[float, float]:
    """Alternating sum over the first ``depth`` partial quotients of x in
    (0,1), from its exact rational value.  Quotients above the
    representability cap are clamped, which perturbs the value by less
    than 2**-61."""
    p, q = x.as_integer_ratio()
    # x = p/q with 0 < p < q; Euclid on (q, p) yields [a1, a2, ...]
    num, den = q, p
    v, exponent, sign = 0.0, 1.0, 1.0
    terms = 0
    clamped = False
    while den > 0 and terms < depth:
        a, num = divmod(num, den)
        num, den = den, num
        if a > _MAX_CF_QUOTIENT:
            a = _MAX_CF_QUOTIENT
            clamped = True
        exponent -= a
        v += sign * 2.0**exponent
        sign = -sign
        terms += 1
    err = 0.0 if den == 0 else 2.0 ** (1 - terms)
    if clamped:
        err = max(err, 2.0**-61)
    return v, err


def _eval_cantor(x: float, depth: int) -> tuple[float, float]:
    p, q = x.as_integer_ratio()
    v = 0.0
    place = 1.0
    for _ in range(depth):
        p *= 3
        digit, p = divmod(p, q)
        place *= 0.5
        if digit == 1:
            # constant on the excised cylinder from here on: exact
            return v + place, 0.0
        if digit == 2:
            v += place
    return v, place


def digit_words(xs: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` binary digits of each x in [0,1), as the int64 floor(x * 2**k).

    Exact for binary64 and k <= 63; signed, so gathers index with it as is.
    """
    return (np.asarray(xs, dtype=np.float64) * float(1 << k)).astype(np.int64)


@functools.lru_cache(maxsize=256)
def _cylinder_lengths(lam: float, k: int) -> np.ndarray:
    """Entry o: lam**(k-o) * (1-lam)**o, correctly rounded -- the rise of the
    salem function over any depth-k dyadic cell whose digits hold o ones."""
    p, q = lam.as_integer_ratio()  # int / int division rounds correctly
    table = np.array([p ** (k - o) * (q - p) ** o / q**k for o in range(k + 1)])
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=256)
def _chunk_offsets(lam: float, bits: int) -> np.ndarray:
    """Entry c: f(c * 2**-bits) for the ``bits``-digit word c, correctly rounded."""
    p, q = lam.as_integer_ratio()
    nums = [0]  # numerators over q**j of f on the j-digit words
    for j in range(bits):  # leading digit 0: f = lam*f(T x); 1: f = lam + (1-lam)*f(T x)
        nums = [p * n for n in nums] + [p * q**j + (q - p) * n for n in nums]
    table = np.array([n / q**bits for n in nums])
    table.setflags(write=False)
    return table


def _salem_many(lam: float, depth: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Salem values and truncation bounds over a flat array of x in [0,1).

    Sums chunk offset times the rise over the cell of the digits before the
    chunk, from the last chunk (short, with its own table) to the first."""
    rises = _cylinder_lengths(lam, depth)
    scale = float(1 << depth)
    values, bounds = np.empty_like(xs), np.empty_like(xs)
    for lo in range(0, xs.size, _BLOCK):
        x = xs[lo : lo + _BLOCK]
        w = digit_words(x, depth)
        # no digit past depth (x * 2**depth equals its word): f(T^depth x) = 0
        bounds[lo : lo + x.size] = rises[np.bitwise_count(w)] * (x * scale != w)
        v = values[lo : lo + x.size]
        v.fill(0.0)
        left = depth
        while left:
            width = left % _CHUNK_BITS or _CHUNK_BITS
            left -= width
            term = _chunk_offsets(lam, width)[w & ((1 << width) - 1)]
            w >>= width
            if left:
                term *= _cylinder_lengths(lam, left)[np.bitwise_count(w)]
            v += term
    return values, bounds


def evaluate_many(spec: SingularFunctionSpec, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and its truncation bound at each x of an array in [0,1].

    The bound covers truncation only: the exact value lies within it of the
    exact truncated sum, from which the returned value may be up to
    ``spec.rounding_ulps`` ulp off, even when the bound is 0.  The endpoints
    are exact for every kind: f(0) = 0 and f(1) = 1 with bound 0.
    """
    xs = np.asarray(xs, dtype=np.float64)
    flat = xs.ravel()
    low, top = (flat.min(), flat.max()) if flat.size else (0.5, 0.5)
    if not (low >= 0.0 and top <= 1.0):
        raise DomainError("coordinates must lie in [0,1]")
    ends = None
    if low == 0.0 or top == 1.0:  # 1 has no digit word; cantor's digits of 0 never stop
        ends = (flat == 0.0) | (flat == 1.0)
        exact = flat[ends]
        flat = np.where(ends, 0.5, flat)
    if spec.kind == SALEM:
        v, s = _salem_many(spec.lam, spec.depth, flat)
    else:
        scalar = _eval_minkowski if spec.kind == MINKOWSKI else _eval_cantor
        pairs = [scalar(x, spec.depth) for x in flat.tolist()]
        v, s = np.array(pairs).reshape(-1, 2).T  # (-1, 2): an empty list stays two-column
    if ends is not None:
        v[ends], s[ends] = exact, 0.0
    return v.reshape(xs.shape), s.reshape(xs.shape)


def evaluate(spec: SingularFunctionSpec, x: float) -> tuple[float, float]:
    """f(x) and its truncation bound: one row of ``evaluate_many``."""
    values, bounds = evaluate_many(spec, np.array([x]))
    return float(values[0]), float(bounds[0])


def dyadic_slopes_many(spec: SingularFunctionSpec, xs: np.ndarray, k: int) -> np.ndarray:
    """Difference quotient of f over the depth-k dyadic cell containing each x.

    Dyadic rationals sit on a cell boundary and are assigned to the
    right-closed cell [x, x + 2**-k), matching the half-open grid
    convention.  For the salem kind the slope is the digit product of 2*lam
    per 0-digit and 2*(1-lam) per 1-digit, accumulated in log space so deep
    products do not underflow; it depends only on the count of ones.  Other
    kinds evaluate f at the cell ends.
    """
    if k > spec.depth:
        raise PrecisionError(f"slope depth {k} exceeds spec depth {spec.depth}")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size and not (xs.min() > 0.0 and xs.max() < 1.0):
        raise DomainError("coordinates must lie in (0,1)")
    words = digit_words(xs, k)
    if spec.kind == SALEM:
        o = np.arange(k + 1)
        slopes = 2.0 ** (k + (k - o) * math.log2(spec.lam) + o * math.log2(1.0 - spec.lam))
        return slopes[np.bitwise_count(words)]
    scale = float(1 << k)
    a = words / scale
    ends, _ = evaluate_many(spec, np.stack([a, a + 1.0 / scale]))
    return (ends[1] - ends[0]) * scale


def dyadic_slope(spec: SingularFunctionSpec, x: float, k: int) -> float:
    """Difference quotient of f over the depth-k dyadic cell containing x:
    one row of ``dyadic_slopes_many``."""
    return float(dyadic_slopes_many(spec, np.array([x]), k)[0])


def in_singular_set(spec: SingularFunctionSpec, probe: SingularSetProbe, x: float) -> bool:
    """Membership in the computable slope-threshold set standing in for S:
    one row of ``in_singular_set_many``."""
    return bool(in_singular_set_many(spec, probe, np.array([x]))[0])


def in_singular_set_many(
    spec: SingularFunctionSpec, probe: SingularSetProbe, xs: np.ndarray
) -> np.ndarray:
    return dyadic_slopes_many(spec, xs, probe.depth) < probe.eps
