"""The strictly increasing singular function f on [0,1], with certified error bounds.

f is Salem's self-affine function with contraction ratio ``lam``, satisfying
L(x) = lam*L(2x) on [0,1/2] and L(x) = lam + (1-lam)*L(2x-1) on [1/2,1].  It
is strictly increasing, surjective, and singular for lam != 1/2.

Evaluations truncate at a finite ``depth`` and return a rigorous truncation
bound alongside the value.  Digits come from one primitive, ``digit_words``:
for x in [0,1) and k <= 63 the int64 floor(x * 2**k) is exactly the first k
binary digits of x.  f is affine on every dyadic cell (Salem 1943): on the
cell of a k-digit word c with o ones, f = f(c 2**-k) + lam**(k-o) (1-lam)**o
f(T^k x), T the binary shift.  The kernel composes these maps over 8-bit
digit chunks with tables built once per (lam, width) in exact integer
arithmetic, to within 2 ulp of the exact truncated sum; the bound is the rise
over the depth-cell of x, or exactly 0 when x has no digit past the depth.
The slope probe is one popcount.  Each quantity has one array kernel, and
the scalar calls are one-row wrappers over it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, PrecisionError, _short, check_int, check_real

SALEM = "salem"
#: the construction needs a strictly increasing f, so the devil's staircase,
#: constant on intervals, is no kind
KINDS = (SALEM,)

#: digits per salem table chunk (2**8-entry tables stay in L1)
_CHUNK_BITS = 8

#: elements per salem kernel pass: words and gathers stay in cache, scratch bounded
_BLOCK = 2**15


@dataclass(frozen=True)
class SingularFunctionSpec:
    """Which singular function to use and how deep to evaluate it.

    ``lam`` is any real number in (0,1), stored as a float, and ``depth`` an
    integer in [1, 63], stored as an int.  lam = 1/2 collapses the recursion
    to the identity, which is strictly increasing but not singular.
    """

    kind: str = SALEM
    lam: float = 0.25
    depth: int = 52

    #: worst-case rounding of ``evaluate`` values in ulps of the exact
    #: truncated sum, from the correctly rounded tables' products and sums
    rounding_ulps = 2

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        # plain ints and floats: the tables are cached by, and built from, them
        object.__setattr__(self, "depth", int(check_int("depth", self.depth, 1, 63)))
        lam = check_real("lam", self.lam)
        if not (0 < lam < 1 and 0.0 < float(lam) < 1.0):  # compared before float() can overflow
            raise ConfigurationError(f"salem ratio must lie in (0,1), got {_short(lam)}")
        object.__setattr__(self, "lam", float(lam))

    @property
    def error_bound(self) -> float:
        """Worst-case truncation bound of ``evaluate`` over the whole domain."""
        return max(self.lam, 1.0 - self.lam) ** self.depth


@dataclass(frozen=True)
class SingularSetProbe:
    """Finite surrogate for the full-measure set where the derivative vanishes.

    A point belongs to the probed set iff its dyadic slope at resolution
    ``depth`` falls below ``eps``, a real number stored as its float, which must be
    positive and finite.  Membership is monotone in eps: a larger eps accepts more.
    """

    depth: int = 40
    eps: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "depth", int(check_int("probe depth", self.depth, 1)))
        eps = check_real("probe eps", self.eps)
        try:
            finite = 0 < eps <= np.finfo(float).max
        except OverflowError:  # numpy cannot convert a Python int past the float range
            finite = False
        if not (finite and float(eps) > 0.0):  # float() cannot overflow
            raise ConfigurationError(
                f"probe eps must be a positive finite float, got {_short(eps)}")
        object.__setattr__(self, "eps", float(eps))


def digit_words(xs: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` binary digits of each x in [0,1), as the int64 floor(x * 2**k).

    Exact for binary64 and k <= 63; signed, so gathers index with it as is.
    """
    return (np.asarray(xs, dtype=np.float64) * float(1 << k)).astype(np.int64)


@functools.lru_cache(maxsize=256)
def _cylinder_numerators(lam: float, k: int) -> tuple[tuple[int, ...], int]:
    """Entry o of the first: p**(k-o) * (q-p)**o over the second, q**k, with
    (p, q) = ``lam.as_integer_ratio()`` -- exactly the rise of the salem function
    over any depth-k dyadic cell whose digits hold o ones, for any k."""
    p, q = lam.as_integer_ratio()
    return tuple(p ** (k - o) * (q - p) ** o for o in range(k + 1)), q**k


@functools.lru_cache(maxsize=256)
def _cylinder_lengths(lam: float, k: int) -> np.ndarray:
    """Entry o: lam**(k-o) * (1-lam)**o, correctly rounded (``_cylinder_numerators``)."""
    nums, den = _cylinder_numerators(lam, k)
    table = np.array([num / den for num in nums])  # int / int division rounds correctly
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
    # take, not fancy indexing: indexing with bitwise_count's uint8 counts casts first
    for lo in range(0, xs.size, _BLOCK):
        x = xs[lo : lo + _BLOCK]
        w = digit_words(x, depth)
        # no digit past depth (x * 2**depth equals its word): f(T^depth x) = 0
        bounds[lo : lo + x.size] = rises.take(np.bitwise_count(w)) * (x * scale != w)
        v = values[lo : lo + x.size]
        v.fill(0.0)
        left = depth
        while left:
            width = left % _CHUNK_BITS or _CHUNK_BITS
            left -= width
            term = _chunk_offsets(lam, width)[w & ((1 << width) - 1)]
            w >>= width
            if left:
                term *= _cylinder_lengths(lam, left).take(np.bitwise_count(w))
            v += term
    return values, bounds


def evaluate_many(spec: SingularFunctionSpec, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and its truncation bound at each x of an array in [0,1].

    The bound covers truncation only: the exact value lies within it of the
    exact truncated sum, from which the returned value may be up to
    ``spec.rounding_ulps`` ulp off, even when the bound is 0.  The endpoints
    are exact: f(0) = 0 and f(1) = 1 with bound 0.

    The value is f at the left end of x's depth cell, so the exact f lies in
    [value, value + bound] up to rounding.  The value is the same at every
    point of the cell (it reads only the digit word w = floor(x 2**depth)),
    and the bound is the cell's rise inside the cell and 0 at its left end:
    the pair (value, bound) at a cell's midpoint serves every point of the
    cell, and bounds f at its left end too.
    """
    xs = np.asarray(xs, dtype=np.float64)
    flat = xs.ravel()
    low, top = (flat.min(), flat.max()) if flat.size else (0.5, 0.5)
    if not (low >= 0.0 and top <= 1.0):
        raise DomainError("coordinates must lie in [0,1]")
    ends = None
    if low == 0.0 or top == 1.0:  # 1 has no digit word
        ends = (flat == 0.0) | (flat == 1.0)
        exact = flat[ends]
        flat = np.where(ends, 0.5, flat)
    v, s = _salem_many(spec.lam, spec.depth, flat)
    if ends is not None:
        v[ends], s[ends] = exact, 0.0
    return v.reshape(xs.shape), s.reshape(xs.shape)


def evaluate(spec: SingularFunctionSpec, x: float) -> tuple[float, float]:
    """f(x) and its truncation bound: one row of ``evaluate_many``."""
    values, bounds = evaluate_many(spec, np.array([x]))
    return float(values[0]), float(bounds[0])


@functools.lru_cache(maxsize=256)
def salem_slopes(lam: float, k: int) -> np.ndarray:
    """Entry o: the salem slope over a depth-k cell whose digits hold o ones, its
    correctly rounded rise times 2**k (exact while the rise is a normal float)."""
    table = _cylinder_lengths(lam, k) * 2.0**k
    table.setflags(write=False)
    return table


def dyadic_slopes_many(spec: SingularFunctionSpec, xs: np.ndarray, k: int) -> np.ndarray:
    """Difference quotient of f over the depth-k dyadic cell containing each x.

    Dyadic rationals sit on a cell boundary and are assigned to the
    right-closed cell [x, x + 2**-k), matching the half-open grid
    convention.  The slope is the digit product of 2*lam per 0-digit and
    2*(1-lam) per 1-digit, looked up in ``salem_slopes`` by the count of ones.
    """
    if check_int("slope depth", k, None) < 0:
        raise DomainError(f"slope depth must be >= 0, got {k}")
    if k > spec.depth:
        raise PrecisionError(f"slope depth {k} exceeds spec depth {spec.depth}")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size and not (xs.min() > 0.0 and xs.max() < 1.0):
        raise DomainError("coordinates must lie in (0,1)")
    return salem_slopes(spec.lam, k).take(np.bitwise_count(digit_words(xs, k)))


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
    """Boolean mask of the xs in the probed set: the dyadic slope of f over the
    depth-``probe.depth`` cell holding x is below ``probe.eps``."""
    return dyadic_slopes_many(spec, xs, probe.depth) < probe.eps
