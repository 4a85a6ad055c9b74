import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from antichain import SingularFunctionSpec, SurfaceSpec

settings.register_profile(
    "suite",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def salem_default() -> SingularFunctionSpec:
    return SingularFunctionSpec()  # salem, lam = 1/4, depth 52


@pytest.fixture
def identity_f() -> SingularFunctionSpec:
    """lam = 1/2 collapses the recursion to the identity; explicitly allowed
    as a non-singular fixture so surface geometry is exactly predictable."""
    return SingularFunctionSpec(lam=0.5, allow_non_singular=True)


@pytest.fixture
def surface_n3(salem_default) -> SurfaceSpec:
    return SurfaceSpec(n=3, f=salem_default)


@pytest.fixture
def surface_n2(salem_default) -> SurfaceSpec:
    return SurfaceSpec(n=2, f=salem_default)


@pytest.fixture
def identity_n2(identity_f) -> SurfaceSpec:
    return SurfaceSpec(n=2, f=identity_f)


@pytest.fixture
def identity_n3(identity_f) -> SurfaceSpec:
    return SurfaceSpec(n=3, f=identity_f)


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def salem_recursive(x: float, lam: float, depth: int = 160) -> float:
    """Independent oracle: evaluate the self-affine recursion directly.

    Terminates exactly on dyadic rationals; otherwise the tail is bounded
    by max(lam, 1-lam)**depth.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if depth == 0:
        return 0.0
    if x < 0.5:
        return lam * salem_recursive(2.0 * x, lam, depth - 1)
    return lam + (1.0 - lam) * salem_recursive(2.0 * x - 1.0, lam, depth - 1)


def salem_truncation_exact(x: float, lam: float, depth: int) -> tuple[Fraction, Fraction]:
    """Exact rational (value, cell rise) of the depth-truncated salem sum.

    For x >= 2^-11 every binary digit of the double x sits within the first
    63, so at depth 63 the value is the exact f(x).
    """
    a = Fraction(lam)
    b = 1 - a
    word = int(x * 2**depth)
    value, rise = Fraction(0), Fraction(1)
    for j in range(depth - 1, -1, -1):
        if (word >> j) & 1:
            value += rise * a
            rise *= b
        else:
            rise *= a
    return value, rise


def length_binomial(k: int, lam: float) -> float:
    """Independent length oracle: the depth-k inscribed polyline length of
    the salem graph, summed over digit classes instead of cells.

    Rests on the cylinder-increment identity (Salem 1943): over the dyadic
    cell [j 2^-k, (j+1) 2^-k] whose k binary digits contain o ones, f rises
    by exactly lam^(k-o) (1-lam)^o.  The comb(k, o) cells of a class share
    one segment length, so the sum has k + 1 terms and reaches any depth.
    """
    dx2 = (2.0**-k) ** 2
    return math.fsum(
        math.comb(k, o) * math.sqrt(dx2 + (lam ** (k - o) * (1.0 - lam) ** o) ** 2)
        for o in range(k + 1)
    )
