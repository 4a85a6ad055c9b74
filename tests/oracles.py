"""Reference helpers shared by the tests and the reproduction script.

Imports only the standard library and numpy, so the scripts run without
the test extras.
"""

import math
from fractions import Fraction

import numpy as np


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


def salem_exact(x: float, lam: float) -> Fraction:
    """Exact salem f at any double x in [0,1].

    x = m 2^-e has no binary digit past e, so f(T^e x) = 0 and f(x) is the
    depth-e truncated sum; lam = a 2^-s as a double, so over q = 2^s the sum
    is an integer over q^e.  Built from the last digit to the first:
    f = lam f(T x) after a 0, lam + (1 - lam) f(T x) after a 1.
    """
    if x >= 1.0:
        return Fraction(1)
    m, den = x.as_integer_ratio()
    a, q = lam.as_integer_ratio()
    num, q_j = 0, 1  # f of the digits read so far, over q^j
    for j in range(den.bit_length() - 1):
        num = a * q_j + (q - a) * num if (m >> j) & 1 else a * num
        q_j *= q
    return Fraction(num, q_j)


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


def p_projective(x1: float, x2: float) -> float:
    """Independent route to p for a planar point (x1, x2).

    Projects the point onto the diagonal {(t,t)}: from (1,0) when it lies on
    or below the diagonal, from (0,1) when above.  The intersection
    parameter t comes from an explicit 2x2 linear solve, an arithmetic path
    independent of the package's p.
    """
    center = (1.0, 0.0) if x2 <= x1 else (0.0, 1.0)
    # solve center + u * (x - center) = (t, t) for (u, t)
    a = np.array([[x1 - center[0], -1.0], [x2 - center[1], -1.0]])
    rhs = np.array([-center[0], -center[1]])
    _, t = np.linalg.solve(a, rhs)
    return float(t)
