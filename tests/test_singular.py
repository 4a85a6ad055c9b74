import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from antichain import (
    SALEM,
    ConfigurationError,
    DomainError,
    PrecisionError,
    SingularFunctionSpec,
    SingularSetProbe,
    dyadic_slope,
    evaluate,
    evaluate_many,
    in_singular_set,
)
from antichain.singular import (
    KINDS,
    _cylinder_lengths,
    _cylinder_numerators,
    digit_words,
    dyadic_slopes_many,
    in_singular_set_many,
    salem_slopes,
)

from oracles import salem_recursive, salem_truncation_exact, seeded_rng

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.1, 1.5, math.nan,
                                 pytest.param("0.25", id="str"),
                                 pytest.param(Decimal("0.25"), id="decimal"),
                                 pytest.param(True, id="bool"), pytest.param(None, id="none"),
                                 pytest.param(Fraction(10**400), id="huge"),
                                 pytest.param(Fraction(1, 10**400), id="tiny"),
                                 pytest.param(Fraction(10**5000), id="huge-digits"),
                                 pytest.param(Fraction(1, 10**5000), id="tiny-digits")])
def test_lambda_out_of_range_rejected(lam):
    # lam is a real number in (0,1), refused with ConfigurationError otherwise
    # (no bare TypeError, no overflow in float(), no digit-limit ValueError from
    # the message); a real one is stored as the float, a dyadic ratio, that the
    # tables are built from
    with pytest.raises(ConfigurationError, match="lam must be a real number|must lie in"):
        SingularFunctionSpec(lam=lam)
    for real in (Fraction(1, 3), np.float32(0.25), np.float64(0.5)):
        spec = SingularFunctionSpec(lam=real)
        assert type(spec.lam) is float and spec.lam == float(real)
        assert spec == SingularFunctionSpec(lam=float(real))


@pytest.mark.parametrize("depth", [0, -3, 64, 100, pytest.param(10**5000, id="huge")])
def test_depth_out_of_range_rejected(depth):
    with pytest.raises(ConfigurationError):
        SingularFunctionSpec(depth=depth)


@pytest.mark.parametrize("depth", [52.0, 52.5, "52", True,
                                   pytest.param(Fraction(10**5000), id="huge-fraction")])
def test_non_integer_depth_rejected(depth):
    # a float depth used to construct and then fail inside numpy with a bare
    # TypeError, and True constructed a depth-1 spec; numpy integers still
    # pass, stored as ints (a numpy depth used to overflow the tables' powers);
    # a huge fraction is named without meeting the integer-to-string digit limit
    with pytest.raises(ConfigurationError, match="^depth must be an integer, got "):
        SingularFunctionSpec(depth=depth)
    with pytest.raises(ConfigurationError, match="^probe depth must be an integer, got "):
        SingularSetProbe(depth=depth)
    assert evaluate(SingularFunctionSpec(depth=np.int64(52)), 0.3) == evaluate(
        SingularFunctionSpec(), 0.3)
    assert type(SingularSetProbe(depth=np.int32(40)).depth) is int
    assert type(SingularFunctionSpec(depth=np.int64(52)).depth) is int


def test_unknown_kind_rejected():
    for kind in ("devil", "minkowski"):
        with pytest.raises(ConfigurationError, match=f"unknown kind '{kind}'"):
            SingularFunctionSpec(kind=kind)


def test_probe_validation():
    with pytest.raises(ConfigurationError):
        SingularSetProbe(depth=0)
    with pytest.raises(ConfigurationError):
        SingularSetProbe(eps=0.0)
    with pytest.raises(ConfigurationError):
        SingularSetProbe(eps=-1.0)
    # eps has lam's input rule: a real number, not a bool, refused with
    # ConfigurationError otherwise (no bare TypeError), and stored as its float,
    # which must be positive and finite (a fraction under the float range rounds
    # to 0.0; one past it would overflow in float(), and an int past it in the
    # comparison with the float range)
    for eps in ("0.1", None, True, Decimal("0.1")):
        with pytest.raises(ConfigurationError, match="probe eps must be a real number"):
            SingularSetProbe(eps=eps)
    # (a narrow numpy float is compared in float64: np.float32 inf is no finite float)
    for eps in (math.nan, math.inf, Fraction(1, 10**400), Fraction(10**400), 10**400,
                np.float32(math.inf), np.float16(math.nan)):
        with pytest.raises(ConfigurationError, match="probe eps must be a positive finite"):
            SingularSetProbe(eps=eps)
    # past the integer-to-string digit limit, a refused value is shown as a power of two
    for eps, shown in ((Fraction(10**5000), "at least 2^16609"), (10**5000, "at least 2^16609"),
                       (Fraction(1, 10**5000), "about 2^-16609")):
        with pytest.raises(ConfigurationError, match=f"finite float, got {re.escape(shown)}$"):
            SingularSetProbe(eps=eps)
    for real in (Fraction(1, 3), np.float32(0.01), np.float64(0.5), 2, np.int64(3)):
        probe = SingularSetProbe(eps=real)
        assert type(probe.eps) is float and probe.eps == float(real)
        assert probe == SingularSetProbe(eps=float(real))


def test_strictness_flags():
    # the construction needs a strictly increasing f: every kind a spec
    # admits is one, so f rises across each dyadic cell of width 1/32
    assert KINDS == (SALEM,)
    xs = np.arange(33) / 32.0
    for kind in KINDS:
        values, _ = evaluate_many(SingularFunctionSpec(kind=kind), xs)
        assert (np.diff(values) > 0).all(), kind


def test_cantor_not_evaluated():
    # the devil's staircase is constant on intervals, so a cantor spec does
    # not build and nothing can evaluate it
    known = r"'cantor', expected one of \('salem',\)"
    with pytest.raises(ConfigurationError, match=known):
        SingularFunctionSpec(kind="cantor")


def test_eval_outside_domain():
    spec = SingularFunctionSpec()
    with pytest.raises(DomainError):
        evaluate(spec, -0.1)
    with pytest.raises(DomainError):
        evaluate(spec, 1.1)
    # NaN has no digit word; the vectorised kernels reject it too
    with pytest.raises(DomainError):
        evaluate_many(spec, np.array([0.5, math.nan]))
    with pytest.raises(DomainError):
        dyadic_slopes_many(spec, np.array([0.5, math.nan]), 10)


# ------------------------------------------------------------------ salem f


def test_endpoints_exact_all_kinds():
    for spec in (SingularFunctionSpec(), SingularFunctionSpec(lam=0.4)):
        assert evaluate(spec, 0.0) == (0.0, 0.0)
        assert evaluate(spec, 1.0) == (1.0, 0.0)


def test_identity_fixture_tracks_input(identity_f):
    value, err = evaluate(identity_f, 0.3)
    assert abs(value - 0.3) <= err
    # dyadic inputs reproduce exactly: the digit sum terminates
    for x in (0.5, 0.25, 0.375, 1 / 1024):
        assert evaluate(identity_f, x)[0] == x


def test_salem_one_recursion_step(salem_default):
    # L(1/2) = lam: one application of L(x) = lam + (1-lam) L(2x-1)
    value, err = evaluate(salem_default, 0.5)
    assert abs(value - 0.25) <= err
    assert abs(value - salem_recursive(0.5, 0.25)) <= err


def test_salem_two_recursion_steps(salem_default):
    value, err = evaluate(salem_default, 0.25)
    assert abs(value - 0.0625) <= err
    assert abs(value - salem_recursive(0.25, 0.25)) <= err


def test_salem_fixed_point_of_alternating_digits(salem_default):
    # x = 0.010101..._2 = 1/3 solves L(x) = lam^2 / (1 - lam(1-lam))
    value, err = evaluate(salem_default, 1 / 3)
    assert abs(value - 1 / 13) <= err + 1e-15


def test_salem_matches_recursive_oracle_on_random_points(salem_default):
    rng = seeded_rng(101)
    for x in rng.random(1000):
        value, err = evaluate(salem_default, float(x))
        oracle = salem_recursive(float(x), 0.25)
        # 1e-14 slack: the oracle recursion rounds once per level
        assert abs(value - oracle) <= err + 0.75**160 + 1e-14


def test_bound_is_zero_for_terminating_dyadics(salem_default):
    # no digit past the depth: f(T^depth x) = f(0) = 0, so the value is exact
    for x in (0.5, 0.375, 1 / 1024):
        assert evaluate(salem_default, x)[1] == 0.0
    _, bounds = evaluate_many(salem_default, np.array([0.5, 0.375, 1 / 1024, 2.0**-60]))
    assert list(bounds) == [0.0, 0.0, 0.0, 0.25**52]
    # a digit past the depth keeps the rise over the all-zero cell
    assert evaluate(salem_default, 2.0**-60)[1] == 0.25**52


def _oracle_points(depth: int) -> np.ndarray:
    """Random points plus digit patterns that stress the chunked sum."""
    rng = seeded_rng(808 + depth)
    edge = [1 - 2.0**-53, 2.0**-60, 1 / 3, 2 / 3, 0.5, 0.0]
    runs = [1 - 2.0**-m for m in range(1, 54, 4)] + [2.0**-m for m in range(1, 64, 4)]
    tails = list(rng.random(30) * 2.0**-20) + list(1 - rng.random(30) * 2.0**-20)
    return np.concatenate([rng.random(60), edge, runs, tails])


@pytest.mark.parametrize("lam", [0.01, 0.25, 0.75, 0.99])
@pytest.mark.parametrize("depth", [1, 7, 8, 9, 52, 63])
def test_salem_matches_exact_rational_truncation(lam, depth):
    # depths hit a lone partial chunk (1, 7), whole chunks (8) and a partial
    # last chunk (9, 52, 63); lam near 0 and 1 stresses the rise tables
    spec = SingularFunctionSpec(lam=lam, depth=depth)
    xs = _oracle_points(depth)
    values, bounds = evaluate_many(spec, xs)
    for x, v, s in zip(xs, values, bounds):
        value, rise = salem_truncation_exact(float(x), lam, depth)
        assert abs(Fraction(float(v)) - value) <= 2 * math.ulp(float(value)), x
        if float(x) * 2**depth == int(float(x) * 2**depth):
            assert s == 0.0, x
        else:
            assert abs(Fraction(float(s)) - rise) <= 2 * math.ulp(float(rise)), x


@pytest.mark.parametrize("lam", [0.01, 0.25, 0.75, 0.99])
@pytest.mark.parametrize("k", [1, 8, 40, 63])
def test_slopes_match_exact_digit_counts(lam, k):
    spec = SingularFunctionSpec(lam=lam, depth=63)
    xs = np.concatenate([seeded_rng(909).random(50), [1 - 2.0**-53, 2.0**-60, 1 / 3]])
    slopes = dyadic_slopes_many(spec, xs, k)
    for x, slope in zip(xs, slopes):
        # the exact rise times 2**k, correctly rounded
        o = bin(int(float(x) * 2**k)).count("1")
        expected = float(Fraction(lam) ** (k - o) * (1 - Fraction(lam)) ** o * 2**k)
        assert slope == expected


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_slope_is_one_row_of_the_array(kind):
    # the array call on a 2-d batch, row by row against the scalar call
    spec = SingularFunctionSpec(kind=kind)
    xs = np.concatenate([seeded_rng(910).random(20), [1 - 2.0**-53, 2.0**-60, 1 / 3, 0.5]])
    for k in (1, 8, 40, 52):
        slopes = dyadic_slopes_many(spec, xs.reshape(-1, 4), k).ravel()
        for x, slope in zip(xs, slopes):
            assert slope == dyadic_slope(spec, float(x), k)


def test_salem_error_bound_decays_with_depth():
    shallow = SingularFunctionSpec(depth=10)
    deep = SingularFunctionSpec(depth=52)
    assert shallow.error_bound == 0.75**10
    assert deep.error_bound == 0.75**52
    _, e_shallow = evaluate(shallow, 0.3)
    _, e_deep = evaluate(deep, 0.3)
    assert e_deep < e_shallow <= shallow.error_bound


# ----------------------------------------------------- monotonicity (bulk)


def test_strict_monotonicity_bulk_salem():
    spec = SingularFunctionSpec()
    rng = seeded_rng(202)
    pairs = rng.random((100_000, 2))
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    keep = hi - lo > 2.0 * spec.error_bound
    v_lo, _ = evaluate_many(spec, lo[keep])
    v_hi, _ = evaluate_many(spec, hi[keep])
    assert keep.sum() > 90_000
    assert (v_lo < v_hi).all()


@given(x=unit_floats, y=unit_floats)
def test_nonstrict_monotonicity_pointwise(x, y):
    # value-level ordering up to accumulation rounding (2 ulp); certified
    # ordering at macroscopic gaps is covered by the seeded bulk test
    spec = SingularFunctionSpec()
    x, y = min(x, y), max(x, y)
    v_x = evaluate(spec, x)[0]
    v_y = evaluate(spec, y)[0]
    assert v_x <= v_y + 2.0 * max(abs(v_y), 2.0**-1022) * 2.0**-52


@given(x=unit_floats)
def test_value_and_bound_ranges(x):
    for spec in (SingularFunctionSpec(), SingularFunctionSpec(lam=0.4)):
        v, e = evaluate(spec, x)
        assert 0.0 <= v <= 1.0
        assert 0.0 <= e <= spec.error_bound + 1e-18


def test_self_affine_identity(salem_default):
    # L(x/2) = lam * L(x), up to twice the truncation bound
    rng = seeded_rng(303)
    xs = rng.random(10_000)
    v_half, e_half = evaluate_many(salem_default, xs / 2.0)
    v_full, e_full = evaluate_many(salem_default, xs)
    gap = np.abs(v_half - 0.25 * v_full)
    assert (gap <= 2.0 * np.maximum(e_half, e_full) + 1e-15).all()


# ------------------------------------------------------------ digit words

#: x = 0, exact dyadics, the largest double below 1, and subnormals
_WORD_EDGES = [0.0, 0.5, 0.375, 2.0**-12, 1.0 - 2.0**-12, 2.0**-40 * 3, 1.0 - 2.0**-53,
               2.0**-1074, 2.0**-1022 - 2.0**-1074, 2.0**-1030]

dyadics = st.builds(lambda m, e: m / 2.0**e, st.integers(0, 2**20 - 1), st.integers(20, 80))
word_inputs = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    dyadics,
    st.floats(min_value=0.0, max_value=2.0**-1022, exclude_max=True),  # subnormals
    st.sampled_from(_WORD_EDGES),
)


def _floor_digits(x: float, k: int) -> int:
    return math.floor(Fraction(x) * 2**k)


def test_digit_words_are_the_leading_digits():
    # the exact floor(x 2^k) at every depth a sweep may use
    xs = np.array(_WORD_EDGES)
    for k in range(64):
        assert digit_words(xs, k).tolist() == [_floor_digits(x, k) for x in _WORD_EDGES]


@given(x=word_inputs, width=st.integers(0, 63), k=st.integers(0, 63))
def test_digit_words_shift_down_to_any_shallower_depth(x, width, k):
    # the projection sweep takes one word per coordinate, at the deepest
    # depth it needs, and shifts it down for every shallower use
    k = min(k, width)
    assert digit_words(np.array([x]), width)[0] >> (width - k) == digit_words(np.array([x]), k)[0]


def test_digit_words_shift_down_at_the_edges():
    xs = np.array(_WORD_EDGES)
    for width in range(64):
        for k in range(width + 1):
            np.testing.assert_array_equal(digit_words(xs, width) >> (width - k),
                                          digit_words(xs, k))


@pytest.mark.parametrize("lam", [0.01, 0.25, 0.75, 0.99])
@pytest.mark.parametrize("k", [1, 12, 40, 52])
def test_salem_slopes_are_the_probe_doubles(lam, k):
    # the probe's table by ones count compares the doubles dyadic_slopes_many
    # returns: the depth-k word with o leading ones has o ones
    spec = SingularFunctionSpec(lam=lam)
    table = salem_slopes(lam, k)
    assert not table.flags.writeable and table.shape == (k + 1,)
    xs = np.array([((1 << o) - 1 + 0.5) / 2**k for o in range(k + 1)])
    np.testing.assert_array_equal(dyadic_slopes_many(spec, xs, k), table)
    assert salem_slopes(lam, k) is table  # built once per (lam, k)


@pytest.mark.parametrize("lam", [0.01, 0.25, 0.4, 0.99])
@pytest.mark.parametrize("k", [1, 8, 52, 200])
def test_cylinder_lengths_round_the_exact_rises(lam, k):
    # entry o of the integer numerators over q^k is exactly lam^(k-o) (1-lam)^o,
    # and the kernel's table is each of them correctly rounded
    nums, den = _cylinder_numerators(lam, k)
    a = Fraction(lam)
    assert [Fraction(num, den) for num in nums] == [a ** (k - o) * (1 - a) ** o
                                                    for o in range(k + 1)]
    assert _cylinder_lengths(lam, k).tolist() == [float(Fraction(num, den)) for num in nums]


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), st.integers(1, 63))
def test_salem_slopes_are_monotone_in_the_ones_count(lam, k):
    # the probe's accepted ones counts form an interval (measure._inside_masks)
    steps = np.diff(salem_slopes(lam, k))
    assert np.all(steps >= 0.0) or np.all(steps <= 0.0)


# --------------------------------------------------------------- slopes


def test_slope_all_zero_digits(salem_default):
    # first k digits 0: product of k factors 2*lam
    x = 2.0**-11
    assert dyadic_slope(salem_default, x, 10) == pytest.approx(0.5**10, rel=1e-12)


def test_slope_all_one_digits(salem_default):
    x = 1.0 - 2.0**-11
    assert dyadic_slope(salem_default, x, 10) == pytest.approx(1.5**10, rel=1e-12)


def test_slope_identity_is_one(identity_f):
    for x in (0.1, 0.37, 0.9):
        assert dyadic_slope(identity_f, x, 20) == 1.0


def test_slope_matches_difference_quotient(salem_default):
    # independent route: evaluate the cell endpoints, which are exact dyadics
    rng = seeded_rng(404)
    k = 12
    for x in rng.random(200):
        cell = math.floor(float(x) * 2**k)
        a, b = cell / 2**k, (cell + 1) / 2**k
        va, _ = evaluate(salem_default, a)
        vb, _ = evaluate(salem_default, b)
        quotient = (vb - va) * 2**k
        assert dyadic_slope(salem_default, float(x), k) == pytest.approx(quotient, rel=1e-12)


def test_slope_depth_guard(salem_default):
    with pytest.raises(PrecisionError):
        dyadic_slope(salem_default, 0.3, 53)
    with pytest.raises(DomainError):
        dyadic_slope(salem_default, 0.0, 10)


@pytest.mark.parametrize("kind", KINDS)
def test_slope_depth_zero_and_negative(kind):
    spec = SingularFunctionSpec(kind=kind)
    xs = np.array([2.0**-40, 0.3, 0.5, 1.0 - 2.0**-40])
    # depth 0 is the one cell [0, 1), over which f rises by 1
    assert dyadic_slopes_many(spec, xs, 0).tolist() == [1.0] * xs.size
    assert dyadic_slope(spec, 0.3, 0) == 1.0
    with pytest.raises(DomainError, match="slope depth must be >= 0, got -1"):
        dyadic_slopes_many(spec, xs, -1)
    with pytest.raises(DomainError, match="slope depth must be >= 0, got -1"):
        dyadic_slope(spec, 0.3, -1)
    # a depth is an integer: floats, strings and bools are refused, True is no depth 1
    for k in (2.0, "3", True):
        for call in (lambda: dyadic_slopes_many(spec, xs, k), lambda: dyadic_slope(spec, 0.3, k)):
            with pytest.raises(ConfigurationError, match="slope depth must be an integer"):
                call()


# ------------------------------------------------------- singular-set probe


def test_in_singular_set_deep_zero_run(salem_default):
    probe = SingularSetProbe(depth=40, eps=0.01)
    assert in_singular_set(salem_default, probe, 2.0**-41)


def test_in_singular_set_identity_never(identity_f):
    probe = SingularSetProbe(depth=30, eps=0.999)
    rng = seeded_rng(505)
    assert not any(in_singular_set(identity_f, probe, float(x)) for x in rng.random(50))


def test_in_singular_set_alternating_digits(salem_default):
    probe = SingularSetProbe(depth=40, eps=0.01)
    x = sum(2.0 ** -(2 * j) for j in range(1, 21))  # digits 0101...
    slope = dyadic_slope(salem_default, x, 40)
    assert slope == pytest.approx(0.75**20, rel=1e-11)
    assert slope < 0.01
    assert in_singular_set(salem_default, probe, x)


def test_probe_membership_monotone_in_eps(salem_default):
    rng = seeded_rng(606)
    xs = rng.random(2000)
    narrow = in_singular_set_many(salem_default, SingularSetProbe(40, 0.003), xs)
    wide = in_singular_set_many(salem_default, SingularSetProbe(40, 0.03), xs)
    assert (wide | ~narrow).all()  # narrow set is contained in the wide one


def test_slope_concentration_statistics(salem_default):
    # thresholds frozen from a seeded Monte Carlo oracle run
    # (scripts/reproduce_headline.py): median 0.0032, P(slope < 0.01) = 0.68,
    # P(slope < 1) = 0.96 at this resolution
    rng = seeded_rng(12345)
    xs = rng.random(10_000)
    slopes = dyadic_slopes_many(salem_default, xs, 40)
    assert np.median(slopes) < 0.01
    assert np.mean(slopes < 0.01) >= 0.6
    assert np.mean(slopes < 1.0) >= 0.95


def test_vectorised_eval_agrees_with_scalar():
    # a batch holding the endpoints takes the kernels' endpoint path, a
    # scalar call inside (0,1) does not; both must give the same bits
    rng = seeded_rng(707)
    special = [0.0, 1.0, 0.5, 1 - 2.0**-53, 2.0**-1074, 2.0**-60]
    xs = np.concatenate([special, rng.random(40), rng.random(20) * 2.0**-9])
    for spec in (SingularFunctionSpec(), SingularFunctionSpec(lam=0.4)):
        values, errs = evaluate_many(spec, xs.reshape(-1, 6))
        for x, v, e in zip(xs, values.ravel(), errs.ravel()):
            sv, se = evaluate(spec, float(x))
            assert sv == v and se == e, (spec.lam, x)
