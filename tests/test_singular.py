import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from antichain import (
    CANTOR,
    MINKOWSKI,
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
from antichain.singular import KINDS, dyadic_slopes_many, in_singular_set_many

from oracles import salem_recursive, salem_truncation_exact, seeded_rng

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------- validation


def test_lambda_half_rejected_without_flag():
    with pytest.raises(ConfigurationError):
        SingularFunctionSpec(lam=0.5)
    SingularFunctionSpec(lam=0.5, allow_non_singular=True)  # fixture escape hatch


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.1, 1.5])
def test_lambda_out_of_range_rejected(lam):
    with pytest.raises(ConfigurationError):
        SingularFunctionSpec(lam=lam)


@pytest.mark.parametrize("depth", [0, -3, 64, 100])
def test_depth_out_of_range_rejected(depth):
    with pytest.raises(ConfigurationError):
        SingularFunctionSpec(depth=depth)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        SingularFunctionSpec(kind="devil")


def test_probe_validation():
    with pytest.raises(ConfigurationError):
        SingularSetProbe(depth=0)
    with pytest.raises(ConfigurationError):
        SingularSetProbe(eps=0.0)
    with pytest.raises(ConfigurationError):
        SingularSetProbe(eps=-1.0)


def test_strictness_flags():
    assert SingularFunctionSpec().strictly_increasing
    assert SingularFunctionSpec(kind=MINKOWSKI).strictly_increasing
    assert not SingularFunctionSpec(kind=CANTOR).strictly_increasing


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
    for kind in (None, MINKOWSKI, CANTOR):
        spec = SingularFunctionSpec() if kind is None else SingularFunctionSpec(kind=kind)
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
    # the array call on a 2-d batch, row by row against the scalar call; for
    # minkowski and cantor also against f at the exact cell ends
    spec = SingularFunctionSpec(kind=kind)
    xs = np.concatenate([seeded_rng(910).random(20), [1 - 2.0**-53, 2.0**-60, 1 / 3, 0.5]])
    for k in (1, 8, 40, 52):
        slopes = dyadic_slopes_many(spec, xs.reshape(-1, 4), k).ravel()
        for x, slope in zip(xs, slopes):
            assert slope == dyadic_slope(spec, float(x), k)
            if kind != "salem":
                cell = math.floor(float(x) * 2**k)
                va, vb = (evaluate(spec, c / 2**k)[0] for c in (cell, cell + 1))
                assert slope == (vb - va) * 2**k


def test_salem_error_bound_decays_with_depth():
    shallow = SingularFunctionSpec(depth=10)
    deep = SingularFunctionSpec(depth=52)
    assert shallow.error_bound == 0.75**10
    assert deep.error_bound == 0.75**52
    _, e_shallow = evaluate(shallow, 0.3)
    _, e_deep = evaluate(deep, 0.3)
    assert e_deep < e_shallow <= shallow.error_bound


# ------------------------------------------------------------- minkowski ?


def test_minkowski_known_values():
    spec = SingularFunctionSpec(kind=MINKOWSKI)
    assert evaluate(spec, 0.5)[0] == 0.5
    v, e = evaluate(spec, 1 / 3)
    assert abs(v - 0.25) <= e + 1e-12
    v, e = evaluate(spec, 0.4)
    assert abs(v - 0.375) <= e + 1e-12
    # golden section: all partial quotients 1, ? value 2/3
    v, e = evaluate(spec, (math.sqrt(5) - 1) / 2)
    assert abs(v - 2 / 3) <= 1e-9
    # sqrt(2)-1 has quotients 2,2,2,...: alternating sum 2/5
    v, e = evaluate(spec, math.sqrt(2) - 1)
    assert abs(v - 0.4) <= 1e-9


def _minkowski_sum(quotients) -> Fraction:
    """Exact alternating dyadic series of ? over the given partial quotients."""
    value, exponent, sign = Fraction(0), 1, 1
    for a in quotients:
        exponent -= a
        value += sign * Fraction(2) ** exponent
        sign = -sign
    return value


@pytest.mark.parametrize("depth", [8, 52])
def test_minkowski_within_rounding_allowance(depth):
    # values stay within rounding_ulps of the exact sum over the quotients the
    # kernel keeps (the first depth, clamped at 62), and the exact ? value
    # within the truncation bound plus that allowance; quotients past 2000
    # (from 2^-70 and 1 - 2^-53) move ? by under 2^-1998, so they are
    # clamped there to keep the exact powers of two small
    spec = SingularFunctionSpec(kind=MINKOWSKI, depth=depth)
    xs = np.concatenate([seeded_rng(707).random(60), [1 / 3, 0.4, 2.0**-70, 1 - 2.0**-53]])
    for x in xs:
        num, den = Fraction(float(x)).denominator, Fraction(float(x)).numerator
        quotients = []
        while den:
            a, num = divmod(num, den)
            num, den = den, num
            quotients.append(a)
        kept = _minkowski_sum(min(a, 62) for a in quotients[:depth])
        v, e = evaluate(spec, float(x))
        allowance = spec.rounding_ulps * math.ulp(float(kept))
        assert abs(Fraction(v) - kept) <= allowance, x
        exact = _minkowski_sum(min(a, 2000) for a in quotients)
        assert abs(Fraction(v) - exact) <= Fraction(e) + allowance + Fraction(2) ** -1998, x


def test_minkowski_dyadic_fixed_points():
    # ? maps dyadic rationals to themselves only at 0, 1/2, 1
    spec = SingularFunctionSpec(kind=MINKOWSKI)
    assert evaluate(spec, 0.5) == (0.5, 0.0)
    v, _ = evaluate(spec, 0.25)
    assert v != 0.25  # ?(1/4) = 3/16... strictly below


# ---------------------------------------------------------------- cantor C


def test_cantor_known_values():
    spec = SingularFunctionSpec(kind=CANTOR)
    v, _ = evaluate(spec, 1 / 3)
    assert abs(v - 0.5) <= 1e-9
    v, _ = evaluate(spec, 0.25)  # 0.020202..._3 -> 1/3
    assert abs(v - 1 / 3) <= 1e-9


def test_cantor_flat_on_excised_interval():
    # eval is constant across (13/27, 14/27): strictness genuinely fails
    spec = SingularFunctionSpec(kind=CANTOR)
    xs = np.linspace(13 / 27 + 1e-6, 14 / 27 - 1e-6, 25)
    values = [evaluate(spec, float(x))[0] for x in xs]
    assert all(v == values[0] for v in values)
    assert values[0] == 0.5


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


def test_monotonicity_bulk_minkowski():
    # ? is doubly-exponentially flat near every rational, so true gaps fall
    # below one binary64 ulp on ~0.06% of admissible pairs; there strictness
    # cannot survive rounding.  The sound form: never misordered beyond the
    # certified bounds, and strict whenever the computed gap is certifiable.
    spec = SingularFunctionSpec(kind=MINKOWSKI)
    rng = seeded_rng(202)
    pairs = rng.random((100_000, 2))
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    keep = hi - lo > 2.0 * spec.error_bound
    v_lo, e_lo = evaluate_many(spec, lo[keep])
    v_hi, e_hi = evaluate_many(spec, hi[keep])
    combined = e_lo + e_hi
    assert keep.sum() > 90_000
    assert (v_lo <= v_hi + combined).all()
    assert (v_lo < v_hi).mean() >= 0.999
    certifiable = np.abs(v_lo - v_hi) > combined
    assert (v_lo[certifiable] < v_hi[certifiable]).all()


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
    for kind in ("salem", MINKOWSKI, CANTOR):
        spec = SingularFunctionSpec(kind=kind)
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


def test_slope_generic_path_for_minkowski():
    spec = SingularFunctionSpec(kind=MINKOWSKI)
    # ? is steeper than 1 around 1/2: slope of the containing cell is finite, positive
    s = dyadic_slope(spec, 0.49, 8)
    assert s > 0.0


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
    for kind in KINDS:
        spec = SingularFunctionSpec(kind=kind)
        values, errs = evaluate_many(spec, xs.reshape(-1, 6))
        for x, v, e in zip(xs, values.ravel(), errs.ravel()):
            sv, se = evaluate(spec, float(x))
            assert sv == v and se == e, (kind, x)
