import math
import sys
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attncert import ScoreBox, ValidationError, intervals
from oracles import E_HI_PREC, E_INV_HI_PREC, Intervals, add, cumsum, div, exp, mul, point

MAX_FLOAT = sys.float_info.max


def iv(lo, hi):
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return Intervals(lo, hi, np.zeros(lo.shape, dtype=bool))


def running_sums(x):
    """cumsum over the terms x, laid out as the planes it takes."""
    return cumsum(np.stack((x.lo, x.hi, x.hi)), x.saturated)


def test_interval_invariants():
    # The operations trust their operands; malformed endpoints are rejected
    # where they enter, at the box boundary.
    with pytest.raises(ValidationError):
        ScoreBox(lower=np.array([2.0]), upper=np.array([1.0]))
    with pytest.raises(ValidationError):
        ScoreBox(lower=np.array([math.nan]), upper=np.array([1.0]))
    with pytest.raises(ValidationError):
        ScoreBox(lower=np.array([0.0]), upper=np.array([math.inf]))
    p = point(3.0)
    assert p.lo == 3.0 and p.hi == 3.0 and not p.saturated


def test_exp_of_zero_tight():
    r = exp(point(0.0))
    assert r.lo <= 1.0 <= r.hi
    assert r.hi - r.lo <= 1e-12
    assert not r.saturated


def test_exp_of_one_contains_e():
    r = exp(point(1.0))
    assert Decimal(float(r.lo)) <= E_HI_PREC <= Decimal(float(r.hi))


def test_exp_of_symmetric_interval():
    r = exp(iv(-1.0, 1.0))
    assert Decimal(float(r.lo)) <= E_INV_HI_PREC
    assert E_HI_PREC <= Decimal(float(r.hi))


def test_exp_underflow_keeps_soundness():
    r = exp(point(-800.0))
    assert r.lo == 0.0
    assert r.hi > 0.0
    assert not r.saturated


def test_exp_overflow_saturates():
    r = exp(iv(0.0, 800.0))
    assert r.saturated
    assert r.hi == MAX_FLOAT
    assert r.lo <= 1.0


def test_saturation_is_sticky():
    sat = exp(point(800.0))
    assert add(sat, point(1.0)).saturated
    assert mul(sat, point(0.5)).saturated
    assert div(point(1.0), sat).saturated
    terms = Intervals(*(np.array([a, b]) for a, b in zip(point(1.0), sat)))
    assert running_sums(terms).saturated.tolist() == [False, True]


def test_add_mul_div_examples():
    r = add(iv(1.0, 2.0), iv(3.0, 4.0))
    assert r.lo <= 4.0 and r.hi >= 6.0 and r.hi - r.lo <= 2.0 + 1e-12

    r = mul(iv(-1.0, 2.0), iv(3.0, 4.0))
    assert r.lo <= -4.0 and r.hi >= 8.0 and r.hi - r.lo <= 12.0 + 1e-12

    r = div(point(1.0), point(2.0))
    assert r.lo <= 0.5 <= r.hi
    assert r.hi - r.lo <= 1e-15


def test_point_operand_matches_point_interval():
    # A plain array operand takes two products instead of four; the result,
    # flags included, is the same as for the degenerate intervals.
    rng = np.random.default_rng(8)
    a = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
    a[:3] = (0.0, -0.0, MAX_FLOAT)
    lo = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
    b = Intervals(lo, lo + np.abs(rng.standard_normal(200)) * np.abs(lo), rng.random(200) < 0.1)
    got, want = mul(a, b), mul(point(a), b)
    assert got.saturated.any() and not got.saturated.all()
    for x, y in zip(got, want):
        assert np.array_equal(np.asarray(x).view(np.uint8), np.asarray(y).view(np.uint8))


def test_div_rejects_nonpositive_divisor():
    # A divisor interval that contains zero bounds nothing: the quotient is
    # the whole float range, saturated.  A negative one is an ordinary divisor.
    for divisor in (point(0.0), iv(-1.0, 2.0)):
        r = div(point(1.0), divisor)
        assert r.saturated
        assert r.lo == -MAX_FLOAT and r.hi == MAX_FLOAT
    r = div(point(1.0), iv(-2.0, -1.0))
    assert not r.saturated
    assert r.lo <= -1.0 and -0.5 <= r.hi and r.hi - r.lo <= 0.5 + 1e-12


def test_add_overflow_saturates_instead_of_inf():
    big = point(MAX_FLOAT)
    r = add(big, big)
    assert r.saturated
    assert math.isfinite(r.hi)


def test_cumsum_encloses_the_exact_running_sums():
    # Terms of mixed sign and magnitude, so every sum rounds; the exact
    # running sums are taken in 60-digit decimal.
    rng = np.random.default_rng(7)
    lo = rng.standard_normal((50, 64)) * 10.0 ** rng.integers(-8, 8, (50, 64))
    hi = lo + np.abs(rng.standard_normal((50, 64)))
    r = running_sums(iv(lo, hi))
    assert not r.saturated.any()
    for row in range(50):
        s_lo = s_hi = Decimal(0)
        for j in range(64):
            s_lo += Decimal(lo[row, j])
            s_hi += Decimal(hi[row, j])
            assert Decimal(r.lo[row, j]) <= s_lo and s_hi <= Decimal(r.hi[row, j])


def test_enclosure_soundness_mass():
    # 10^5 random operand pairs per op, 100 sample points each; every sampled
    # float result must land inside the returned enclosure.
    rng = np.random.default_rng(20250814)
    total, chunk, pts = 100_000, 10_000, 100
    for _ in range(total // chunk):
        a_mid = rng.uniform(-5.0, 5.0, chunk)
        a_w = rng.uniform(0.0, 2.0, chunk)
        b_mid = rng.uniform(0.5, 5.0, chunk)
        b_w = rng.uniform(0.0, 0.4, chunk)
        a_lo, a_hi = a_mid - a_w, a_mid + a_w
        b_lo, b_hi = b_mid - b_w, b_mid + b_w
        a, b = iv(a_lo, a_hi), iv(b_lo, b_hi)
        s_iv, p_iv, q_iv, e_iv = add(a, b), mul(a, b), div(a, b), exp(a)

        ra = rng.random((chunk, pts))
        rb = rng.random((chunk, pts))
        xs = a_lo[:, None] + ra * (a_hi - a_lo)[:, None]
        ys = b_lo[:, None] + rb * (b_hi - b_lo)[:, None]
        for r, v in ((s_iv, xs + ys), (p_iv, xs * ys), (q_iv, xs / ys), (e_iv, np.exp(xs))):
            assert not r.saturated.any()
            assert np.all((r.lo[:, None] <= v) & (v <= r.hi[:, None]))


_fin = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
_wid = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def _make(mid, w):
    return iv(mid - w, mid + w)


def _width(r):
    return float(r.hi - r.lo)


@settings(max_examples=300, deadline=None)
@given(_fin, _wid, _wid, _fin, _wid)
def test_widening_monotone_add_mul_exp(mid_a, w_a, extra, mid_b, w_b):
    a = _make(mid_a, w_a)
    a_wide = _make(mid_a, w_a + extra)
    b = _make(mid_b, w_b)
    for op in (add, mul):
        narrow = op(a, b)
        wide = op(a_wide, b)
        assert _width(wide) >= _width(narrow)
        assert wide.lo <= narrow.lo and narrow.hi <= wide.hi
    narrow = exp(a)
    wide = exp(a_wide)
    assert _width(wide) >= _width(narrow)
    assert wide.lo <= narrow.lo and narrow.hi <= wide.hi


@settings(max_examples=300, deadline=None)
@given(_fin, _wid, _wid, st.floats(min_value=0.5, max_value=20.0), st.floats(min_value=0.0, max_value=0.4))
def test_widening_monotone_div(mid_a, w_a, extra, mid_b, w_b):
    a = _make(mid_a, w_a)
    a_wide = _make(mid_a, w_a + extra)
    b = _make(mid_b, w_b)
    narrow = div(a, b)
    wide = div(a_wide, b)
    assert _width(wide) >= _width(narrow)
    assert wide.lo <= narrow.lo and narrow.hi <= wide.hi


# The package's own exponential (attncert.intervals.exp), against 60-digit
# Decimal exp: every result is within EXP_KAPPA*u of the true value
# relatively, plus 2**-1074 absolutely, as its module docstring proves.
_EXACT = Context(prec=60)
_LN2 = _EXACT.ln(Decimal(2))


def assert_exp_bound(x):
    x = np.asarray(x, dtype=np.float64)
    before = x.copy()
    got = intervals.exp(x)
    assert np.array_equal(x, before)
    assert got.shape == x.shape and got.max() <= 1.0
    with localcontext(_EXACT):
        kappa_u = Decimal(intervals.EXP_KAPPA) * Decimal(2) ** -53
        mu = Decimal(2) ** -1074
        for xi, gi in zip(x.ravel().tolist(), got.ravel().tolist()):
            e = Decimal(xi).exp() if xi > -math.inf else Decimal(0)
            assert abs(Decimal(gi) - e) <= kappa_u * e + mu, (xi, gi)


def boundary_neighbours(ks):
    """The float nearest each reduction boundary -(k + 1/2)*ln 2 and its
    two neighbours."""
    b = np.array([float(_EXACT.multiply(-(Decimal(int(k)) + Decimal("0.5")), _LN2)) for k in ks])
    return np.concatenate((np.nextafter(b, -np.inf), b, np.nextafter(b, 0.0)))


def test_package_exp_on_a_grid():
    rng = np.random.default_rng(30)
    assert_exp_bound(np.concatenate((np.linspace(-746.0, 0.0, 3001), -rng.uniform(0.0, 746.0, 3000))))
    assert_exp_bound(-rng.uniform(0.0, 1.0, (40, 50)))


def test_package_exp_at_reduction_boundaries():
    assert_exp_bound(boundary_neighbours(range(1077)))


def test_package_exp_subnormal_results():
    rng = np.random.default_rng(31)
    assert_exp_bound(np.concatenate((np.linspace(-745.2, -708.4, 2001), rng.uniform(-745.2, -708.4, 1000))))


def test_package_exp_edge_arguments():
    x = np.array([0.0, -0.0, -5e-324, -np.inf, -746.0, -1e300, -sys.float_info.max])
    assert intervals.exp(x).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert_exp_bound(x)


def test_package_exp_ln2_split():
    # k * ln2_hi is exact for |k| <= 1077 (11 bits) when ln2_hi has at least
    # 11 trailing zero bits, and ln2_hi + ln2_lo is within half an ulp of
    # ln2_lo of ln 2.
    hi, lo = intervals._LN2_HI, intervals._LN2_LO
    assert np.array(hi).view(np.int64) & (2**11 - 1) == 0
    assert math.ulp(lo) == 2.0**-85
    assert abs(Decimal(hi) + Decimal(lo) - _LN2) <= Decimal(2) ** -86
