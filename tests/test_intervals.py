import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attncert import Interval, ValidationError, iv_add, iv_div, iv_exp, iv_mul
from oracles import E_HI_PREC, E_INV_HI_PREC

MAX_FLOAT = sys.float_info.max


def test_interval_invariants():
    with pytest.raises(ValidationError):
        Interval(2.0, 1.0)
    with pytest.raises(ValidationError):
        Interval(math.nan, 1.0)
    with pytest.raises(ValidationError):
        Interval(0.0, math.inf)
    assert Interval.point(3.0) == Interval(3.0, 3.0)


def test_exp_of_zero_tight():
    r = iv_exp(Interval.point(0.0))
    assert r.lo <= 1.0 <= r.hi
    assert r.hi - r.lo <= 1e-12
    assert not r.saturated


def test_exp_of_one_contains_e():
    r = iv_exp(Interval.point(1.0))
    assert Decimal(r.lo) <= E_HI_PREC <= Decimal(r.hi)


def test_exp_of_symmetric_interval():
    r = iv_exp(Interval(-1.0, 1.0))
    assert Decimal(r.lo) <= E_INV_HI_PREC
    assert E_HI_PREC <= Decimal(r.hi)


def test_exp_underflow_keeps_soundness():
    r = iv_exp(Interval.point(-800.0))
    assert r.lo == 0.0
    assert r.hi > 0.0
    assert not r.saturated


def test_exp_overflow_saturates():
    r = iv_exp(Interval(0.0, 800.0))
    assert r.saturated
    assert r.hi == MAX_FLOAT
    assert r.lo <= 1.0


def test_saturation_is_sticky():
    sat = iv_exp(Interval.point(800.0))
    assert iv_add(sat, Interval.point(1.0)).saturated
    assert iv_mul(sat, Interval.point(0.5)).saturated
    assert iv_div(Interval.point(1.0), sat).saturated


def test_add_mul_div_examples():
    r = iv_add(Interval(1.0, 2.0), Interval(3.0, 4.0))
    assert r.lo <= 4.0 and r.hi >= 6.0 and r.hi - r.lo <= 2.0 + 1e-12

    r = iv_mul(Interval(-1.0, 2.0), Interval(3.0, 4.0))
    assert r.lo <= -4.0 and r.hi >= 8.0 and r.hi - r.lo <= 12.0 + 1e-12

    r = iv_div(Interval.point(1.0), Interval.point(2.0))
    assert r.lo <= 0.5 <= r.hi
    assert r.hi - r.lo <= 1e-15


def test_div_rejects_nonpositive_divisor():
    with pytest.raises(ValidationError):
        iv_div(Interval.point(1.0), Interval.point(0.0))
    with pytest.raises(ValidationError):
        iv_div(Interval.point(1.0), Interval(-1.0, 2.0))
    with pytest.raises(ValidationError):
        iv_div(Interval.point(1.0), Interval(-2.0, -1.0))


def test_add_overflow_saturates_instead_of_inf():
    big = Interval.point(MAX_FLOAT)
    r = iv_add(big, big)
    assert r.saturated
    assert math.isfinite(r.hi)


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

        add_lo = np.empty(chunk); add_hi = np.empty(chunk)
        mul_lo = np.empty(chunk); mul_hi = np.empty(chunk)
        div_lo = np.empty(chunk); div_hi = np.empty(chunk)
        exp_lo = np.empty(chunk); exp_hi = np.empty(chunk)
        for i in range(chunk):
            a = Interval(a_lo[i], a_hi[i])
            b = Interval(b_lo[i], b_hi[i])
            r = iv_add(a, b); add_lo[i], add_hi[i] = r.lo, r.hi
            r = iv_mul(a, b); mul_lo[i], mul_hi[i] = r.lo, r.hi
            r = iv_div(a, b); div_lo[i], div_hi[i] = r.lo, r.hi
            r = iv_exp(a); exp_lo[i], exp_hi[i] = r.lo, r.hi

        ra = rng.random((chunk, pts))
        rb = rng.random((chunk, pts))
        xs = a_lo[:, None] + ra * (a_hi - a_lo)[:, None]
        ys = b_lo[:, None] + rb * (b_hi - b_lo)[:, None]
        s = xs + ys
        assert np.all((add_lo[:, None] <= s) & (s <= add_hi[:, None]))
        p = xs * ys
        assert np.all((mul_lo[:, None] <= p) & (p <= mul_hi[:, None]))
        q = xs / ys
        assert np.all((div_lo[:, None] <= q) & (q <= div_hi[:, None]))
        e = np.exp(xs)
        assert np.all((exp_lo[:, None] <= e) & (e <= exp_hi[:, None]))


_fin = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
_wid = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def _make(mid, w):
    return Interval(mid - w, mid + w)


@settings(max_examples=300, deadline=None)
@given(_fin, _wid, _wid, _fin, _wid)
def test_widening_monotone_add_mul_exp(mid_a, w_a, extra, mid_b, w_b):
    a = _make(mid_a, w_a)
    a_wide = _make(mid_a, w_a + extra)
    b = _make(mid_b, w_b)
    for op in (iv_add, iv_mul):
        narrow = op(a, b)
        wide = op(a_wide, b)
        assert wide.hi - wide.lo >= narrow.hi - narrow.lo
        assert wide.lo <= narrow.lo and narrow.hi <= wide.hi
    narrow = iv_exp(a)
    wide = iv_exp(a_wide)
    assert wide.hi - wide.lo >= narrow.hi - narrow.lo
    assert wide.lo <= narrow.lo and narrow.hi <= wide.hi


@settings(max_examples=300, deadline=None)
@given(_fin, _wid, _wid, st.floats(min_value=0.5, max_value=20.0), st.floats(min_value=0.0, max_value=0.4))
def test_widening_monotone_div(mid_a, w_a, extra, mid_b, w_b):
    a = _make(mid_a, w_a)
    a_wide = _make(mid_a, w_a + extra)
    b = _make(mid_b, w_b)
    narrow = iv_div(a, b)
    wide = iv_div(a_wide, b)
    assert wide.hi - wide.lo >= narrow.hi - narrow.lo
    assert wide.lo <= narrow.lo and narrow.hi <= wide.hi
