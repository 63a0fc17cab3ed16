import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest

from attncert import ScoreBox, certified_directional_min, directional_min
from attncert.certified import certified_sweep_min
from oracles import decimal_min_enclosure, scalar_certified_min

MAX_FLOAT = sys.float_info.max

K3_MIN = -0.6804790632423976


def box(lower, upper):
    return ScoreBox(lower=np.asarray(lower, float), upper=np.asarray(upper, float))


def rand_instance(rng, k, scale=1.0):
    centers = rng.uniform(-3, 3, k) * scale
    w = rng.uniform(0, 1, k) * scale
    c = rng.uniform(-2, 2, k)
    return c, box(centers - w, centers + w)


def test_degenerate_half():
    cb = certified_directional_min([0.0, 1.0], box([0.0, 0.0], [0.0, 0.0]))
    assert cb.float_value == 0.5
    assert 0.5 - 1e-9 <= cb.lower <= 0.5
    assert not cb.saturated


def test_k3_fixture_bound_bracket():
    cb = certified_directional_min([-1.0, 0.0, 1.0], box([-1.0] * 3, [1.0] * 3))
    assert K3_MIN - 1e-6 <= cb.lower <= K3_MIN
    assert cb.float_value == pytest.approx(K3_MIN, abs=1e-12)


def test_wide_dynamic_range_box():
    c = np.array([1.0, 0.0])
    b = box([-700.0, 0.0], [-690.0, 0.0])
    cb = certified_directional_min(c, b)
    assert not cb.saturated
    assert cb.lower >= 0.0
    assert cb.lower <= cb.float_value + 1e-9
    lo, hi = decimal_min_enclosure(c, b.lower, b.upper)
    assert Decimal(cb.lower) <= hi


def test_conservatism_and_sampled_floor():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        k = int(rng.integers(1, 11))
        c, b = rand_instance(rng, k)
        cb = certified_directional_min(c, b)
        assert not cb.saturated
        assert cb.lower <= cb.float_value + 1e-9
        pts = rng.uniform(b.lower, b.upper, size=(100, k))
        e = np.exp(pts - pts.max(axis=1, keepdims=True))
        vals = (e @ c) / e.sum(axis=1)
        assert vals.min() >= cb.lower


def test_tightness_well_scaled():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        c, b = rand_instance(rng, k, scale=10.0)
        assert np.abs(b.lower).max() <= 50 and np.abs(b.upper).max() <= 50
        cb = certified_directional_min(c, b)
        assert cb.lower >= cb.float_value - 1e-6


def test_against_decimal_oracle():
    rng = np.random.default_rng(23)
    for _ in range(120):
        k = int(rng.integers(1, 9))
        c, b = rand_instance(rng, k)
        cb = certified_directional_min(c, b)
        lo, hi = decimal_min_enclosure(c, b.lower, b.upper)
        assert Decimal(cb.lower) <= hi
        # The fast path sits inside the decimal enclosure up to float noise.
        assert Decimal(cb.float_value) >= lo - Decimal("1e-9")
        assert Decimal(cb.float_value) <= hi + Decimal("1e-9")


def test_underflow_denominator_falls_back_to_coefficient_floor():
    # All retained exponentials underflow for some thresholds; the bound must
    # stay finite and sound.
    c = np.array([2.0, -3.0])
    b = box([-1200.0, -1210.0], [-1190.0, -1205.0])
    cb = certified_directional_min(c, b)
    assert not cb.saturated
    assert cb.lower <= cb.float_value + 1e-9
    assert cb.lower >= c.min()


def test_never_below_coefficient_floor():
    rng = np.random.default_rng(24)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        c, b = rand_instance(rng, k)
        cb = certified_directional_min(c, b)
        assert cb.lower >= c.min()


def stacked_rows(rng, shape, k):
    """Rows with tied coefficients, degenerate and partly degenerate boxes,
    and lowers so far below the largest upper that the m = 0 denominator
    underflows."""
    c = rng.normal(size=shape + (k,))
    c[0] = np.round(c[0])
    c[1, 0] = 0.0
    lower = rng.uniform(-3, 3, shape + (k,))
    upper = lower + rng.uniform(0, 2, shape + (k,))
    upper[1, 1] = lower[1, 1]
    upper[1, 2, : k // 2] = lower[1, 2, : k // 2]
    lower[2] = upper[2].max(axis=-1, keepdims=True) - 800.0 - rng.uniform(0, 10, (shape[1], k))
    return c, lower, upper


class TestCertifiedSweepMin:
    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64, 256])
    def test_stacked_matches_rows(self, k):
        rng = np.random.default_rng(2000 + k)
        shape = (3, 5)
        c, lower, upper = stacked_rows(rng, shape, k)
        bound, saturated = certified_sweep_min(c, lower, upper)
        assert bound.shape == shape and saturated.shape == shape
        for idx in np.ndindex(shape):
            cb = certified_directional_min(c[idx], ScoreBox(lower=lower[idx], upper=upper[idx]))
            assert bound[idx] == cb.lower
            assert saturated[idx] == cb.saturated

    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64, 256])
    def test_close_to_scalar_reference(self, k):
        # The kernel pads whole running sums by an a-priori error bound where
        # the scalar reference nudged every addition; both are sound, and
        # they may differ by a few ulps of the coefficients' scale.
        rng = np.random.default_rng(3000 + k)
        c, lower, upper = stacked_rows(rng, (3, 5), k)
        c[2] *= 10.0 ** rng.integers(-6, 7, (5, 1))
        bound, saturated = certified_sweep_min(c, lower, upper)
        for idx in np.ndindex(c.shape[:-1]):
            ref, ref_saturated = scalar_certified_min(c[idx], lower[idx], upper[idx])
            assert saturated[idx] == ref_saturated
            assert abs(bound[idx] - ref) <= 1e-12 * max(1.0, np.abs(c[idx]).max())

    def test_inside_decimal_enclosure(self):
        rng = np.random.default_rng(25)
        for k in range(1, 9):
            n = 250
            centers = rng.uniform(-3, 3, (n, k)) * 10.0 ** rng.integers(-1, 2, (n, 1))
            w = rng.uniform(0, 1, (n, k)) * 10.0 ** rng.integers(-2, 2, (n, 1))
            c = rng.uniform(-2, 2, (n, k)) * 10.0 ** rng.integers(-3, 4, (n, 1))
            bound, saturated = certified_sweep_min(c, centers - w, centers + w)
            assert not saturated.any()
            for r in range(n):
                _, hi = decimal_min_enclosure(c[r], centers[r] - w[r], centers[r] + w[r])
                assert Decimal(bound[r]) <= hi

    def test_saturation_rows_flagged(self):
        c = np.array(
            [
                [MAX_FLOAT, MAX_FLOAT, 1.0],
                [-MAX_FLOAT, 0.5 * MAX_FLOAT, 0.9 * MAX_FLOAT],
                [1.0, -1.0, 0.5],
                [1.0, -1.0, 0.5],
            ]
        )
        lower = np.array([[0.0, 0.0, 0.0], [-1.0, -1.0, -1.0], [-1e308, 0.0, 1.0], [-1e308, -1e308, -1e308]])
        upper = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1e308, 2.0], [1e308, 1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound, saturated = certified_sweep_min(c, lower, upper)
        assert saturated.all()
        assert np.all(np.isfinite(bound)) and np.all(bound >= c.min(axis=-1))
        for r in range(len(c)):
            assert scalar_certified_min(c[r], lower[r], upper[r])[1]

    def test_no_rows(self):
        bound, saturated = certified_sweep_min(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        assert bound.shape == (0,) and saturated.shape == (0,)
