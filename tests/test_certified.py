import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from attncert import ScoreBox, certified_directional_min, directional_min
from attncert import certified, solver
from attncert.certified import certified_sweep_min
from attncert.solver import sweep_min
from oracles import (
    certified_error_bound_exact,
    certified_sweep_rowwise,
    certified_threshold_sums,
    decimal_min_enclosure,
    scalar_certified_min,
)
from test_intervals import boundary_neighbours
from test_solver import margin_stack

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


def test_fast_value_solved_only_when_read(monkeypatch):
    calls = []
    solve = certified.directional_min
    monkeypatch.setattr(certified, "directional_min", lambda c, b: calls.append(1) or solve(c, b))
    c, b = rand_instance(np.random.default_rng(20), 6)
    cb = certified_directional_min(c, b)
    assert not calls
    assert cb.float_value == solve(c, b).value
    assert cb.float_value == cb.float_value
    assert len(calls) == 1


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


def assert_only_magnitude_overflowed(bound, c, lower, upper):
    """A row that the interval kernels saturate on and the a-priori kernel
    does not: every denominator and numerator is finite and only the sum
    of the numerator terms' magnitudes overflows, which the kernel no
    longer forms.  Its bound is finite and sound."""
    _, den, num, mag = certified_threshold_sums(c, lower, upper)
    assert np.all(np.isfinite(den)) and np.all(np.isfinite(num))
    assert not np.all(np.isfinite(mag))
    assert np.isfinite(bound) and bound >= c.min()
    assert bound <= sweep_min(c, lower, upper)[0]
    assert Decimal(float(bound)) <= decimal_min_enclosure(c, lower, upper)[1]


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
        # Row 1 overflows only in its magnitude sum, which the kernel does
        # not form; the interval reference still saturates on it.
        assert saturated.tolist() == [True, False, True, True]
        assert np.all(np.isfinite(bound)) and np.all(bound >= c.min(axis=-1))
        assert_only_magnitude_overflowed(bound[1], c[1], lower[1], upper[1])
        for r in range(len(c)):
            assert scalar_certified_min(c[r], lower[r], upper[r])[1]

    def test_no_rows(self):
        bound, saturated = certified_sweep_min(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        assert bound.shape == (0,) and saturated.shape == (0,)


def box_pair(rng, shape):
    lower = rng.uniform(-3, 3, shape)
    return lower, lower + rng.uniform(0, 2, shape)


def broadcast_vector(rng):
    return (rng.normal(size=16),) + box_pair(rng, (40, 16))


def broadcast_target_stack(rng):
    # The certify_targets layout: (T, H, R, K) coefficients, (H, R, K) box.
    return (rng.normal(size=(9, 4, 16, 16)),) + box_pair(rng, (4, 16, 16))


def broadcast_mixed_box(rng):
    return rng.normal(size=(3, 5, 6)), rng.uniform(-3, -1, (3, 1, 6)), rng.uniform(0, 2, (5, 6))


def tied_coefficients(rng):
    c = np.round(rng.normal(size=(4, 30, 8)))
    c[0] = 1.0
    return (c,) + box_pair(rng, (30, 8))


def single_coordinate(rng):
    return (rng.normal(size=(5, 7, 1)),) + box_pair(rng, (7, 1))


def several_blocks_wide_rows(rng):
    return (rng.normal(size=(3, 40, 256)),) + box_pair(rng, (40, 256))


def near_dbl_max(rng):
    # Target 0's weighted sums overflow; the others' stay just finite.
    c = rng.choice([-1.0, 0.5, 1.0], (3, 4, 6)) * MAX_FLOAT * rng.uniform(0.1, 1.0, (3, 4, 6))
    c[1:] /= 8.0
    lower = np.array([[-1e308] * 6, [0.0] * 6, [-1.0] * 6, [1e300] * 6])
    upper = np.array([[1e308] * 6, [0.0] * 6, [1.0] * 6, [1e308] * 6])
    return c, lower, upper


def fully_underflowing(rng):
    # The largest upper sits on one coordinate, and every other endpoint
    # and that coordinate's lower are far below it: every candidate that
    # keeps the coordinate at its lower has a denominator whose lower
    # endpoint underflows to 0 or below.
    lower, upper = box_pair(rng, (20, 5))
    upper[:, 0] += 1000.0
    lower[:, 0] = upper[:, 0] - 800.0
    return rng.normal(size=(6, 20, 5)), lower, upper


# A block budget under which the stacked cases below span several blocks.
SMALL_BLOCK = 3072


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", SMALL_BLOCK)


class TestSharedBoxExponentials:
    @pytest.mark.parametrize(
        "case",
        [
            broadcast_vector,
            broadcast_target_stack,
            broadcast_mixed_box,
            tied_coefficients,
            single_coordinate,
            several_blocks_wide_rows,
            near_dbl_max,
            fully_underflowing,
        ],
    )
    def test_bit_identical_to_rowwise_reference(self, case, small_blocks):
        # Stacked, the kernel gives every row bit for bit what one call on
        # that row's own box gives; and it stays within 1e-12 of the
        # coefficients' scale of the interval kernel it replaced, with the
        # same saturation flags except on rows where only the magnitude sum
        # overflows, on which only the interval kernel saturates.  A
        # saturated row's value certifies nothing, so only rows the interval
        # kernel does not saturate on are compared with it.
        c, lower, upper = case(np.random.default_rng(4000))
        bound, saturated = certified_sweep_min(c, lower, upper)
        shape = np.broadcast_shapes(c.shape, lower.shape, upper.shape)
        assert bound.shape == saturated.shape == shape[:-1]
        c, lower, upper = (np.broadcast_to(a, shape) for a in (c, lower, upper))
        for idx in np.ndindex(shape[:-1]):
            row_bound, row_saturated = certified_sweep_min(c[idx], lower[idx], upper[idx])
            assert row_bound.view(np.uint64) == bound[idx].view(np.uint64)
            assert row_saturated == saturated[idx]
        ref_bound, ref_saturated = certified_sweep_rowwise(c, lower, upper)
        assert not np.any(saturated & ~ref_saturated)
        for idx in zip(*np.nonzero(ref_saturated & ~saturated)):
            assert_only_magnitude_overflowed(bound[idx], c[idx], lower[idx], upper[idx])
        scale = np.maximum(1.0, np.abs(c).max(axis=-1))
        assert np.all(np.abs(bound - ref_bound)[~ref_saturated] <= 1e-12 * scale[~ref_saturated])

    def test_cases_reach_their_edge(self, small_blocks):
        # The cases above are not vacuous: some rows saturate, every row of
        # the underflowing case has a candidate whose denominator underflows
        # to 0, so its bound is the coefficient floor although the fast
        # sweep's value is above it, and the stacked cases span several
        # kernel blocks.
        saturated = certified_sweep_min(*near_dbl_max(np.random.default_rng(4000)))[1]
        assert saturated.any() and not saturated.all()
        c, lower, upper = fully_underflowing(np.random.default_rng(4000))
        bound, saturated = certified_sweep_min(c, lower, upper)
        assert not saturated.any()
        assert np.array_equal(bound, c.min(axis=-1))
        assert np.any(sweep_min(c, lower, upper)[0] > c.min(axis=-1))
        for case in (broadcast_target_stack, several_blocks_wide_rows):
            c = case(np.random.default_rng(4000))[0]
            assert c.size > 2 * solver._BLOCK_ELEMENTS

    def test_no_rows_against_a_box(self):
        lower, upper = box_pair(np.random.default_rng(1), (4, 3))
        bound, saturated = certified_sweep_min(np.zeros((0, 4, 3)), lower, upper)
        assert bound.shape == (0, 4) and saturated.shape == (0, 4)

    def test_shift_saturation_reaches_every_target(self):
        # Box row (1, 2) overflows only in the shift: lower - max(upper) is
        # -2e308.  Every target's coefficient row on it must be saturated,
        # and no other row.
        rng = np.random.default_rng(5)
        lower, upper = box_pair(rng, (2, 4, 6))
        lower[1, 2, 0] = -1e308
        upper[1, 2, 3] = 1e308
        c = rng.normal(size=(5, 2, 4, 6))
        bound, saturated = certified_sweep_min(c, lower, upper)
        expected = np.zeros((5, 2, 4), dtype=bool)
        expected[:, 1, 2] = True
        assert np.array_equal(saturated, expected)
        assert np.all(bound >= c.min(axis=-1))


def wide_scale_rows(seed, n):
    """n rows with K from 1 to 39, box widths up to 10**2.7 and coefficients
    scaled by 1, 1e+-150 or 1e+-300.  Every fourth row cancels: two
    degenerate coordinates on the same score carry coefficients +-1e20
    against O(1) others, so the computed numerator loses everything but its
    rounding error, and only the bound's eps*max|c| term covers that
    error."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        k = int(rng.integers(3 if i % 4 == 3 else 1, 40))
        lower = rng.uniform(-3, 3, k)
        upper = lower + rng.uniform(0, 1, k) * 10.0 ** rng.uniform(-3, 2.7)
        c = rng.uniform(-2, 2, k) * 10.0 ** rng.choice([0, 150, -150, 300, -300])
        if i % 4 == 3:
            upper = lower + rng.uniform(0, 1, k)
            c = rng.uniform(-2, 2, k)
            c[:2] = (1e20, -1e20)
            lower[1] = upper[1] = upper[0] = lower[0]
        rows.append((c, lower, upper))
    return rows


class TestAPrioriErrorBound:
    def test_inside_decimal_enclosure_and_below_fast_value(self):
        floored = 0
        for c, lower, upper in wide_scale_rows(26, 640):
            bound, saturated = certified_sweep_min(c, lower, upper)
            assert not saturated
            assert bound <= sweep_min(c, lower, upper)[0]
            _, hi = decimal_min_enclosure(c, lower, upper)
            assert Decimal(float(bound)) <= hi
            floored += bound == c.min()
        # Most rows get a real bound, not the coefficient floor.
        assert floored < 640 // 4

    def test_float_evaluation_never_above_exact_bound(self):
        # The kernel evaluates its per-row error terms f and g in floats,
        # pads them by 1 + 2**-47 and adds 2**-1069 to g; the result is never
        # above the bound the same formula gives in exact arithmetic.  Rows
        # whose optimum is 0 (a point box whose scores repeat under
        # coefficients of opposite sign) leave the final nextafter no slack
        # to absorb a low g, so there the pad and the slack alone keep the
        # bound below.
        rng = np.random.default_rng(27)
        rows = wide_scale_rows(28, 200)
        for _ in range(400):
            k = int(rng.integers(1, 9))
            s = np.tile(rng.uniform(-3, 3, k), 2)
            c = rng.uniform(-2, 2, k) * 10.0 ** rng.integers(-3, 4)
            rows.append((np.concatenate((c, -c)), s, s))
        for c, lower, upper in rows:
            bound, _ = certified_sweep_min(c, lower, upper)
            assert Fraction(float(bound)) <= certified_error_bound_exact(c, lower, upper)

    def test_gap_to_fast_value_is_small(self):
        # The per-row bound is not loose: on the margin layout and on the
        # wide-scale rows, every row that is neither saturated nor floored
        # sits at most 1e-12 of the coefficients' scale below the fast value.
        rows = wide_scale_rows(26, 640)
        c, lower, upper = margin_stack(np.random.default_rng(29))
        rows += [(c[idx], lower[idx[1:]], upper[idx[1:]]) for idx in np.ndindex(c.shape[:-1])]
        checked = 0
        for c, lower, upper in rows:
            bound, saturated = certified_sweep_min(c, lower, upper)
            if saturated or bound == c.min():
                continue
            gap = sweep_min(c, lower, upper)[0] - bound
            assert 0.0 <= gap <= 1e-12 * max(1.0, np.abs(c).max())
            checked += 1
        assert checked > 576 + 640 // 2

    def test_sound_at_exponential_edges(self):
        # Shifted scores (the largest upper end is 0) on the reduction
        # boundaries -(k + 1/2)*ln 2 of intervals.exp and its neighbours, and
        # in the range [-745.2, -708.4] where the exponentials are
        # subnormal: every bound lies between min c and the lower end of the
        # Decimal enclosure, in one batched call and row by row.
        rng = np.random.default_rng(32)
        rows = []
        for _ in range(60):
            near = boundary_neighbours(rng.integers(0, 5, 4))[rng.integers(0, 12, 4)]
            deep = boundary_neighbours(rng.integers(0, 1077, 2))[rng.integers(0, 6, 2)]
            sub = rng.uniform(-745.2, -708.4, (2, 2))
            lower = np.concatenate((near, deep, sub.min(axis=0)))
            upper = np.concatenate(([0.0], near[1:], deep, sub.max(axis=0)))
            rows.append((rng.uniform(-2, 2, 8), lower, upper))
        c, lower, upper = (np.stack(a) for a in zip(*rows))
        bounds, saturated = certified_sweep_min(c, lower, upper)
        assert not saturated.any()
        for r in range(len(rows)):
            assert certified_sweep_min(c[r], lower[r], upper[r])[0] == bounds[r]
            lo, _ = decimal_min_enclosure(c[r], lower[r], upper[r])
            assert c[r].min() <= bounds[r] and Decimal(float(bounds[r])) <= lo

    def test_shift_error_capped(self):
        # A lower endpoint of -1e300 shifts to -1e300, whose rounding error
        # is about 1e284; the relative exp error it implies is capped, since
        # the exponential underflows either way, so the row stays sharp.
        c = np.array([1.0, -1.0, 0.5])
        lower = np.array([-1e300, 0.0, -1.0])
        upper = np.array([0.0, 1.0, 1.0])
        bound, saturated = certified_sweep_min(c, lower, upper)
        fast = sweep_min(c, lower, upper)[0]
        assert not saturated
        assert fast - 1e-12 <= bound <= fast
        assert Decimal(float(bound)) <= decimal_min_enclosure(c, lower, upper)[1]
