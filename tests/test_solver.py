import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from attncert import (
    ScoreBox,
    ValidationError,
    attack_min_objective,
    directional_max,
    directional_min,
    exhaustive_vertex_min,
    softmax_objective,
)
from attncert.solver import sweep_min
from oracles import decimal_min_enclosure, naive_vertex_min

# Frozen oracle values (exhaustive enumeration, see oracles.naive_vertex_min).
K3_C = np.array([-1.0, 0.0, 1.0])
K3_BOX = ScoreBox(lower=np.full(3, -1.0), upper=np.full(3, 1.0))
K3_MIN = -0.6804790632423976
K2_MIN = 0.11920292202211755  # 1/(1+e^2) up to float evaluation


def box(lower, upper):
    return ScoreBox(lower=np.asarray(lower, float), upper=np.asarray(upper, float))


def rand_instance(rng, k, width=1.0):
    centers = rng.uniform(-3, 3, k)
    w = rng.uniform(0, width, k)
    c = rng.uniform(-2, 2, k)
    return c, box(centers - w, centers + w)


class TestSoftmaxObjective:
    def test_uniform(self):
        assert softmax_objective([0.0, 1.0], [0.0, 0.0]) == 0.5

    def test_constant_direction_sums_to_one(self):
        assert softmax_objective([1.0, 1.0, 1.0], [3.0, -2.0, 0.7]) == 1.0

    def test_skewed(self):
        v = softmax_objective([0.0, 1.0], [1.0, -1.0])
        assert v == pytest.approx(K2_MIN, abs=1e-15)
        assert v == pytest.approx(1.0 / (1.0 + math.e**2), abs=1e-12)

    def test_shift_stability_extreme(self):
        v = softmax_objective([0.0, 1.0], [1000.0, 998.0])
        assert v == pytest.approx(1.0 / (1.0 + math.e**2), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            softmax_objective([1.0], [0.0, 0.0])


class TestScoreBox:
    def test_validation(self):
        with pytest.raises(ValidationError):
            box([1.0], [0.0])
        with pytest.raises(ValidationError):
            box([], [])
        with pytest.raises(ValidationError):
            box([0.0], [np.inf])
        with pytest.raises(ValidationError):
            box([0.0, 0.0], [1.0])

    def test_degenerate_allowed(self):
        b = box([1.0, 2.0], [1.0, 3.0])
        assert b.size == 2


class TestDirectionalMin:
    def test_degenerate_box(self):
        r = directional_min([0.0, 1.0], box([0.0, 0.0], [0.0, 0.0]))
        assert r.value == 0.5
        assert np.array_equal(r.vertex, [0.0, 0.0])

    def test_k3_fixture(self):
        r = directional_min(K3_C, K3_BOX)
        assert r.value == pytest.approx(K3_MIN, abs=1e-12)
        assert r.m == 1
        assert np.array_equal(r.vertex, [1.0, -1.0, -1.0])
        assert r.sense == "min"

    def test_k2_fixture(self):
        r = directional_min([0.0, 1.0], box([-1.0, -1.0], [1.0, 1.0]))
        assert r.value == pytest.approx(K2_MIN, abs=1e-12)
        assert np.array_equal(r.vertex, [1.0, -1.0])

    def test_all_equal_direction_no_special_case(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 12))
            beta = float(rng.uniform(-3, 3))
            _, b = rand_instance(rng, k)
            r = directional_min(np.full(k, beta), b)
            assert r.value == beta

    def test_vertex_feasible_and_attains_value(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            c, b = rand_instance(rng, k)
            r = directional_min(c, b)
            on_edge = (r.vertex == b.lower) | (r.vertex == b.upper)
            assert on_edge.all()
            f = softmax_objective(c, r.vertex)
            assert f == pytest.approx(r.value, rel=1e-12, abs=1e-15)

    def test_smallest_minimizing_threshold(self):
        # Zero direction makes every threshold vertex optimal; the sweep must
        # settle on m = 0 and the all-lower vertex.
        r = directional_min([0.0, 0.0], box([-1.0, -1.0], [1.0, 1.0]))
        assert r.m == 0
        assert np.array_equal(r.vertex, [-1.0, -1.0])

    def test_underflow_fallback_path(self):
        # Shift by max u = 700 sends every exp below the normal range; the
        # sweep must recover through per-candidate re-evaluation.
        c = np.array([1.0, -1.0])
        b = box([-1200.0, -1210.0], [-1190.0, -1205.0])
        r = directional_min(c, b)
        oracle = naive_vertex_min(c, b.lower, b.upper)
        assert r.value == pytest.approx(oracle, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            directional_min([1.0, np.nan], box([0.0, 0.0], [1.0, 1.0]))
        with pytest.raises(ValidationError):
            directional_min([1.0], box([0.0, 0.0], [1.0, 1.0]))


class TestDirectionalMax:
    def test_k3_symmetry(self):
        r = directional_max(K3_C, K3_BOX)
        assert r.value == pytest.approx(-K3_MIN, abs=1e-12)
        assert np.array_equal(r.vertex, [-1.0, -1.0, 1.0])
        assert r.sense == "max"

    def test_constant_direction(self):
        r = directional_max([5.0, 5.0], box([-7.0, 0.0], [2.0, 9.0]))
        assert r.value == 5.0

    def test_degenerate(self):
        assert directional_max([0.0, 1.0], box([0.0, 0.0], [0.0, 0.0])).value == 0.5

    def test_duality_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            c, b = rand_instance(rng, k)
            assert directional_max(c, b).value == -directional_min(-c, b).value


class TestExhaustive:
    def test_single_coordinate(self):
        r = exhaustive_vertex_min([3.0], box([-2.0], [5.0]))
        assert r.value == 3.0

    def test_k3_fixture(self):
        r = exhaustive_vertex_min(K3_C, K3_BOX)
        assert r.value == pytest.approx(K3_MIN, abs=1e-12)
        assert np.array_equal(r.vertex, [1.0, -1.0, -1.0])

    def test_k2_fixture(self):
        r = exhaustive_vertex_min([0.0, 1.0], box([-1.0, -1.0], [1.0, 1.0]))
        assert r.value == pytest.approx(K2_MIN, abs=1e-12)
        assert np.array_equal(r.vertex, [1.0, -1.0])

    def test_lexicographic_tie_break(self):
        r = exhaustive_vertex_min([0.0, 0.0], box([-1.0, -1.0], [1.0, 1.0]))
        assert np.array_equal(r.vertex, [-1.0, -1.0])

    def test_size_guard(self):
        k = 25
        with pytest.raises(ValidationError):
            exhaustive_vertex_min(np.zeros(k), box(np.zeros(k), np.ones(k)))

    def test_degenerate_coordinates_fold(self):
        c = np.array([2.0, -1.0, 0.5])
        b = box([0.3, -1.0, 0.3], [0.3, 1.0, 0.3])
        r = exhaustive_vertex_min(c, b)
        assert r.value == pytest.approx(naive_vertex_min(c, b.lower, b.upper), abs=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            c, b = rand_instance(rng, k)
            got = exhaustive_vertex_min(c, b).value
            want = naive_vertex_min(c, list(b.lower), list(b.upper))
            assert got == pytest.approx(want, abs=1e-12)


class TestSweepAgainstExhaustive:
    def test_equivalence_small(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            k = int(rng.integers(1, 11))
            c, b = rand_instance(rng, k, width=2.0)
            assert directional_min(c, b).value == pytest.approx(
                exhaustive_vertex_min(c, b).value, abs=1e-9
            )


class TestProperties:
    def test_bounds_always(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            k = int(rng.integers(1, 16))
            c, b = rand_instance(rng, k, width=3.0)
            v = directional_min(c, b).value
            assert c.min() <= v <= c.max()

    def test_stationarity_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            k = int(rng.integers(1, 16))
            c, b = rand_instance(rng, k)
            r = directional_min(c, b)
            y = np.exp(r.vertex - r.vertex.max())
            resid = abs(np.dot(c - r.value, y)) / y.sum()
            assert resid <= 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = int(rng.integers(1, 12))
            c, b = rand_instance(rng, k)
            delta = float(rng.uniform(-40, 40))
            shifted = box(b.lower + delta, b.upper + delta)
            assert directional_min(c, shifted).value == pytest.approx(
                directional_min(c, b).value, abs=1e-9
            )

    def test_affine_covariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            k = int(rng.integers(1, 12))
            c, b = rand_instance(rng, k)
            alpha = float(rng.uniform(0.1, 5.0))
            beta = float(rng.uniform(-3.0, 3.0))
            got = directional_min(alpha * c + beta, b).value
            want = alpha * directional_min(c, b).value + beta
            assert got == pytest.approx(want, abs=1e-9)

    def test_box_monotonicity(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            k = int(rng.integers(1, 12))
            c, b = rand_instance(rng, k)
            grow = rng.uniform(0, 1, k)
            wider = box(b.lower - grow, b.upper + grow)
            assert directional_min(c, wider).value <= directional_min(c, b).value + 1e-12

    def test_large_k_sweep_supported(self):
        rng = np.random.default_rng(15)
        k = 4096
        c, b = rand_instance(rng, k)
        r = directional_min(c, b)
        assert c.min() <= r.value <= c.max()
        assert ((r.vertex == b.lower) | (r.vertex == b.upper)).all()


class TestSweepMin:
    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64, 256])
    def test_stacked_matches_rows(self, k):
        rng = np.random.default_rng(1000 + k)
        shape = (3, 5)
        c = rng.normal(size=shape + (k,))
        c[0] = np.round(c[0])  # tied coefficients
        c[1, 0] = 0.0  # every threshold ties
        lower = rng.uniform(-3, 3, shape + (k,))
        upper = lower + rng.uniform(0, 2, shape + (k,))
        upper[1, 1] = lower[1, 1]  # degenerate box
        upper[1, 2, : k // 2] = lower[1, 2, : k // 2]  # partly degenerate
        # Lowers far below the largest upper: the m = 0 denominator underflows.
        lower[2] = upper[2].max(axis=-1, keepdims=True) - 800.0 - rng.uniform(0, 10, (shape[1], k))
        if k > 1:
            assert np.exp(lower[2] - upper[2].max(axis=-1, keepdims=True)).sum(axis=-1).max() == 0.0
        value, m, vertex = sweep_min(c, lower, upper)
        assert value.shape == shape and m.shape == shape and vertex.shape == shape + (k,)
        for idx in np.ndindex(shape):
            r = directional_min(c[idx], ScoreBox(lower=lower[idx], upper=upper[idx]))
            assert value[idx] == r.value
            assert m[idx] == r.m
            assert np.array_equal(vertex[idx], r.vertex)

    def test_no_rows(self):
        value, m, vertex = sweep_min(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        assert value.shape == (0,) and m.shape == (0,) and vertex.shape == (0, 3)

    def test_box_broadcasts_against_coefficient_stack(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(3, 2, 4, 6))
        lower = rng.normal(size=(2, 4, 6))
        upper = lower + rng.uniform(0, 2, size=lower.shape)
        stacked = sweep_min(c, lower, upper)
        full = sweep_min(c, *np.broadcast_arrays(c, lower, upper)[1:])
        for got, want in zip(stacked, full):
            assert np.array_equal(got, want)


# c . softmax(s) is -1.0 on this finite box: coordinate 1 takes all the
# weight, and the others shift to -inf, whose exp is the true limit 0.
FAR_C = np.array([1.0, -1.0, 0.5])
FAR_BOX = ScoreBox(lower=np.array([-1e308, 1e308, 0.0]), upper=np.array([-1e308, 1e308, 1.0]))


@pytest.mark.parametrize(
    "solve",
    [
        lambda: directional_min(FAR_C, FAR_BOX).value,
        lambda: softmax_objective(FAR_C, FAR_BOX.upper),
        lambda: exhaustive_vertex_min(FAR_C, FAR_BOX).value,
        lambda: attack_min_objective(FAR_C, FAR_BOX, budget=20),
    ],
    ids=["directional_min", "softmax_objective", "exhaustive_vertex_min", "attack_min_objective"],
)
def test_far_apart_coordinates_without_warnings(solve):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve() == -1.0


class TestHugeCoefficients:
    def test_minimum_inside_decimal_enclosure(self):
        # Coefficients near DBL_MAX used to overflow the weighted prefix sums
        # and return a "minimum" above the true one.
        rng = np.random.default_rng(31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3000):
                k = int(rng.integers(2, 7))
                c = rng.choice([-1.0, 1.0], k) * rng.uniform(2e307, 1.79e308, k)
                _, b = rand_instance(rng, k)
                value = directional_min(c, b).value
                lo, hi = decimal_min_enclosure(c, b.lower, b.upper)
                tol = Decimal(1e-12) * Decimal(float(np.abs(c).max()))
                assert lo - tol <= Decimal(value) <= hi + tol
