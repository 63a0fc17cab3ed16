import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from attncert import (
    ScoreBox,
    ValidationError,
    attack_min_objective,
    baseline_directional_min,
    certified_directional_min,
    directional_max,
    directional_min,
    exhaustive_vertex_min,
    softmax_objective,
)
from attncert import solver
from attncert.certified import certified_sweep_min
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
        # A stack of rows is a box too; its size is the row length.
        assert box(np.zeros((4, 3)), np.zeros((4, 3))).size == 3

    @pytest.mark.parametrize(
        "solve",
        [
            directional_min,
            directional_max,
            exhaustive_vertex_min,
            baseline_directional_min,
            certified_directional_min,
            lambda c, b: attack_min_objective(c, b, budget=4),
        ],
        ids=["min", "max", "exhaustive", "baseline", "certified", "attack"],
    )
    def test_single_row_calls_reject_a_stack(self, solve):
        # A stack is a valid ScoreBox, but these calls solve one row.
        stack = box(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValidationError, match="one score row"):
            solve(np.ones(3), stack)


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
        value, m = sweep_min(c, lower, upper)
        assert value.shape == shape and m.shape == shape
        for idx in np.ndindex(shape):
            r = directional_min(c[idx], ScoreBox(lower=lower[idx], upper=upper[idx]))
            assert value[idx] == r.value
            assert m[idx] == r.m
            # The vertex puts the first m coordinates of the stable sort at
            # their upper endpoint, and attains the value.
            top = np.argsort(c[idx], kind="stable")[: r.m]
            assert np.array_equal(r.vertex[top], upper[idx][top])
            assert np.delete(r.vertex, top).tolist() == np.delete(lower[idx], top).tolist()
            scale = np.abs(c[idx]).max()
            assert softmax_objective(c[idx], r.vertex) == pytest.approx(r.value, abs=1e-12 * scale)

    def test_no_rows(self):
        value, m = sweep_min(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
        assert value.shape == (0,) and m.shape == (0,)

    def test_box_broadcasts_against_coefficient_stack(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(3, 2, 4, 6))
        lower = rng.normal(size=(2, 4, 6))
        upper = lower + rng.uniform(0, 2, size=lower.shape)
        stacked = sweep_min(c, lower, upper)
        full = sweep_min(c, *np.broadcast_arrays(c, lower, upper)[1:])
        for got, want in zip(stacked, full):
            assert np.array_equal(got, want)

    @staticmethod
    def shape_l_stack(rng):
        """The certify_targets layout at R = 64: (9, 4, 64, 64) coefficients
        against a (4, 64, 64) box, with tied, huge and underflowing rows."""
        c = rng.normal(size=(9, 4, 64, 64))
        c[0] = np.round(c[0])
        c[1, 0] = rng.choice([-1.0, 1.0], (64, 64)) * rng.uniform(2e307, 1.79e308, (64, 64))
        lower = rng.uniform(-3, 3, (4, 64, 64))
        upper = lower + rng.uniform(0, 2, lower.shape)
        lower[3] = upper[3].max(axis=-1, keepdims=True) - 800.0 - rng.uniform(0, 10, (64, 64))
        return c, lower, upper

    def test_blocks_match_one_unblocked_call(self, monkeypatch):
        c, lower, upper = self.shape_l_stack(np.random.default_rng(6))
        assert c.size > 4 * solver._BLOCK_ELEMENTS
        blocked = sweep_min(c, lower, upper)
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", c.size)
        whole = sweep_min(c, lower, upper)
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want)

    def test_temporaries_stay_bounded(self):
        # One unblocked call peaks at 11.7 MB on this stack, and the blocked
        # one at 2.9 MB.
        c, lower, upper = self.shape_l_stack(np.random.default_rng(6))
        sweep_min(c, lower, upper)
        tracemalloc.start()
        try:
            sweep_min(c, lower, upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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
        lambda: baseline_directional_min(FAR_C, FAR_BOX),
    ],
    ids=["directional_min", "softmax_objective", "exhaustive_vertex_min", "attack_min_objective", "baseline"],
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


def accuracy_row(rng, i):
    """Row i of the fast kernel's accuracy set: K mostly 1-12, every 50th
    row 16-256, in six kinds by i % 6."""
    k = int(rng.integers(1, 13)) if i % 50 else (16, 24, 32, 48, 64, 96, 128, 256)[i // 50 % 8]
    kind = i % 6
    c = rng.normal(size=k) * 10.0 ** rng.uniform(-3, 3)
    lower = rng.uniform(-5, 5, k)
    upper = lower + rng.uniform(0, 3, k) * 10.0 ** rng.uniform(-3, 1)
    if kind == 1:  # tied coefficients and some point coordinates
        c = np.round(rng.normal(size=k) * 2)
        point = rng.random(k) < 0.3
        upper[point] = lower[point]
    elif kind == 2:  # a point box
        upper = lower.copy()
    elif kind == 3:
        # Every lower endpoint 750-800 below the top upper, so the m = 0
        # denominator underflows to 0, uppers spread down to 760 below it
        # (subnormal terms), and small coefficients whose products underflow.
        top = rng.uniform(-5, 5)
        upper = top - rng.uniform(0, 760, k)
        upper[rng.integers(k)] = top
        lower = np.minimum(upper, top - rng.uniform(750, 800, k))
        c = c * 10.0 ** rng.uniform(-12, 0)
    elif kind == 4:  # |c| near DBL_MAX, scaled down by ldexp, with some small entries
        small = rng.random(k) < 0.3
        c = np.where(small, c, rng.choice([-1.0, 1.0], k) * rng.uniform(2e307, 1.79e308, k))
    elif kind == 5:  # shifts past 746 and very wide boxes
        lower = rng.uniform(-2000, 0, k)
        upper = lower + rng.uniform(0, 1500, k)
    return c, lower, upper


class TestFastKernelAccuracy:
    """sweep_min's value is its own ratio at the best candidate, not a
    re-evaluation at the vertex.  Against the decimal enclosure of the
    exact minimum its error stays below
        (2*min(max|s|, 746) + 4*(K+4)) * 2**-53 * max|c| + (K+1) * 2**-1070 * (max|c| + 1),
    with s the row's endpoints minus its largest upper endpoint."""

    ROWS = 2000

    @staticmethod
    def error_bound(c, lower, upper) -> Fraction:
        k = len(c)
        s_max = min(float(np.abs(np.concatenate((lower, upper)) - upper.max()).max()), 746.0)
        c_max = Fraction(float(np.abs(c).max()))
        return (Fraction(2 * s_max) + 4 * (k + 4)) * Fraction(1, 2**53) * c_max + Fraction(k + 1, 2**1070) * (c_max + 1)

    def test_value_within_a_priori_bound(self, monkeypatch):
        fallback = []
        objective = solver._objective

        def counted(c, s):
            fallback.append(len(c))
            return objective(c, s)

        monkeypatch.setattr(solver, "_objective", counted)
        rng = np.random.default_rng(2024)
        by_k = {}
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(self.ROWS):
                c, lower, upper = accuracy_row(rng, i)
                value, m = sweep_min(c, lower, upper)
                by_k.setdefault(len(c), []).append((c, lower, upper, value, m))
                lo, hi = decimal_min_enclosure(c, lower, upper)
                bound = self.error_bound(c, lower, upper)
                err = max(Fraction(float(value)) - Fraction(lo), Fraction(hi) - Fraction(float(value)))
                assert err <= bound, (i, float(err), float(bound))
                worst = max(worst, float(err / bound))
                cert, _ = certified_sweep_min(c, lower, upper)
                assert cert <= value
            # Stacked calls, one per K, equal the per-row calls bit for bit.
            for rows in by_k.values():
                c, lower, upper, value, m = (np.stack(a) for a in zip(*rows))
                got_value, got_m = sweep_min(c, lower, upper)
                assert got_value.tobytes() == value.tobytes()
                assert np.array_equal(got_m, m)
                cert, _ = certified_sweep_min(c, lower, upper)
                assert np.all(cert <= got_value)
        assert fallback, "the underflow fallback was never taken"
        print(f"worst error / bound: {worst:.3g}")
