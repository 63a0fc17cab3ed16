import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
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


def tied_rows(rng, k):
    """Coefficient rows of length k with and without ties, -0.0 and 0.0
    included."""
    rows = [
        rng.normal(size=k),  # no tie
        np.round(rng.normal(size=k)),  # ties
        np.full(k, 0.5),  # all equal
        rng.choice([0.0, -0.0], k),  # zeros of both signs
        rng.choice([-0.0, 0.0, 1.0, -1.0], k),
        np.where(rng.random(k) < 0.5, 0.0, rng.normal(size=k)),
    ]
    return np.stack(rows)


def huge_rows(rng, k, n=6):
    """n coefficient rows of length k above DBL_MAX / (2 (K + 1)) but for
    their first k // 2 entries, which are tiny: the sweep scales such rows
    by a power of two that flushes the tiny entries to +-0.0, so distinct
    coefficients tie there.  Row 0 is a normal row the scaling leaves
    alone."""
    c = rng.choice([-1.0, 1.0], (n, k)) * rng.uniform(2e307, 1.79e308, (n, k))
    h = k // 2
    c[:, :h] = rng.choice([-1.0, 1.0], (n, h)) * rng.choice([5e-324, 1e-320, 2e-310, 3e-300], (n, h))
    c[0] = rng.normal(size=k)
    return c


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

    def test_stacked_scores_rejected(self):
        with pytest.raises(ValidationError, match="one score row"):
            softmax_objective(np.ones(3), np.zeros((2, 3)))


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

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (2, 2, 3), ()], ids=["one-row", "two-rows", "3-D", "0-D"])
    def test_stack_rejected_at_construction(self, shape):
        # A ScoreBox is one row, so no single-row call can be handed a stack.
        with pytest.raises(ValidationError, match="matched 1-D arrays"):
            box(np.zeros(shape), np.ones(shape))

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
        # The box cannot be a stack, so the stack can only come as the
        # direction; these calls solve one row and reject it.
        with pytest.raises(ValidationError, match="direction must be one-dimensional"):
            solve(np.ones((2, 3)), box(np.zeros(3), np.ones(3)))


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

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16, 64])
    def test_vertex_is_the_stable_threshold_vertex(self, k):
        # On rows with ties and on the rows the sweep scales, the vertex sits
        # at upper on the first m coordinates of the row's stable ascending
        # order and at lower elsewhere; a point box and the maximum too.  A
        # row of equal non-dyadic entries puts m inside the tie by rounding,
        # where the order within the tie decides the vertex.  Values are not
        # compared on the huge rows: softmax_objective can overflow there.
        rng = np.random.default_rng(6100 + k)
        lower = rng.uniform(-3, 3, k)
        for b in (box(lower, lower + rng.uniform(0, 2, k)), box(lower, lower)):
            for c in np.vstack((tied_rows(rng, k), huge_rows(rng, k), np.full((1, k), 0.3))):
                for r, d in ((directional_min(c, b), c), (directional_max(c, b), -c)):
                    want = b.lower.copy()
                    up = np.argsort(d, kind="stable")[: r.m]
                    want[up] = b.upper[up]
                    assert np.array_equal(r.vertex, want)

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

    def test_temporaries_stay_bounded(self, monkeypatch):
        # A fresh workspace, so that the traced call pays for its blocks'
        # planes and the budget, not the reuse, bounds them.  One unblocked
        # call peaks at 14.4 MB on this stack, and the blocked one at 6.2 MB,
        # 2.4 MB of it the coefficient rows, sorted once for the whole call.
        c, lower, upper = self.shape_l_stack(np.random.default_rng(6))
        sweep_min(c, lower, upper)
        monkeypatch.setattr(solver, "_workspace", threading.local())
        tracemalloc.start()
        try:
            sweep_min(c, lower, upper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def margin_stack(rng, targets=9):
    """certify_targets' margin layout at shape M: (T, 4, 16, 16)
    coefficients against a (4, 16, 16) box."""
    lower = rng.uniform(-3, 3, (4, 16, 16))
    return rng.normal(size=(targets, 4, 16, 16)), lower, lower + rng.uniform(0, 2, lower.shape)


def row_stack(rng, n, k):
    lower = rng.uniform(-3, 3, (n, k))
    return rng.normal(size=(n, k)), lower, lower + rng.uniform(0, 2, lower.shape)


def workspace_buffers():
    return {name: getattr(solver._workspace, name, None) for name in ("planes", "index", "coef")}


class TestWorkspace:
    """_threshold_sums keeps its buffers in a per-thread workspace: what a
    sweep returns is its own, threads do not share planes, the kept buffers
    stay within one block at the budget, and a repeated call reuses them."""

    @staticmethod
    def sweeps(rng):
        stacks = [margin_stack(rng), margin_stack(rng, targets=3)] + [row_stack(rng, 40, k) for k in (4, 64, 256)]
        return [(f, stack) for stack in stacks for f in (sweep_min, certified_sweep_min)]

    def test_threads_match_serial(self):
        sweeps = self.sweeps(np.random.default_rng(8100))
        serial = [f(*stack) for f, stack in sweeps]
        jobs = sweeps * 4
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda job: job[0](*job[1]), jobs, timeout=120))
        for got, want in zip(results, serial * 4):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("sweep", [sweep_min, certified_sweep_min])
    def test_results_outlive_the_next_call(self, sweep):
        rng = np.random.default_rng(8200)
        first, second = margin_stack(rng), margin_stack(rng)
        kept = sweep(*first)
        copies = [a.copy() for a in kept]
        sweep(*second)
        for a, b in zip(kept, copies):
            assert a.tobytes() == b.tobytes()
            assert not any(np.shares_memory(a, buf) for buf in workspace_buffers().values() if buf is not None)

    def test_large_row_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(solver, "_workspace", threading.local())
        rng = np.random.default_rng(8300)
        row = [a[0] for a in row_stack(rng, 1, solver._BLOCK_ELEMENTS + 1)]
        for sweep in (sweep_min, certified_sweep_min):
            sweep(*row)
        assert workspace_buffers() == dict.fromkeys(("planes", "index", "coef"))
        # One certified block at the budget keeps its buffers, and a larger
        # row after it leaves them as they are.
        block = solver._BLOCK_ELEMENTS // 16
        certified_sweep_min(*row_stack(rng, block, 16))
        kept = workspace_buffers()
        assert kept["planes"].size == 4 * block * 17
        for sweep in (sweep_min, certified_sweep_min):
            sweep(*row)
        assert all(workspace_buffers()[name] is buf for name, buf in kept.items())

    def test_second_call_allocates_no_plane(self):
        c, lower, upper = margin_stack(np.random.default_rng(8400))
        _, order, cs, c_row, lower, upper, box_row = solver._broadcast_rows(c, lower, upper)
        box_exp = np.exp(solver._shifted_box(lower, upper)).reshape(2, -1)
        args = (c_row, box_row, order, cs, box_exp)
        first = [a.copy() for a in solver._threshold_sums(*args)]
        tracemalloc.start()
        try:
            second = solver._threshold_sums(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plane = len(c_row) * (cs.shape[1] + 1) * 8
        assert peak < plane
        for a, b in zip(second, first):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", [2, 16, 64])
    def test_column_sums_equal_row_cumsum(self, k):
        # 80 rows take their prefix sums by column; each row alone (n = 1 <
        # K) takes numpy's cumsum.  Both add the same terms in the same order.
        rng = np.random.default_rng(8500 + k)
        c = rng.normal(size=(80, k)) * rng.choice([1e-300, 1.0, 1e300], (80, 1))
        lower = rng.uniform(-3, 3, (80, k)) * rng.choice([1.0, 300.0], (80, 1))
        _, order, cs, c_row, lower, upper, box_row = solver._broadcast_rows(c, lower, lower + rng.uniform(0, 2, (80, k)))
        box_exp = np.exp(solver._shifted_box(lower, upper)).reshape(2, -1)
        planes = solver._threshold_sums(c_row, box_row, order, cs, box_exp)[2][:2].copy()
        for r in range(80):
            one = solver._threshold_sums(c_row[r : r + 1], box_row[r : r + 1], order, cs, box_exp)[2]
            assert one[:2, 0].tobytes() == planes[:, r].tobytes()


def stable_sorted(c):
    order = np.argsort(c, axis=-1, kind="stable")
    return order, np.take_along_axis(c, order, axis=-1)


def assert_same_bits(got, want):
    # Bit patterns, so that -0.0 and 0.0 differ.
    assert got.shape == want.shape
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


class TestSortedRows:
    """solver._sorted_rows sorts with numpy's default sort and re-sorts the
    tied rows stably; its order is the stable one on every row."""

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 64, 257])
    def test_matches_stable_argsort(self, k):
        rng = np.random.default_rng(7000 + k)
        c = tied_rows(rng, k)
        order, cs = solver._sorted_rows(c)
        want_order, want_cs = stable_sorted(c)
        assert np.array_equal(order, want_order)
        assert_same_bits(cs, want_cs)
        # The ranks of solver._stable_rank follow the same order.
        assert np.array_equal(solver._stable_rank(c), np.argsort(want_order, axis=-1))

    def test_one_row_and_stacks(self):
        rng = np.random.default_rng(7100)
        c = tied_rows(rng, 5)
        for rows in (c[3], c.reshape(2, 3, 5), c[:, :1], np.zeros((0, 4))):
            order, cs = solver._sorted_rows(rows)
            want_order, want_cs = stable_sorted(rows)
            assert np.array_equal(order, want_order)
            assert_same_bits(cs, want_cs)

    def test_tie_across_rows_is_no_tie(self):
        # The last entry of a row equals the first of the next: both rows have
        # one ascending order, which the default sort already gives.
        c = np.array([[3.0, 1.0, 2.0], [3.0, 5.0, 4.0]])
        order, cs = solver._sorted_rows(c)
        assert order.tolist() == [[1, 2, 0], [0, 2, 1]]
        assert cs.tolist() == [[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]

    def test_rows_the_huge_coefficient_shift_scales(self, monkeypatch):
        # sweep_min scales rows above DBL_MAX / (2 (K + 1)) by a power of two
        # before the sort; the scaling flushes the row's smallest entries to
        # +-0.0 or to equal subnormals, so distinct coefficients tie there.
        rng = np.random.default_rng(7200)
        k = 8
        c = huge_rows(rng, k)
        seen = []
        original = solver._sorted_rows

        def spy(rows):
            out = original(rows)
            seen.append((rows.copy(), out))
            return out

        monkeypatch.setattr(solver, "_sorted_rows", spy)
        lower = rng.uniform(-3, 3, k)
        value, m = sweep_min(c, lower, lower + 1.0)
        (rows, (order, cs)), *_ = seen
        flushed = (rows == 0.0) & (c != 0.0)
        assert flushed.any() and not flushed[0].any()
        assert np.array_equal(rows[0], c[0])
        want_order, want_cs = stable_sorted(rows)
        assert np.array_equal(order, want_order)
        assert_same_bits(cs, want_cs)
        for i in range(len(c)):
            r = directional_min(c[i], box(lower, lower + 1.0))
            assert value[i] == r.value and m[i] == r.m


class TestBroadcastCoefficients:
    """A coefficient stack that broadcasts against its boxes is sorted once
    per distinct row; every output row equals the materialised stack's."""

    @staticmethod
    def block_output_layout(rng, heads=4, d_head=4, tokens=16):
        """suffix.interval_forward's layout: (2, heads, 1, d_head, R)
        coefficients against a (heads, R, 1, R) box, with tied, signed-zero,
        huge and underflowing rows."""
        c = rng.normal(size=(2, heads, 1, d_head, tokens))
        c[0, 0] = np.round(c[0, 0])
        c[0, 1, 0, 0] = rng.choice([0.0, -0.0], tokens)
        c[1, 1, 0, 1] = 0.25
        c[1, 2] = rng.choice([-1.0, 1.0], (1, d_head, tokens)) * rng.uniform(2e307, 1.79e308, (1, d_head, tokens))
        lower = rng.uniform(-3, 3, (heads, tokens, 1, tokens))
        upper = lower + rng.uniform(0, 2, lower.shape)
        upper[0, 3] = lower[0, 3]
        lower[1] = upper[1].max(axis=-1, keepdims=True) - 800.0 - rng.uniform(0, 10, (tokens, 1, tokens))
        return c, lower, upper

    @pytest.mark.parametrize("block", [None, 3 * 16, 7 * 16 + 5])
    def test_fast_sweep_matches_materialised_stack(self, block, monkeypatch):
        c, lower, upper = self.block_output_layout(np.random.default_rng(7300))
        full = np.broadcast_shapes(c.shape, lower.shape)
        if block is not None:
            # Blocks of 3 and 7 rows: 512 rows end mid-block, and a block
            # starts partway through a coefficient row's run of box rows.
            monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", block)
        value, m = sweep_min(c, lower, upper)
        want_value, want_m = sweep_min(np.broadcast_to(c, full).copy(), lower, upper)
        assert value.shape == m.shape == full[:-1]
        assert_same_bits(value, want_value)
        assert np.array_equal(m, want_m)
        # Not vacuous: the layout's 32 coefficient rows serve 512 output rows.
        assert c[..., 0].size == 32 and value.size == 512

    def test_fast_sweep_sorts_each_distinct_row_once(self, monkeypatch):
        c, lower, upper = self.block_output_layout(np.random.default_rng(7300))
        sorted_rows = []
        original = solver._sorted_rows

        def counted(rows):
            sorted_rows.append(len(rows))
            return original(rows)

        monkeypatch.setattr(solver, "_sorted_rows", counted)
        monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", 3 * 16)
        sweep_min(c, lower, upper)
        assert sorted_rows == [32]

    @pytest.mark.parametrize("block", [None, 3 * 16, 7 * 16 + 5])
    def test_certified_sweep_matches_materialised_stack(self, block, monkeypatch):
        c, lower, upper = self.block_output_layout(np.random.default_rng(7400))
        full = np.broadcast_shapes(c.shape, lower.shape)
        if block is not None:
            monkeypatch.setattr(solver, "_BLOCK_ELEMENTS", block)
        bound, saturated = certified_sweep_min(c, lower, upper)
        want_bound, want_saturated = certified_sweep_min(np.broadcast_to(c, full).copy(), lower, upper)
        assert bound.shape == saturated.shape == full[:-1]
        assert_same_bits(bound, want_bound)
        assert np.array_equal(saturated, want_saturated)
        assert saturated.any() and not saturated.all()


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
