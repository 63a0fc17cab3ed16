import math
import warnings

import numpy as np
import pytest

import attncert.baseline
from attncert import (
    ScoreBox,
    baseline_directional_min,
    directional_min,
)
from oracles import naive_vertex_min, softmax_output_bounds_own_shift

K3_MIN = -0.6804790632423976
K3_BASELINE = -0.7236071038285609


def box(lower, upper):
    return ScoreBox(lower=np.asarray(lower, float), upper=np.asarray(upper, float))


def output_bounds(b):
    """The baseline's per-coordinate output bounds through the public API:
    a one-hot direction pairs its coordinate with its lower bound, a negated
    one with its upper bound, and every other term is an exact zero."""
    eye = np.eye(b.size)
    a_lo = np.array([baseline_directional_min(e, b) for e in eye])
    a_hi = np.array([-baseline_directional_min(-e, b) for e in eye])
    return a_lo, a_hi


def test_degenerate_uniform():
    a_lo, a_hi = output_bounds(box([0.0, 0.0], [0.0, 0.0]))
    assert np.array_equal(a_lo, [0.5, 0.5])
    assert np.array_equal(a_hi, [0.5, 0.5])


def test_k2_symmetric_box():
    a_lo, a_hi = output_bounds(box([-1.0, -1.0], [1.0, 1.0]))
    lo = 1.0 / (1.0 + math.e**2)
    hi = math.e**2 / (1.0 + math.e**2)
    assert a_lo == pytest.approx([lo, lo], abs=1e-15)
    assert a_hi == pytest.approx([hi, hi], abs=1e-15)


def test_single_coordinate():
    a_lo, a_hi = output_bounds(box([3.0], [7.0]))
    assert np.array_equal(a_lo, [1.0])
    assert np.array_equal(a_hi, [1.0])


def test_k3_fixture_values():
    got_lo, got_hi = output_bounds(box([-1.0] * 3, [1.0] * 3))
    a_lo = 1.0 / (1.0 + 2.0 * math.e**2)
    a_hi = math.e**2 / (math.e**2 + 2.0)
    assert got_lo == pytest.approx([a_lo] * 3, abs=1e-12)
    assert got_hi == pytest.approx([a_hi] * 3, abs=1e-12)
    v = baseline_directional_min([-1.0, 0.0, 1.0], box([-1.0] * 3, [1.0] * 3))
    assert v == pytest.approx(K3_BASELINE, abs=1e-12)
    assert v < K3_MIN  # strictly looser than the exact solver here


def test_baseline_coincides_with_exact_on_k2():
    v = baseline_directional_min([0.0, 1.0], box([-1.0, -1.0], [1.0, 1.0]))
    assert v == pytest.approx(0.11920292202211755, abs=1e-15)


def test_all_ones_direction_loose():
    b = box([-2.0, 1.0], [0.5, 3.0])
    v = baseline_directional_min([1.0, 1.0], b)
    assert v <= 1.0
    assert directional_min([1.0, 1.0], b).value == 1.0


def test_output_box_invariants_and_containment():
    rng = np.random.default_rng(31)
    for _ in range(300):
        k = int(rng.integers(1, 12))
        centers = rng.uniform(-3, 3, k)
        w = rng.uniform(0, 2, k)
        b = box(centers - w, centers + w)
        a_lo, a_hi = output_bounds(b)
        assert np.all(a_lo >= 0.0)
        assert np.all(a_lo <= a_hi)
        assert np.all(a_hi <= 1.0)
        pts = rng.uniform(b.lower, b.upper, size=(200, k))
        e = np.exp(pts - pts.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        assert np.all(soft >= a_lo[None, :] - 1e-12)
        assert np.all(soft <= a_hi[None, :] + 1e-12)


def test_soundness_by_sampling():
    rng = np.random.default_rng(32)
    for _ in range(300):
        k = int(rng.integers(1, 12))
        centers = rng.uniform(-3, 3, k)
        w = rng.uniform(0, 2, k)
        c = rng.uniform(-2, 2, k)
        b = box(centers - w, centers + w)
        base = baseline_directional_min(c, b)
        pts = rng.uniform(b.lower, b.upper, size=(200, k))
        e = np.exp(pts - pts.max(axis=1, keepdims=True))
        vals = (e @ c) / e.sum(axis=1)
        assert vals.min() >= base - 1e-9


def test_dominance_with_strictness():
    rng = np.random.default_rng(33)
    strict = 0
    n = 500
    for _ in range(n):
        k = int(rng.integers(2, 12))
        centers = rng.uniform(-2, 2, k)
        w = rng.uniform(0.2, 1.5, k)
        c = rng.uniform(-2, 2, k)
        c[0] = abs(c[0]) + 0.1
        c[1] = -abs(c[1]) - 0.1  # force mixed signs
        b = box(centers - w, centers + w)
        exact = directional_min(c, b).value
        base = baseline_directional_min(c, b)
        assert exact >= base - 1e-12
        if exact > base + 1e-9:
            strict += 1
    assert strict / n >= 0.3


def test_fully_underflowed_coordinate():
    # Under the shared shift, coordinate 0 at its lower endpoint and its
    # rival both underflow; the bounds used to be 0/0 = NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_lo, a_hi = output_bounds(box([-1000.0, -1000.0], [0.0, -1000.0]))
        assert a_lo[0] == 0.5 and a_hi[1] == 0.5
        assert baseline_directional_min([1.0, -1.0], box([-1000.0, -1000.0], [0.0, -1000.0])) == 0.0


def test_wide_boxes_stay_below_exact_minimum():
    # Boxes up to 1000 wide: exponentials underflow under the shared shift,
    # and a dominant coordinate's rivals vanish in its shared sum.
    rng = np.random.default_rng(41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3000):
            k = int(rng.integers(1, 7))
            centers = rng.uniform(-500.0, 500.0, k)
            half = rng.uniform(0.0, 500.0, k)
            c = rng.uniform(-2.0, 2.0, k)
            lower, upper = centers - half, centers + half
            exact = naive_vertex_min(c, lower, upper)
            assert baseline_directional_min(c, box(lower, upper)) <= exact + 1e-12 * max(1.0, abs(exact))



def test_output_bounds_match_own_shift_oracle(monkeypatch):
    # Boxes up to 1000 wide, where the shared shift often cannot resolve a
    # coordinate and the baseline evaluates it again at its own vertex.
    # Those re-evaluated coordinates stay within 4 ulps of the oracle's
    # own-shift math.exp evaluation.  Every other coordinate keeps the
    # shared shift's documented accuracy: 2**-40 relative, the flag
    # threshold on cancellation (a coordinate whose own term underflows
    # under the shared shift is re-evaluated, so no absolute term remains).
    evaluated = []

    def spy(vertex, j):
        out = own_share(vertex, j)
        evaluated.extend(zip(j, vertex, out))
        return out

    own_share = attncert.baseline._own_share
    monkeypatch.setattr(attncert.baseline, "_own_share", spy)
    rng = np.random.default_rng(43)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(600):
            k = int(rng.integers(1, 12))
            centers = rng.uniform(-500.0, 500.0, k)
            half = rng.uniform(0.0, 500.0, k) * 10.0 ** rng.integers(-3, 1)
            b = box(centers - half, centers + half)
            for g, w in zip(output_bounds(b), softmax_output_bounds_own_shift(b.lower, b.upper)):
                assert np.all(np.abs(g - w) <= 4 * np.spacing(w) + 2.0**-40 * w)
    assert len(evaluated) > 500
    for j, vertex, got in evaluated:
        # A degenerate box at the vertex bounds coordinate j by its value there.
        want = softmax_output_bounds_own_shift(vertex, vertex)[0][j]
        assert abs(got - want) <= 4 * np.spacing(want)


def test_one_large_row_does_not_flag_the_stack(monkeypatch):
    # Row 0 is a point with shared sums of 4, so its cut is 4 * 5 * 2**-13.
    # Row 1's coordinate 0 at its lower end against its rivals' upper ends
    # has a denominator of about 1.3e-3: below row 0's cut, above its own
    # (its shared sums are about 1 and 1.3e-3), and with no cancellation.
    # Each row is gated against its own cut, so no coordinate is evaluated
    # again, and each row's value is its one-row call's.
    lower = np.array([[0.0] * 4, [-7.0, -9.0, -9.0, -9.0]])
    upper = np.array([[0.0] * 4, [0.0, -9.0, -9.0, -9.0]])
    c = np.array([[1.0, -0.5, 0.25, -2.0], [-1.0, 2.0, 0.5, -0.25]])
    want = [baseline_directional_min(c[n], box(lower[n], upper[n])) for n in range(2)]

    def unreached(*_):
        raise AssertionError("_own_share reached with no coordinate flagged")

    monkeypatch.setattr(attncert.baseline, "_own_share", unreached)
    got = attncert.baseline.baseline_min(c, lower, upper)
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
