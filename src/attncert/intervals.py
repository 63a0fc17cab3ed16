"""Outward-rounded interval arithmetic on float64 arrays.

An `Intervals` value holds matched arrays of lower and upper endpoints.
Every operation works elementwise and returns endpoints that contain the
true real-valued result for all points of its operand intervals.
Soundness comes from nudging computed endpoints outward with
``np.nextafter``. The correctly rounded operations (+, *, /) get one ulp.
``exp`` gets two ulps, because libm's ``exp`` is only faithfully rounded.
Running sums (`cumsum`) get an a-priori error bound instead of a nudge per
addition.

Endpoints are always finite. When a true endpoint lies beyond the largest
finite double, the endpoint saturates at ``sys.float_info.max`` and its
``saturated`` flag is set. A saturated interval still encloses its lower
range, but nothing that depends on its upper endpoint may be certified from
it. The flag is sticky under all operations.

Operands are trusted: finite endpoints with ``lo <= hi``. Callers validate
at their API boundary (`ScoreBox`, `ScoreBoxTensor`).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

_MAX_FLOAT = sys.float_info.max
# exp(709) is about 8.2e307, so math.exp never overflows on clamped
# arguments; above it the upper endpoint saturates.
_EXP_ARG_MAX = 709.0


class Intervals(NamedTuple):
    """Elementwise intervals [lo, hi] with their sticky saturation flags."""

    lo: np.ndarray
    hi: np.ndarray
    saturated: np.ndarray


def point(x) -> Intervals:
    """Degenerate intervals [x, x]."""
    x = np.asarray(x, dtype=np.float64)
    return Intervals(x, x, np.zeros(x.shape, dtype=bool))


def _outward(lo: np.ndarray, hi: np.ndarray, saturated: np.ndarray) -> Intervals:
    """Nudge computed endpoints one ulp outward; an endpoint that overflowed
    saturates at the largest double. A NaN endpoint (inf - inf in `cumsum`)
    only arises when the other endpoint overflowed, so the flag is set, and
    fmax/fmin clip it too."""
    lo = np.nextafter(lo, -np.inf)
    hi = np.nextafter(hi, np.inf)
    saturated = saturated | (lo == -np.inf) | (hi == np.inf)
    return Intervals(np.fmax(lo, -_MAX_FLOAT), np.fmin(hi, _MAX_FLOAT), saturated)


def add(a: Intervals, b: Intervals) -> Intervals:
    with np.errstate(over="ignore"):
        return _outward(a.lo + b.lo, a.hi + b.hi, a.saturated | b.saturated)


def mul(a: Intervals | np.ndarray, b: Intervals) -> Intervals:
    """Product intervals.  A plain array `a` holds point operands, whose
    product with b takes two products instead of four."""
    with np.errstate(over="ignore"):
        if not isinstance(a, Intervals):
            p, q = a * b.lo, a * b.hi
            return _outward(np.minimum(p, q), np.maximum(p, q), b.saturated)
        p = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    lo = np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3]))
    hi = np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3]))
    return _outward(lo, hi, a.saturated | b.saturated)


def div(a: Intervals, b: Intervals) -> Intervals:
    """Quotient intervals. Where the divisor interval contains zero the
    quotient is unbounded: the result is the whole float range, saturated."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    lo = np.minimum(np.minimum(q[0], q[1]), np.minimum(q[2], q[3]))
    hi = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    unbounded = (b.lo <= 0.0) & (b.hi >= 0.0)
    return _outward(np.where(unbounded, -np.inf, lo), np.where(unbounded, np.inf, hi), a.saturated | b.saturated)


def exp(x: Intervals) -> Intervals:
    """Enclosure of exp over x, padded two ulps beyond the computed endpoints.

    The endpoints are evaluated with ``math.exp`` (libm), one element at a
    time. numpy's ``exp`` may dispatch to SIMD kernels with a different
    error: on an AVX-512 host it differed from libm by one ulp on 4.6% of 2M
    arguments in [-700, 0], which the libm error argument for the pad does
    not cover.

    Underflow leaves the lower endpoint at 0.0 (sound: the true value is
    positive) while the padded upper endpoint stays above it. An upper
    argument above 709 saturates the upper endpoint; the lower endpoint is
    then bounded by exp(709).
    """
    args = np.minimum(np.stack((x.lo, x.hi)), _EXP_ARG_MAX)
    e = np.fromiter(map(math.exp, args.ravel().tolist()), dtype=np.float64, count=args.size).reshape(args.shape)
    lo = np.maximum(np.nextafter(np.nextafter(e[0], -np.inf), -np.inf), 0.0)
    hi = np.nextafter(np.nextafter(e[1], np.inf), np.inf)
    over = x.hi > _EXP_ARG_MAX
    return Intervals(lo, np.where(over, _MAX_FLOAT, hi), x.saturated | over)


def cumsum(planes: np.ndarray, saturated: np.ndarray) -> Intervals:
    """Enclosures of the running sums along the last axis.

    The terms come preassembled as planes: planes[0] holds their lower
    endpoints and planes[1] their upper ones, and planes[2] is scratch for
    their magnitudes.  The sums are formed in place, so a caller can write
    its terms straight into one buffer.  `saturated` holds the terms' flags;
    a running sum is saturated from its first saturated term on.

    np.cumsum adds left to right, and recursive summation of n terms obeys
    |fl(S) - S| <= gamma_{n-1} * sum|x_i| with gamma_k = k*u / (1 - k*u) and
    u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 4.2). The computed sum of magnitudes reads low by at most the same
    factor, so padding each sum by n * 2**-52 times that computed sum,
    rounded up, covers the whole error while (n - 1) * u <= 1/4. One cumsum
    over the three planes gives both endpoint sums and the magnitudes.
    """
    n = planes.shape[-1]
    np.maximum(-planes[0], planes[1], out=planes[2])
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(planes, axis=-1, out=planes)
        pad = np.nextafter(planes[2] * (n * 2.0**-52), np.inf)
        return _outward(planes[0] - pad, planes[1] + pad, np.logical_or.accumulate(saturated, axis=-1))
