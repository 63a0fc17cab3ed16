"""Outward-rounded interval arithmetic on double precision floats.

Every operation returns an interval that is guaranteed to contain the true
real-valued result for all points of its operand intervals.  Soundness is
obtained by nudging computed endpoints outward with ``math.nextafter``:
one ulp for the correctly rounded operations (+, *, /) and two ulps for
``exp``, whose libm implementation is only faithfully rounded.

Endpoints are always finite.  When a true endpoint exceeds the largest
finite double the endpoint saturates at ``sys.float_info.max`` and the
``saturated`` flag is set; a saturated interval still encloses its lower
range but must not be used to certify anything that depends on the upper
endpoint.  The flag is sticky under all operations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ValidationError

_MAX_FLOAT = sys.float_info.max
_INF = math.inf


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    saturated: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValidationError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        x = float(x)
        return Interval(x, x)


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _clip_lo(x: float) -> tuple[float, bool]:
    # Saturate a lower endpoint that overflowed to -inf.
    if x == -_INF:
        return -_MAX_FLOAT, True
    return x, False


def _clip_hi(x: float) -> tuple[float, bool]:
    if x == _INF:
        return _MAX_FLOAT, True
    return x, False


def iv_add(a: Interval, b: Interval) -> Interval:
    lo, slo = _clip_lo(_down(a.lo + b.lo))
    hi, shi = _clip_hi(_up(a.hi + b.hi))
    return Interval(lo, hi, a.saturated or b.saturated or slo or shi)


def iv_mul(a: Interval, b: Interval) -> Interval:
    p = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    lo, slo = _clip_lo(_down(min(p)))
    hi, shi = _clip_hi(_up(max(p)))
    return Interval(lo, hi, a.saturated or b.saturated or slo or shi)


def iv_div(a: Interval, b: Interval) -> Interval:
    """Quotient interval.  Requires a strictly positive divisor: b.lo > 0."""
    if not b.lo > 0.0:
        raise ValidationError(f"iv_div requires a strictly positive divisor, got lo={b.lo}")
    q = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    lo, slo = _clip_lo(_down(min(q)))
    hi, shi = _clip_hi(_up(max(q)))
    return Interval(lo, hi, a.saturated or b.saturated or slo or shi)


def _exp_endpoint(t: float) -> tuple[float, bool]:
    try:
        v = math.exp(t)
    except OverflowError:
        return _MAX_FLOAT, True
    if v == _INF:
        return _MAX_FLOAT, True
    return v, False


def iv_exp(x: Interval) -> Interval:
    """Enclosure of exp over x, padded two ulps beyond the computed endpoints.

    exp underflow leaves the lower endpoint clamped at 0.0 (sound: the true
    value is positive) while the padded upper endpoint stays above it.
    Overflow saturates the affected endpoint at the largest finite double
    and sets the flag.
    """
    if not (math.isfinite(x.lo) and math.isfinite(x.hi)):
        raise ValidationError("iv_exp requires finite endpoints")
    lo_raw, slo = _exp_endpoint(x.lo)
    hi_raw, shi = _exp_endpoint(x.hi)
    lo = lo_raw if slo else max(0.0, _down(_down(lo_raw)))
    hi = hi_raw if shi else _up(_up(hi_raw))
    hi, shi2 = _clip_hi(hi)
    return Interval(lo, hi, x.saturated or slo or shi or shi2)
