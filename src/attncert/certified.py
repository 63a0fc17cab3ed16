"""Certified (machine-checkable) lower bound for the directional minimum.

Runs the fast path's threshold sweep (its shift, sort, gather and running
sums) in plain floating point, over exponentials evaluated once per box row
by intervals.exp (a numpy kernel with its own proven error bound, no libm)
and coefficient rows sorted once each, and lowers its smallest
candidate ratio by an a-priori bound on the rounding error that holds for
every candidate of the row.  The returned value is a true lower bound on
the real-arithmetic optimum, whatever the roundoff in the shift, exp, the
products, the prefix sums or the quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import intervals
from .solver import _DBL_MAX, ScoreBox, _as_direction, _blockwise, _broadcast_rows, _shifted_box, _threshold_sums, directional_min


@dataclass(frozen=True)
class CertifiedBound:
    """lower: sound lower bound on the true minimum.
    saturated: a float quantity overflowed; the bound is not certifiable.
    float_value: the fast path's answer for the same instance, for gap
    reporting; solved on first read from the direction and box the bound
    keeps, so a caller that reads only lower pays no fast solve."""

    lower: float
    saturated: bool
    _c: np.ndarray = field(repr=False, compare=False)
    _box: ScoreBox = field(repr=False, compare=False)

    @cached_property
    def float_value(self) -> float:
        return directional_min(self._c, self._box).value


_U = 2.0**-53
_TINY = 2.0**-1074
# Above this |shifted score| exp is below half the smallest subnormal, so
# the absolute term covers it and the relative error stops growing.
_SHIFT_CAP = 746.0


def certified_sweep_min(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sound threshold sweep over every row of (..., K) arrays that
    broadcast together.

    Returns (lower_bound, saturated), both of shape (...). Each row's
    lower_bound is at most the true minimum of c . softmax(s) over its box,
    and never below the row's smallest coefficient. `saturated` marks rows
    where a float quantity overflowed, so the bound certifies nothing and
    is the smallest coefficient.  The inputs are trusted, as in
    solver.sweep_min.

    Error analysis, with u = 2**-53, mu = 2**-1074, gamma_n = n*u/(1-n*u)
    (Higham, Accuracy and Stability of Numerical Algorithms, secs. 3.1
    and 4.2) and round-to-nearest throughout:

    * Shift.  a = max(upper) is an exact float, and the real shift by any
      common a cancels in the ratio.  s~ = fl(x - a) <= 0 is within
      u*|s~| of x - a (exact where the result is subnormal); -inf there
      saturates the row.
    * Exponentials.  e~ = intervals.exp(s~) has |e~ - exp(s~)| <=
      kappa*u*exp(s~) + mu with kappa = intervals.EXP_KAPPA = 3 (module
      intervals: the reduction by k*ln 2, the degree-13 Horner sum and its
      truncation, and one rounding of ldexp where the result is subnormal),
      and e~ <= 1.  With eta = u*min(max|s~|, 746)*(1 + 2**-40) + kappa*u,
      every entry has |e~ - e| <= eta*e + mu for the true e = exp(x - a):
      for |s~| <= 746, exp(s~) is within exp(u|s~|) - 1 <= u|s~|(1 + u|s~|)
      of e relatively, and the second-order terms (kappa*u + u|s~|)*u|s~|
      are below u|s~|*2**-40; for s~ < -746, e~ = 0 and e < mu.
    * Sums.  Candidate m's denominator D^ and numerator N^ are a prefix
      plus a suffix sum of K terms from one prefix sum: each term passes at
      most K additions, and each product one rounding, or an absolute error
      of mu/2 where it underflows.  With eps = eta + gamma_{K+2}:
          |D^ - D| <= eps*D + a_D,   |N^ - N| <= eps*A + a_N,
      where A = sum_j |c_j|*e_j over the candidate's terms, and
      a_D = (K+1)*mu and a_N = (K+1)*mu*(C + 1), C = max|c|, collect the
      absolute terms.
    * Magnitudes.  A <= C*D in real arithmetic, so eps*A/D <= eps*C: no
      magnitude sum is needed.
    * One denominator bound per row.  Candidate 0 keeps every coordinate
      at its lower end, and every other candidate moves some of them up, so
      D_m >= D_0 in real arithmetic.  With delta = D^_0 - a_D > 0,
      D_0 >= delta/(1 + eps); so 1/D_m <= (1 + eps)/delta for every m.
    * Ratio.  For x = N^/D^ (real), tau - x = (N - N^)/D + x*(D^ - D)/D,
      so with rho = a_D/delta:
          |tau - x| <= f'*|x| + g',
          f' = eps + (1 + eps)*rho,   g' = eps*C + (1 + eps)*(C + 1)*rho.
    * Quotient.  tau^ = fl(x) is within u*|tau^| + mu/2 of x.  For
      f' < 1, h(x) = x - f'*|x| is nondecreasing with slope at most
      1 + f' < 2, so tau >= h(x) - g' >= tau^ - f*|tau^| - g with
          f = f'*(1 + u) + u,   g = g' + mu.
      A quotient that overflows to +inf has x > DBL_MAX >= tau^_min, so
      h(x) >= h(tau^_min) covers it too.
    * Candidates.  For f < 1, x -> x - f*|x| is nondecreasing as well (its
      slope is 1 - f or 1 + f), so min_m (tau^_m - f*|tau^_m|) is
      tau^_min - f*|tau^_min|: the row bound
          tau^_min - f*|tau^_min| - g
      needs one divide and one minimum over the candidate plane, and the
      rest is per row.  rho is evaluated as (K+1)*2**-1000 / fl(D^_0 - a_D)
      times 2**-74, so no quotient is subnormal.  f and g are evaluated in
      floats on positive terms, and both are padded by 64u (1 + 2**-47),
      which covers f's factor 1 + u and the at most 13 roundings of f, g,
      eps and f*|tau^_min| + g.  2**-1069 (32 mu) added to g covers g's own mu and
      the at most four products that underflow (mu/2 each); f >= 2u takes
      its one underflow relatively.  One nextafter towards -inf covers the
      final subtraction.  The true ratio is a convex combination of the
      coefficients, so the row's smallest coefficient is a sound floor: it
      is the bound where delta <= 0, f >= 1, some tau^ is NaN (0/0) or the
      smallest is -inf, or the row saturates.

    A row saturates where its shift overflows or where some N^ is not
    finite (D^ <= K + 1 always is: every exponential is at most 1).
    """
    lead, order, cs, c_row, lower, upper, box_row = _broadcast_rows(c, lower, upper)
    # The shift and the exponentials depend on the box alone, so they are
    # evaluated once per box row and gathered for every output row.
    s = _shifted_box(lower, upper)
    s_max = np.abs(s).max(axis=(0, -1), initial=0.0)
    eta = _U * np.minimum(s_max, _SHIFT_CAP) * (1.0 + 2.0**-40) + intervals.EXP_KAPPA * _U
    box_exp = intervals.exp(s).reshape(2, -1)
    bound, saturated = _blockwise(_sweep_block, c_row, box_row, order, cs, box_exp, eta, s_max == np.inf)
    return bound.reshape(lead), saturated.reshape(lead)


# f and g are padded by 64u, and g takes an absolute slack of 32 mu (see
# certified_sweep_min).
_PAD = 1.0 + 2.0**-47
_SLACK = 2.0**-1069


def _sweep_block(
    c_row, box_row, order, cs, box_exp, eta: np.ndarray, box_saturated: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """certified_sweep_min on the n output rows of solver._threshold_sums;
    row r takes eta from box row box_row[r]."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cs, _, (den, num, tau, _) = _threshold_sums(c_row, box_row, order, cs, box_exp)
        k = cs.shape[1]
        c_lo = cs[:, 0]
        c_max = np.maximum(-c_lo, cs[:, -1])
        saturated = box_saturated[box_row]
        # Every exponential is at most 1, so D^ <= K + 1 is finite, and N^
        # can overflow only on a row with some |c| above DBL_MAX / (2(K+1)).
        if (c_max > _DBL_MAX / (2 * (k + 1))).any():
            saturated = saturated | ~np.isfinite(num).all(axis=-1)
        np.divide(num, den, out=tau)
        # argmin and a gather: numpy's min over a short last axis is slower.
        t_min = tau[np.arange(len(tau)), tau.argmin(axis=-1)]
        gamma = (k + 2) * _U / (1.0 - (k + 2) * _U)
        eps = eta[box_row] + gamma
        # (1 + eps) * rho * 2**74: normal where delta > 0, and inf where
        # delta <= 0, which makes f inf.
        rho = (k + 1) * 2.0**-1000 / np.maximum(den[:, 0] - (k + 1) * _TINY, 0.0)
        rho *= 1.0 + eps
        f = (rho * 2.0**-74 + eps) * _PAD + _U * _PAD
        g = ((c_max + 1.0) * 2.0**-74 * rho + eps * c_max) * _PAD + _SLACK
        best = np.nextafter(t_min - (f * np.abs(t_min) + g), -np.inf)
    best[(f >= 1.0) | saturated] = -np.inf
    # fmax also floors a NaN minimum (a 0/0 candidate).
    return np.fmax(best, c_lo), saturated


def certified_directional_min(c, box: ScoreBox) -> CertifiedBound:
    """certified_sweep_min on one row; the fast path's value for reporting
    the gap is solved only if float_value is read."""
    c = _as_direction(c, box.lower)
    bound, saturated = certified_sweep_min(c, box.lower, box.upper)
    return CertifiedBound(lower=float(bound), saturated=bool(saturated), _c=c, _box=box)
