"""Certified (machine-checkable) lower bound for the directional minimum.

Runs the fast path's threshold sweep (its shift, sort, gather and running
sums) in plain floating point, over exponentials evaluated once per box row
with libm and coefficient rows sorted once each, adds one magnitude plane
to the sums, and lowers every candidate ratio by an a-priori bound on its
rounding error.  The returned value is a true lower bound on the
real-arithmetic optimum, whatever the roundoff in the shift, exp, the
products, the prefix sums or the quotients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import intervals
from .solver import ScoreBox, _as_direction, _blockwise, _broadcast_rows, _shifted_box, _threshold_sums, directional_min


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
    where a float quantity overflowed, so the bound certifies nothing.
    The inputs are trusted, as in solver.sweep_min.

    Error analysis, with u = 2**-53, mu = 2**-1074, gamma_n = n*u/(1-n*u)
    (Higham, Accuracy and Stability of Numerical Algorithms, secs. 3.1
    and 4.2) and round-to-nearest throughout:

    * Shift.  a = max(upper) is an exact float, and the real shift by any
      common a cancels in the ratio.  s~ = fl(x - a) <= 0 is within
      u*|s~| of x - a (exact where the result is subnormal); -inf there
      saturates the row.
    * Exponentials.  e~ = math.exp(s~) is faithfully rounded (module
      intervals).  With eta = u*min(max|s~|, 746)*(1 + 2**-40) + 2u, every
      entry has |e~ - e| <= eta*e + mu for the true e = exp(x - a):
      relatively for a normal result with |s~| <= 746 (exp(u|s~|) - 1
      and the 2u of faithful rounding, the 2**-40 absorbing the second-order
      terms), and absolutely, within mu, where exp(s~) is subnormal or
      s~ < -746 (then e and e~ both lie in [0, mu]).
    * Sums.  Candidate m's denominator D^, numerator N^ and magnitude A^
      (the terms |fl(c*e~)|) are a prefix plus a suffix sum of K terms from
      one prefix sum: each term passes at most K additions, and each product
      one rounding, or an absolute error of mu/2 where it underflows.
      With eps = eta + gamma_{K+2}:
          |D^ - D| <= eps*D + a_D,   |N^ - N| <= eps*A + a_N,
          A <= (A^ + a_N) / (1 - eps),
      where a_D = (K+1)*mu and a_N = (K+1)*mu*(max|c| + 1) collect the
      absolute terms.  Also |N^/D^| <= 2*max|c| + 1/2 wherever D^ > a_D.
    * Ratio.  tau - N^/D^ = (N - N^)/D - (N^/D^)(D - D^)/D and
      D >= (D^ - a_D)/(1 + eps), so
          |tau - N^/D^| <= (eps*|N^| + eps*r*A^ + W) / (D^ - a_D),
      r = (1 + eps)/(1 - eps), where W = (K+1)*(max|c| + 1)*2**-1070 is
      at least four times r*a_N + (1 + eps)*|N^/D^|*a_D; the rest absorbs
      the absolute (subnormal) roundings of tau^ and of E_m's own
      evaluation, at most (2K + 1)*mu in all.
    * Quotient.  tau^ = fl(N^/D^) is within u*|tau^| (plus mu/2, inside W)
      of N^/D^.  So
          E_m = ((eps*|N^| + eps*r*A^ + W) / (D^ - a_D) + u*|tau^|) * (1 + 16u)
      bounds |tau - tau^|: the (1 + 16u) pad covers the 14 roundings of
      its own float evaluation, eps and r included.
    * Candidates.  tau^ - E_m <= tau_m where D^ > a_D; elsewhere the
      candidate gives -inf.  nextafter(min_m fl(tau^ - E_m), -inf) is at
      most the exact min_m (tau^ - E_m), so at most the true minimum.  The
      true ratio is a convex combination of the coefficients, so the row's
      smallest coefficient is a sound floor for every candidate.

    A row saturates where its shift overflows or where some D^, N^ or A^
    is not finite.
    """
    lead, order, cs, c_row, lower, upper, box_row = _broadcast_rows(c, lower, upper)
    # The shift and the exponentials depend on the box alone, so they are
    # evaluated once per box row and gathered for every output row.
    s = _shifted_box(lower, upper)
    s_max = np.abs(s).max(axis=(0, -1), initial=0.0)
    eta = _U * np.minimum(s_max, _SHIFT_CAP) * (1.0 + 2.0**-40) + 2.0 * _U
    box_exp = intervals.exp(s).reshape(2, -1)
    bound, saturated = _blockwise(_sweep_block, c_row, box_row, order, cs, box_exp, eta, s_max == np.inf)
    return bound.reshape(lead), saturated.reshape(lead)


def _sweep_block(
    c_row, box_row, order, cs, box_exp, eta: np.ndarray, box_saturated: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """certified_sweep_min on the n output rows of solver._threshold_sums;
    row r takes eta from box row box_row[r]."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cs, _, t = _threshold_sums(c_row, box_row, order, cs, box_exp, magnitude=True)
        den, num, mag, tau, err, tmp = t
        k = cs.shape[1]
        gamma = (k + 2) * _U / (1.0 - (k + 2) * _U)
        eps = (eta[box_row] + gamma)[:, None]
        eps_r = eps * (1.0 + eps) / (1.0 - eps)
        # W rounded up, in an order that neither overflows nor drops the
        # subnormal tail: (max|c| + 1) * 2**-60 times (K + 1) * 2**-1010.
        c_max = np.maximum(-cs[:, 0], cs[:, -1])
        w = np.nextafter((c_max + 1.0) * 2.0**-60 * ((k + 1) * 2.0**-1010), np.inf)[:, None]
        np.divide(num, den, out=tau)
        # err = ((eps*|N^| + eps*r*A^ + W) / max(D^ - a_D, 0) + u*|tau^|) * (1 + 16u),
        # in the free planes.  D^ <= a_D gives a zero divisor, E = inf and a
        # -inf (or NaN) candidate, which the floor below replaces.  Each
        # per-row factor is filled into a plane first: an (n, 1) broadcast
        # operand would take numpy's iterator buffer.
        err[...] = eps
        err *= np.abs(num, out=tmp)
        tmp[...] = eps_r
        err += np.multiply(tmp, mag, out=tmp)
        tmp[...] = w
        err += tmp
        err /= np.maximum(np.subtract(den, (k + 1) * _TINY, out=tmp), 0.0, out=tmp)
        err += np.multiply(np.abs(tau, out=tmp), _U, out=tmp)
        err *= 1.0 + 16.0 * _U
        tau -= err
        best = np.nextafter(tau.min(axis=-1), -np.inf)
    saturated = box_saturated[box_row] | ~np.isfinite(t[:3]).all(axis=(0, -1))
    # fmax also floors a NaN minimum (an inf - inf candidate).
    return np.fmax(best, cs[:, 0]), saturated


def certified_directional_min(c, box: ScoreBox) -> CertifiedBound:
    """certified_sweep_min on one row; the fast path's value for reporting
    the gap is solved only if float_value is read."""
    c = _as_direction(c, box.lower)
    bound, saturated = certified_sweep_min(c, box.lower, box.upper)
    return CertifiedBound(lower=float(bound), saturated=bool(saturated), _c=c, _box=box)
