"""Certified (machine-checkable) lower bound for the directional minimum.

Runs the fast path's threshold sweep (its shift, sort, gather and running
sums) in plain floating point, over exponentials evaluated once per box row
with libm, adds one magnitude plane to the sums, and lowers every candidate
ratio by an a-priori bound on its rounding error.  The returned value is a true lower bound on the
real-arithmetic optimum, whatever the roundoff in the shift, exp, the
products, the prefix sums or the quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import intervals
from .solver import ScoreBox, _as_direction, _blockwise, _broadcast_rows, _shifted_box, _threshold_sums, directional_min


@dataclass(frozen=True)
class CertifiedBound:
    """lower: sound lower bound on the true minimum.
    float_value: the fast path's answer for the same instance, for gap reporting.
    saturated: a float quantity overflowed; the bound is not certifiable."""

    lower: float
    float_value: float
    saturated: bool


# Rows are swept in blocks of about this many elements.  A block's planes
# and temporaries peak at about 140 bytes per element, so a shape-M target
# stack (9,216 elements, three blocks) peaks near 0.6 MB, with no measured
# loss of speed against one 2**15 block (1.2 MB).
_BLOCK_ELEMENTS = 4096

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
      one cumsum: each term passes at most K additions, and each product
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
    lead, c, lower, upper, box_row = _broadcast_rows(c, lower, upper)
    # The shift and the exponentials depend on the box alone, so they are
    # evaluated once per box row and gathered for every coefficient row.
    s = _shifted_box(lower, upper)
    box_exp = intervals.exp(s).reshape(2, -1)
    s_max = np.abs(s).max(axis=(0, -1), initial=0.0)
    eta = _U * np.minimum(s_max, _SHIFT_CAP) * (1.0 + 2.0**-40) + 2.0 * _U
    bound, saturated = _blockwise(_sweep_block, _BLOCK_ELEMENTS, c, box_row, box_exp, eta, s_max == np.inf)
    return bound.reshape(lead), saturated.reshape(lead)


def _sweep_block(
    c: np.ndarray, box_row: np.ndarray, box_exp: np.ndarray, eta: np.ndarray, box_saturated: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """certified_sweep_min on (n, K) coefficient rows; row r gathers its
    exponentials and eta from box row box_row[r]."""
    k = c.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cs, _, sums = _threshold_sums(c, box_row, box_exp, magnitude=True)
        den, num, mag = sums
        gamma = (k + 2) * _U / (1.0 - (k + 2) * _U)
        eps = (eta[box_row] + gamma)[:, None]
        eps_r = eps * (1.0 + eps) / (1.0 - eps)
        # W rounded up, in an order that neither overflows nor drops the
        # subnormal tail: (max|c| + 1) * 2**-60 times (K + 1) * 2**-1010.
        c_max = np.maximum(-cs[:, 0], cs[:, -1])
        w = np.nextafter((c_max + 1.0) * 2.0**-60 * ((k + 1) * 2.0**-1010), np.inf)[:, None]
        tau = num / den
        # D^ <= a_D gives a zero divisor, E = inf and a -inf (or NaN)
        # candidate, which the floor below replaces.
        err = eps * np.abs(num) + eps_r * mag + w
        err /= np.maximum(den - (k + 1) * _TINY, 0.0)
        err += np.abs(tau) * _U
        err *= 1.0 + 16.0 * _U
        tau -= err
        best = np.nextafter(tau.min(axis=-1), -np.inf)
    saturated = box_saturated[box_row] | ~np.isfinite(sums).all(axis=(0, -1))
    # fmax also floors a NaN minimum (an inf - inf candidate).
    return np.fmax(best, cs[:, 0]), saturated


def certified_directional_min(c, box: ScoreBox) -> CertifiedBound:
    """certified_sweep_min on one row, with the fast path's value for
    reporting the gap."""
    c = _as_direction(c, box.lower)
    bound, saturated = certified_sweep_min(c, box.lower, box.upper)
    fast = directional_min(c, box)
    return CertifiedBound(lower=float(bound), float_value=fast.value, saturated=bool(saturated))
