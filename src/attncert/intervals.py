"""Bounds of affine maps over boxes, and an exponential with a proven error.

`affine_bounds` is where every affine map of the verifier meets a box: the
embedding, the pixel -> Q/K/V maps, W_o and the ReLU head's hidden layer.
It is the sign split of the weights against the box ends, exact in real
arithmetic.  The value coefficients and their residual floor keep their
maps' `sign_split` halves per label and take the lower products alone,
bit for bit affine_bounds' lower half.

`exp` serves `certified.certified_sweep_min`, whose a-priori error bound
needs one for every exponential it takes.  It is a numpy kernel over the
whole array built from IEEE +, -, *, rint and ldexp alone, so its error
follows from round-to-nearest and not from any libm or SIMD exp.  For
x <= 0, with u = 2**-53, mu = 2**-1074 and e = exp(x) in real arithmetic,
the result e~ satisfies

    |e~ - e| <= EXP_KAPPA*u*e + mu,   EXP_KAPPA = 3.

The kernel and its bound, step by step (Cody and Waite, Software Manual for
the Elementary Functions, 1980, for the reduction; Higham, Accuracy and
Stability of Numerical Algorithms, sec. 5.1, for Horner's rule):

* Clamp.  x' = max(x, -746).  exp(-746) < 0.22*mu, so below -746 (and at
  -inf) e~ rounds to 0 in the last step and |e~ - e| <= e < mu.  From
  here on x stands for x', in [-746, 0].
* Reduction.  k = rint(fl(x*L)) with L = fl(1/ln 2); fl(x*L) is within
  (746 + 1077)*u of x/ln 2, so k is an integer in [-1076, 0] and the real
  r* = x - k*ln 2 has |r*| < rho = 0.3466 (ln 2/2 = 0.34657...).  ln 2 is
  split as L1 + L2 (fdlibm's ln2_hi and ln2_lo): L1 has 32 significant
  bits, so k*L1 is exact, and |L1 + L2 - ln 2| <= 2**-86.  t = x - k*L1 is
  exact: for k = 0 it is x, and otherwise |x| >= 1/4 and |k*L1| >= 1/2 are
  multiples of 2**-54 whose difference is below 1/2.  r = fl(t - fl(k*L2))
  then lies within u*rho (the subtraction) + u*1076*L2 (the product) +
  1076*2**-86 (the split) <= 0.3467u of r*, and |r| <= rho.
* Polynomial.  p = Horner's rule, q_13 = c_13, q_i = fl(fl(q_{i+1}*r) +
  c_i), on c_i = fl(1/i!), the Taylor polynomial of degree 13.  With Q_i
  the exact tails sum_{j>=i} c_j*r**(j-i), each step gives
      |q_i - Q_i| <= |r|(1+u)**2 |q_{i+1} - Q_{i+1}| + u(1+u)|r||Q_{i+1}| + u|Q_i|.
  The last term of step 0 is u*|P(r)|, at most 1.0001u*exp(r); every other
  term, summed with |Q_i| bounded by M_i = sum_{j>=i} c_j*rho**(j-i) at
  |r| = rho and divided by exp(r) >= exp(-rho), is at most 1.387u*exp(r).
  The coefficients' roundings add at most u*exp(rho)*sum_{j>=3} rho**j/j!
  <= 0.011u*exp(r).  The truncation error is at most rho**14/14! times
  exp(r) for r >= 0 (Lagrange) and rho**14/14! absolutely for r < 0 (an
  alternating series), so at most rho**14/14!*exp(rho) <= 0.053u times
  exp(r).  So |p - exp(r)| <= 2.452u*exp(r).  A product that underflows
  (only where |r| < 2**-1000) errs by at most mu/2 instead, far below
  u*exp(r).
* Reduction error.  |r - r*| <= 0.3467u gives |exp(r) - exp(r*)| <=
  0.3468u*exp(r*), so |p - exp(r*)| <= 2.80u*exp(r*) <= 3u*exp(r*).
* Scale.  e~ = ldexp(p, k) is 2**k*p exactly where it is normal, and rounds
  once, within mu/2, where it is subnormal; e = 2**k*exp(r*).

Every e~ is at most 1: for k = 0, q_1 > 0 and r <= 0 give fl(q_1*r) <= 0,
and p = fl(fl(q_1*r) + 1) <= 1; for k <= -1, p < 1.42 and 2**k <= 1/2.
tests/test_intervals.py checks the bound against 60-digit Decimal exp.
Interleaved in one process with the math.exp loop it replaced (shared
2-core Xeon), it took 0.26-0.30x that loop's time on the 2,048 points of a
shape-M score box (37-57 against 143-190 us), but 10x on 8 points (23-34
against 2-3.5 us): its 35 numpy calls cost about 25 us however few the
points, and it is cheaper from about 500 points on.
"""

from __future__ import annotations

import math

import numpy as np


def affine_bounds(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest values of w @ x over lo <= x <= hi.

    w has shape (..., n); the box is a vector pair of shape (n,), giving
    bounds of shape (...), or a matrix pair of shape (n, m), one box per
    column, giving bounds of shape (..., m)."""
    shape = w.shape[:-1] + lo.shape[1:]
    wp, wn = sign_split(w)
    return (wp @ lo + wn @ hi).reshape(shape), (wp @ hi + wn @ lo).reshape(shape)


def sign_split(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w's positive and negative parts as flat 2-D weights, (-1, n) each:
    each product is one 2-D matmul, where stacked weights would run as one
    small product per leading index.  wp @ lo + wn @ hi is the least value
    of w @ x over the box."""
    return np.maximum(w, 0.0).reshape(-1, w.shape[-1]), np.minimum(w, 0.0).reshape(-1, w.shape[-1])


# Cody and Waite's two-part ln 2 (fdlibm's ln2_hi and ln2_lo) and 1/ln 2.
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_INV_LN2 = float.fromhex("0x1.71547652b82fep0")
# The Taylor coefficients 1/13!, ..., 1/1!, 1/0!, each rounded once, in
# Horner order.
_TAYLOR = tuple(1.0 / math.factorial(i) for i in range(13, -1, -1))
# exp's relative error bound in units of 2**-53 (module docstring).
EXP_KAPPA = 3.0


def exp(x: np.ndarray) -> np.ndarray:
    """exp of every element of x, which must be at most 0 (-inf gives 0),
    within EXP_KAPPA*2**-53 relative plus 2**-1074 absolute (module
    docstring).  x is left as it is."""
    x = np.maximum(x, -746.0)
    k = np.multiply(x, _INV_LN2)
    np.rint(k, out=k)
    r = np.multiply(k, _LN2_HI)
    np.subtract(x, r, out=r)
    p = np.multiply(k, _LN2_LO, out=x)
    np.subtract(r, p, out=r)
    np.multiply(r, _TAYLOR[0], out=p)
    np.add(p, _TAYLOR[1], out=p)
    for c in _TAYLOR[2:]:
        np.multiply(p, r, out=p)
        np.add(p, c, out=p)
    return np.ldexp(p, k.astype(np.int32), out=p)
