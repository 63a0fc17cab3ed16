"""Bounds of affine maps over boxes, and libm exponentials.

`affine_bounds` is where every affine map of the verifier meets a box: the
embedding, the pixel -> Q/K/V maps, W_o and the ReLU head's hidden layer;
`affine_lower`, its lower half alone, serves the value coefficients and
their residual floor.  It is the sign split of the weights against the box
ends, exact in real arithmetic.

`exp` serves `certified.certified_sweep_min`, whose a-priori error bound
assumes every exponential is faithfully rounded: within one ulp (relative
2**-52 in the normal range, absolute 2**-1074 below it).  It is libm's
``math.exp``, one element at a time.  numpy's ``exp`` may dispatch to SIMD
kernels with a different error; on an AVX-512 host it differed from libm by
one ulp on 4.6% of 2M arguments in [-700, 0].
"""

from __future__ import annotations

import math

import numpy as np


def affine_bounds(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest values of w @ x over lo <= x <= hi.

    w has shape (..., n); the box is a vector pair of shape (n,), giving
    bounds of shape (...), or a matrix pair of shape (n, m), one box per
    column, giving bounds of shape (..., m)."""
    shape, wp, wn = _sign_split(w, lo)
    return (wp @ lo + wn @ hi).reshape(shape), (wp @ hi + wn @ lo).reshape(shape)


def affine_lower(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """affine_bounds' least values alone, without the greatest's products."""
    shape, wp, wn = _sign_split(w, lo)
    return (wp @ lo + wn @ hi).reshape(shape)


def _sign_split(w: np.ndarray, lo: np.ndarray):
    """The bounds' shape and w's positive and negative parts as flat 2-D
    weights: each product is one 2-D matmul, where stacked weights would
    run as one small product per leading index."""
    shape = w.shape[:-1] + lo.shape[1:]
    return shape, np.maximum(w, 0.0).reshape(-1, w.shape[-1]), np.minimum(w, 0.0).reshape(-1, w.shape[-1])


def exp(x: np.ndarray) -> np.ndarray:
    """math.exp of every element of x, which must be at most 709 so that
    nothing overflows; -inf gives 0."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), dtype=np.float64, count=x.size).reshape(x.shape)
