"""Elementwise libm exponentials for the certified sweep.

`certified.certified_sweep_min` bounds the error of every exponential it
uses a priori, assuming each one is faithfully rounded: the returned double
is one of the two that bracket the true value, so it is within one ulp
(relative 2**-52 in the normal range, absolute 2**-1074 below it).  The
exponentials are therefore evaluated with ``math.exp`` (libm), one element
at a time.  numpy's ``exp`` is not used: it may dispatch to SIMD kernels
with a different error; on an AVX-512 host it differed from libm by one ulp
on 4.6% of 2M arguments in [-700, 0], which that assumption does not cover.
"""

from __future__ import annotations

import math

import numpy as np


def exp(x: np.ndarray) -> np.ndarray:
    """math.exp of every element of x, which must be at most 709 so that
    nothing overflows; -inf gives 0."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), dtype=np.float64, count=x.size).reshape(x.shape)
