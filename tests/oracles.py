"""Independent reference implementations used only by the tests.

Two oracles, deliberately built on different machinery than the package:

* naive_vertex_min: literal enumeration of every box vertex with math.exp,
  for small K.
* decimal_min_enclosure: a 60-digit decimal evaluation of the threshold
  sweep with directed rounding on every add/multiply/divide and padded
  exponentials, giving a rigorous enclosure of the true minimum that does
  not depend on the package's shift or rounding choices.

Two row-loop references reuse the package's own row solvers instead: they
are the one-row-at-a-time forms of the batched margin and block-output
bounds, so a test can check that batching leaves every result unchanged.

scalar_certified_min is the certified sweep as it was before the batched
kernel: one row, scalar intervals, a one-ulp nudge on every addition of the
prefix and suffix sums.  It is the reference the kernel is compared with.

threshold_vertices is the attack's vertex set as the harness built it
before it took the solver's helper: every threshold vertex from one
lower-triangular mask.
"""

from __future__ import annotations

import itertools
import math
import sys
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

import numpy as np

from attncert import directional_max, directional_min, model_score_boxes, value_scalar_bounds
from attncert.attention import token_bounds

PREC = 60
CTX_DN = Context(prec=PREC, rounding=ROUND_FLOOR)
CTX_UP = Context(prec=PREC, rounding=ROUND_CEILING)
_CTX_EXP = Context(prec=PREC + 10)
# Decimal exp is correctly rounded at its context precision; this pad is
# orders of magnitude beyond that error.
_EXP_PAD = Decimal("1e-55")


def naive_vertex_min(c, lower, upper) -> float:
    choices = [(l,) if l == u else (l, u) for l, u in zip(lower, upper)]
    best = math.inf
    for vertex in itertools.product(*choices):
        a = max(vertex)
        e = [math.exp(s - a) for s in vertex]
        v = sum(ci * ei for ci, ei in zip(c, e)) / sum(e)
        best = min(best, v)
    return best


def _exp_enclosure(t: Decimal) -> tuple[Decimal, Decimal]:
    r = _CTX_EXP.exp(t)
    pad = CTX_UP.multiply(abs(r), _EXP_PAD)
    lo = CTX_DN.subtract(r, pad)
    hi = CTX_UP.add(r, pad)
    if lo < 0:
        lo = Decimal(0)
    return lo, hi


def decimal_min_enclosure(c, lower, upper) -> tuple[Decimal, Decimal]:
    """Rigorous [lo, hi] containing the true minimum of c . softmax(s) over
    the box, via the threshold characterization (no shift needed: decimal's
    exponent range dwarfs the instances)."""
    k = len(c)
    order = sorted(range(k), key=lambda j: (c[j], j))
    cd = [Decimal(float(c[j])) for j in order]
    exp_l = [_exp_enclosure(Decimal(float(lower[j]))) for j in order]
    exp_u = [_exp_enclosure(Decimal(float(upper[j]))) for j in order]

    def term(cj: Decimal, x: tuple[Decimal, Decimal]) -> tuple[Decimal, Decimal]:
        if cj >= 0:
            return CTX_DN.multiply(cj, x[0]), CTX_UP.multiply(cj, x[1])
        return CTX_DN.multiply(cj, x[1]), CTX_UP.multiply(cj, x[0])

    best_lo = None
    best_hi = None
    for m in range(k + 1):
        num_dn = num_up = den_dn = den_up = Decimal(0)
        for pos in range(k):
            x = exp_u[pos] if pos < m else exp_l[pos]
            t_dn, t_up = term(cd[pos], x)
            num_dn = CTX_DN.add(num_dn, t_dn)
            num_up = CTX_UP.add(num_up, t_up)
            den_dn = CTX_DN.add(den_dn, x[0])
            den_up = CTX_UP.add(den_up, x[1])
        assert den_dn > 0, "decimal denominators stay positive at test scales"
        tau_lo = min(CTX_DN.divide(num_dn, den_dn), CTX_DN.divide(num_dn, den_up))
        tau_hi = max(CTX_UP.divide(num_up, den_dn), CTX_UP.divide(num_up, den_up))
        best_lo = tau_lo if best_lo is None else min(best_lo, tau_lo)
        best_hi = tau_hi if best_hi is None else min(best_hi, tau_hi)
    return best_lo, best_hi


_MAX_FLOAT = sys.float_info.max


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _iv(lo: float, hi: float, sat: bool) -> tuple[float, float, bool]:
    """A scalar interval (lo, hi, saturated), endpoints clipped to the
    finite range with the saturation flag set."""
    if lo == -math.inf:
        lo, sat = -_MAX_FLOAT, True
    if hi == math.inf:
        hi, sat = _MAX_FLOAT, True
    return lo, hi, sat


def _iv_add(a, b):
    return _iv(_down(a[0] + b[0]), _up(a[1] + b[1]), a[2] or b[2])


def _iv_mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _iv(_down(min(p)), _up(max(p)), a[2] or b[2])


def _iv_exp(x):
    def endpoint(t):
        try:
            v = math.exp(t)
        except OverflowError:
            return _MAX_FLOAT, True
        return (_MAX_FLOAT, True) if v == math.inf else (v, False)

    lo_raw, slo = endpoint(x[0])
    hi_raw, shi = endpoint(x[1])
    lo = lo_raw if slo else max(0.0, _down(_down(lo_raw)))
    hi = hi_raw if shi else _up(_up(hi_raw))
    return _iv(lo, hi, x[2] or slo or shi)


def scalar_certified_min(c, lower, upper) -> tuple[float, bool]:
    """(lower bound, saturated) for one row, evaluated as the pre-batching
    certified_directional_min did."""
    c = np.asarray(c, dtype=np.float64)
    order = np.argsort(c, kind="stable")
    cs = c[order]
    ls = np.asarray(lower, dtype=np.float64)[order]
    us = np.asarray(upper, dtype=np.float64)[order]
    k = len(cs)

    def point(x):
        return (float(x), float(x), False)

    neg_a = point(-us.max())
    upper_exp = [_iv_exp(_iv_add(point(us[j]), neg_a)) for j in range(k)]
    lower_exp = [_iv_exp(_iv_add(point(ls[j]), neg_a)) for j in range(k)]
    upper_cexp = [_iv_mul(point(cs[j]), upper_exp[j]) for j in range(k)]
    lower_cexp = [_iv_mul(point(cs[j]), lower_exp[j]) for j in range(k)]

    def prefix(terms):
        out = [point(0.0)]
        for t in terms:
            out.append(_iv_add(out[-1], t))
        return out

    def suffix(terms):
        return prefix(terms[::-1])[::-1]

    pre_u, pre_cu = prefix(upper_exp), prefix(upper_cexp)
    suf_l, suf_cl = suffix(lower_exp), suffix(lower_cexp)
    c_floor = float(cs[0])
    best = math.inf
    saturated = False
    for m in range(k + 1):
        den = _iv_add(pre_u[m], suf_l[m])
        num = _iv_add(pre_cu[m], suf_cl[m])
        saturated = saturated or den[2] or num[2]
        if den[0] <= 0.0:
            tau_lo = c_floor
        else:
            q = (num[0] / den[0], num[0] / den[1], num[1] / den[0], num[1] / den[1])
            tau_lo = max(_down(min(q)), -_MAX_FLOAT)
        best = min(best, tau_lo)
    return max(best, c_floor), saturated


# 60-digit reference constants for the interval tests.
E_HI_PREC = Decimal("2.71828182845904523536028747135266249775724709369995957496697")
E_INV_HI_PREC = Decimal("0.367879441171442321595523770161460867445811131031767834507837")


def margin_row_loop(coeffs, scores, target_pos, row_bound) -> float:
    """The floor plus row_bound(c_row, row_box) for every (head, query
    token) row of one target, added one row at a time in that order."""
    c = coeffs.c[target_pos]
    total = float(coeffs.b_prime[target_pos])
    for h in range(scores.heads):
        for i in range(scores.tokens):
            total += row_bound(c[h, i], scores.row(h, i))
    return total


def block_output_row_loop(model, box):
    """block_output_bounds with one directional_min / directional_max call
    per (head, query token, value coordinate) row."""
    scores = model_score_boxes(model, box)
    v_lo, v_hi = value_scalar_bounds(model, box)
    heads, tokens, d_head = v_lo.shape
    o_lo = np.empty((heads, tokens, d_head))
    o_hi = np.empty((heads, tokens, d_head))
    for h in range(heads):
        for i in range(tokens):
            row = scores.row(h, i)
            for r in range(d_head):
                o_lo[h, i, r] = directional_min(v_lo[h, :, r], row).value
                o_hi[h, i, r] = directional_max(v_hi[h, :, r], row).value
    o_lo, o_hi = np.minimum(o_lo, o_hi), np.maximum(o_lo, o_hi)
    wo_p = np.maximum(model.wo, 0.0)
    wo_n = np.minimum(model.wo, 0.0)
    out_lo = np.einsum("hmd,hid->im", wo_p, o_lo) + np.einsum("hmd,hid->im", wo_n, o_hi) + model.bo
    out_hi = np.einsum("hmd,hid->im", wo_p, o_hi) + np.einsum("hmd,hid->im", wo_n, o_lo) + model.bo
    if model.residual:
        t_lo, t_hi = token_bounds(model, box)
        out_lo = out_lo + t_lo
        out_hi = out_hi + t_hi
    return out_lo, out_hi


def threshold_vertices(c, box) -> np.ndarray:
    """All K+1 threshold vertices of the ascending-c sweep, original order."""
    k = box.size
    order = np.argsort(c, kind="stable")
    ls = box.lower[order]
    us = box.upper[order]
    take_upper = np.tril(np.ones((k + 1, k), dtype=bool), -1)
    vs = np.where(take_upper, us[None, :], ls[None, :])
    out = np.empty_like(vs)
    out[:, order] = vs
    return out
