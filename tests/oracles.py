"""Independent reference implementations used only by the tests.

Two oracles, deliberately built on different machinery than the package:

* naive_vertex_min: literal enumeration of every box vertex with math.exp,
  for small K.
* decimal_min_enclosure: a 60-digit decimal evaluation of the threshold
  sweep with directed rounding on every add/multiply/divide and padded
  exponentials of the scores shifted exactly by their largest upper end,
  giving a rigorous enclosure of the true minimum that does not depend on
  the package's rounding choices.

Two row-loop references reuse the package's own row solvers instead: they
are the one-row-at-a-time forms of the batched margin and block-output
bounds, so a test can check that batching leaves every result unchanged.
The block-output one ends in the package's own W_o step through
intervals.affine_bounds, so only the rows differ from the batched path.

scalar_certified_min is the certified sweep as it was before the batched
kernel: one row, scalar intervals, a one-ulp nudge on every addition of the
prefix and suffix sums.  It is the reference the kernel is compared with.

Intervals, point, add, mul, div, exp and cumsum are the outward-rounded
array interval arithmetic the certified kernel used before it bounded its
error a priori.  certified_sweep_rowwise is that interval kernel as it was
before it shared the box exponentials: every coefficient row gathers its
own box endpoints in its sort order and evaluates their shift and
exponentials itself.  The a-priori kernel must stay within 1e-12 of the
coefficients' scale of it, with the same saturation flags except on rows
where only the sum of the numerator terms' magnitudes overflows: the
interval kernels saturate there, and the a-priori kernel does not.

certified_error_bound_exact is the bound certified_sweep_min's error
analysis promises for one row, evaluated in exact rational arithmetic over
the same float sums the kernel forms (certified_threshold_sums, one Python
float operation at a time).  The kernel's own float evaluation of that
bound must never rise above it.

softmax_output_bounds_own_shift is the baseline's per-coordinate output
box with every coordinate evaluated at its own vertex, shifted by that
vertex's own max, with math.exp and an exactly rounded sum.

threshold_vertices is the attack's vertex set as the harness built it
before it took the solver's helper: every threshold vertex from one
lower-triangular mask.

forward_broadcast is the forward pass as it was before the projections were
flattened: heads as a broadcast matmul axis and the softmax over the last
axis.  The flat pass's logits must match it to roundoff, and tests read
every intermediate (tokens, scores, attention, block output, hidden
pre-activations) from its ForwardTrace.

attack_margin_per_target and scalar_margin_polish are the margin attack as
it was before all targets shared one search: one target at a time, with its
own sample stream keyed by (seed, image_size, target), and an endpoint
coordinate descent that scores one point per forward call.

lockstep_margin_polish is the shared polish as it was before each target
scored a window of coordinates per forward call: all targets step through
one coordinate per forward_batch.  The windowed polish must make the same
decisions.

attack_margin_sample_start is attack_min_margin as it was before each
target could start from its secant corner: the lockstep polish from the
best point of the shared sample batch.  secant_corner builds a target's
corner one probe at a time with forward.

attack_vertices_loop, scalar_objective_polish and attack_objective_loop are
attack_min_objective as it was before its polish was removed: the threshold
vertices of both c and -c scattered into place one side at a time, the
samples stacked below them, and an endpoint coordinate descent from the
best candidate that scores one point per softmax call.  One threshold
vertex of c is the exact minimizer, so the attack without the -c vertices
and the descent must stay within rounding of it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, Inexact
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from attncert import ScoreBox, directional_max, directional_min, intervals, softmax_objective
from attncert.attention import model_score_boxes, token_bounds, value_scalar_bounds
from attncert.intervals import affine_bounds
from attncert.model import LinearSuffix, forward, forward_batch, patch_pixel_indices
from attncert.solver import _objective

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


# Exact for the difference of any two doubles (at most 1,400 digits).
_CTX_EXACT = Context(prec=2000, traps=[Inexact])
# Exponentials below this are enclosed as [0, _EXP_FLOOR]: Decimal's own
# subnormal results are not accurate to _EXP_PAD.
_EXP_FLOOR = Decimal(1).scaleb(_CTX_EXP.Emin)


def _exp_enclosure(t: Decimal) -> tuple[Decimal, Decimal]:
    r = _CTX_EXP.exp(t)
    if r < _EXP_FLOOR:
        return Decimal(0), _EXP_FLOOR
    pad = CTX_UP.multiply(abs(r), _EXP_PAD)
    lo = CTX_DN.subtract(r, pad)
    hi = CTX_UP.add(r, pad)
    if lo < 0:
        lo = Decimal(0)
    return lo, hi


def decimal_min_enclosure(c, lower, upper) -> tuple[Decimal, Decimal]:
    """Rigorous [lo, hi] containing the true minimum of c . softmax(s) over
    the box, via the threshold characterization.  The scores are shifted
    by the largest upper end exactly, which leaves every ratio as it is and
    keeps the exponentials in range; a candidate whose denominator's lower
    end is 0 (every term below _EXP_FLOOR) is enclosed by [min c, max c],
    which holds for any convex combination of the coefficients."""
    k = len(c)
    order = sorted(range(k), key=lambda j: (c[j], j))
    cd = [Decimal(float(c[j])) for j in order]
    a = Decimal(max(float(x) for x in upper))
    exp_l = [_exp_enclosure(_CTX_EXACT.subtract(Decimal(float(lower[j])), a)) for j in order]
    exp_u = [_exp_enclosure(_CTX_EXACT.subtract(Decimal(float(upper[j])), a)) for j in order]

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
        if den_dn > 0:
            tau_lo = min(CTX_DN.divide(num_dn, den_dn), CTX_DN.divide(num_dn, den_up))
            tau_hi = max(CTX_UP.divide(num_up, den_dn), CTX_UP.divide(num_up, den_up))
        else:
            tau_lo, tau_hi = cd[0], cd[-1]
        best_lo = tau_lo if best_lo is None else min(best_lo, tau_lo)
        best_hi = tau_hi if best_hi is None else min(best_hi, tau_hi)
    return best_lo, best_hi


_MAX_FLOAT = sys.float_info.max


class Intervals(NamedTuple):
    """Elementwise intervals [lo, hi] with their sticky saturation flags.

    Every operation below works elementwise and returns endpoints that
    contain the true real-valued result for all points of its operand
    intervals, by nudging computed endpoints outward with np.nextafter: one
    ulp for the correctly rounded +, *, /, two for libm's exp.  An endpoint
    beyond the largest double saturates there and sets the sticky flag.
    Operands are trusted: finite endpoints with lo <= hi."""

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


# exp(709) is about 8.2e307, so math.exp never overflows on clamped
# arguments; above it the upper endpoint saturates.
_EXP_ARG_MAX = 709.0


def exp(x: Intervals) -> Intervals:
    """Enclosure of exp over x, by math.exp (libm) padded two ulps beyond
    the computed endpoints.  Underflow leaves the lower endpoint at 0.0; an
    upper argument above 709 saturates the upper endpoint."""
    args = np.minimum(np.stack((x.lo, x.hi)), _EXP_ARG_MAX)
    e = np.fromiter(map(math.exp, args.ravel().tolist()), dtype=np.float64, count=args.size).reshape(args.shape)
    lo = np.maximum(np.nextafter(np.nextafter(e[0], -np.inf), -np.inf), 0.0)
    hi = np.nextafter(np.nextafter(e[1], np.inf), np.inf)
    over = x.hi > _EXP_ARG_MAX
    return Intervals(lo, np.where(over, _MAX_FLOAT, hi), x.saturated | over)


def cumsum(planes: np.ndarray, saturated: np.ndarray) -> Intervals:
    """Enclosures of the running sums along the last axis.

    planes[0] holds the terms' lower endpoints, planes[1] their upper ones
    and planes[2] is scratch for their magnitudes; the sums are formed in
    place.  A running sum is saturated from its first saturated term on.
    Recursive summation of n terms obeys |fl(S) - S| <= gamma_{n-1} *
    sum|x_i| (Higham, sec. 4.2), so each sum is padded by n * 2**-52 times
    the computed sum of magnitudes, rounded up.
    """
    n = planes.shape[-1]
    np.maximum(-planes[0], planes[1], out=planes[2])
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(planes, axis=-1, out=planes)
        pad = np.nextafter(planes[2] * (n * 2.0**-52), np.inf)
        return _outward(planes[0] - pad, planes[1] + pad, np.logical_or.accumulate(saturated, axis=-1))


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
    lower, upper = scores
    heads, tokens = lower.shape[:2]
    for h in range(heads):
        for i in range(tokens):
            total += row_bound(c[h, i], ScoreBox(lower=lower[h, i], upper=upper[h, i]))
    return total


def block_output_row_loop(model, box):
    """block_output_bounds with one directional_min / directional_max call
    per (head, query token, value coordinate) row."""
    s_lo, s_hi = model_score_boxes(model, box)
    v_lo, v_hi = value_scalar_bounds(model, box)
    heads, tokens, d_head = v_lo.shape
    o_lo = np.empty((heads, tokens, d_head))
    o_hi = np.empty((heads, tokens, d_head))
    for h in range(heads):
        for i in range(tokens):
            row = ScoreBox(lower=s_lo[h, i], upper=s_hi[h, i])
            for r in range(d_head):
                o_lo[h, i, r] = directional_min(v_lo[h, :, r], row).value
                o_hi[h, i, r] = directional_max(v_hi[h, :, r], row).value
    o_lo, o_hi = np.minimum(o_lo, o_hi), np.maximum(o_lo, o_hi)
    cols = [o.transpose(0, 2, 1).reshape(-1, model.tokens) for o in (o_lo, o_hi)]
    out_lo, out_hi = affine_bounds(model._w_o.T, *cols)
    out_lo, out_hi = out_lo.T + model.bo, out_hi.T + model.bo
    if model.residual:
        t_lo, t_hi = token_bounds(model, box)
        out_lo = out_lo + t_lo
        out_hi = out_hi + t_hi
    return out_lo, out_hi


def softmax_output_bounds_own_shift(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate softmax output bounds (a_lo, a_hi): coordinate j at
    its lower (upper) endpoint with every rival at its upper (lower)
    endpoint, each vertex shifted by its own max and evaluated with
    math.exp and an exactly rounded sum."""
    a_lo, a_hi = [], []
    for j in range(len(lower)):
        for own, rival, out in ((lower, upper, a_lo), (upper, lower, a_hi)):
            v = [float(s) for s in rival]
            v[j] = float(own[j])
            a = max(v)
            e = [math.exp(s - a) for s in v]
            out.append(e[j] / math.fsum(e))
    return np.array(a_lo), np.array(a_hi)


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


def _zero_first(x: np.ndarray) -> np.ndarray:
    """x with a zero column prepended to its last axis, the running sum of
    an empty side."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,), dtype=x.dtype)
    out[..., 1:] = x
    return out


def _select(x: Intervals, key) -> Intervals:
    return Intervals(x.lo[key], x.hi[key], x.saturated[key])


def certified_sweep_rowwise(c, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """(lower_bound, saturated) over every row of (..., K) arrays that
    broadcast together, each row evaluated on its own gathered box."""
    c, lower, upper = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in (c, lower, upper)))
    lead, k = c.shape[:-1], c.shape[-1]
    n = c.size // k
    c, lower, upper = (a.reshape(n, k) for a in (c, lower, upper))
    rows = np.arange(n)[:, None]
    order = np.argsort(c, axis=-1, kind="stable")
    cs = c[rows, order]
    s = np.stack((upper[rows, order], lower[rows, order][:, ::-1]))
    shifted = add(point(s), point(-s[0].max(axis=-1, keepdims=True)))
    e = exp(shifted)
    ce = mul(point(np.stack((cs, cs[:, ::-1]))), e)
    terms = Intervals(*(_zero_first(np.stack(pair)) for pair in zip(e, ce)))
    sums = cumsum(np.stack((terms.lo, terms.hi, terms.hi)), terms.saturated)
    den_num = add(_select(sums, np.s_[:, 0]), _select(sums, np.s_[:, 1, :, ::-1]))
    saturated = den_num.saturated.any(axis=(0, -1))
    tau = div(_select(den_num, 1), _select(den_num, 0)).lo
    bound = np.maximum(tau.min(axis=-1), cs[:, 0])
    return bound.reshape(lead), saturated.reshape(lead)


def _running_sums(terms: list[float]) -> list[float]:
    out = [0.0]
    for t in terms:
        out.append(out[-1] + t)
    return out


def certified_threshold_sums(c, lower, upper) -> tuple[list[float], ...]:
    """(cs, den, num, mag) for one row: its coefficients in stable ascending
    order, and every candidate's denominator and numerator as the kernel
    forms them, one Python float operation at a time (the kernel's
    intervals.exp, whose error test_intervals checks on its own, the prefix
    sums of the upper terms plus the suffix sums of the lower ones).  mag
    is the sum of the numerator terms' magnitudes, formed the same way: the
    kernel bounds its error without it, and a row whose only overflow is
    mag is not saturated."""
    k = len(c)
    order = sorted(range(k), key=lambda j: (float(c[j]), j))
    cs = [float(c[j]) for j in order]
    a = max(float(x) for x in upper)
    eu, el = (intervals.exp(np.array([float(x[j]) - a for j in order])).tolist() for x in (upper, lower))
    cu = [x * y for x, y in zip(cs, eu)]
    cl = [x * y for x, y in zip(cs[::-1], el[::-1])]
    pre = [_running_sums(t) for t in (eu, cu, [abs(x) for x in cu])]
    suf = [_running_sums(t) for t in (el[::-1], cl, [abs(x) for x in cl])]
    den, num, mag = ([p[m] + q[k - m] for m in range(k + 1)] for p, q in zip(pre, suf))
    return cs, den, num, mag


def certified_error_bound_exact(c, lower, upper) -> Fraction:
    """max(tau^_min - f*|tau^_min| - g, min c) for one row, with f and g as
    certified_sweep_min documents them (without the 1 + 2**-47 pad and the
    2**-1069 slack), in exact rational arithmetic over the float ratios
    tau^_m the kernel forms.  A row floors at min c where D^_0 <= (K + 1) *
    2**-1074, where f >= 1, or where some tau^_m is NaN (a 0/0 candidate)
    or the smallest is -inf."""
    u, mu = Fraction(1, 2**53), Fraction(1, 2**1074)
    k = len(c)
    cs, den, num, _ = certified_threshold_sums(c, lower, upper)
    floor = Fraction(cs[0])
    a = max(float(x) for x in upper)
    shifted = [float(x) - a for x in list(lower) + list(upper)]
    eta = u * Fraction(min(max(map(abs, shifted)), 746.0)) * (1 + Fraction(1, 2**40)) + 3 * u
    eps = eta + (k + 2) * u / (1 - (k + 2) * u)
    c_max = Fraction(max(map(abs, cs)))
    delta = Fraction(den[0]) - (k + 1) * mu
    if delta <= 0:
        return floor
    rho = (k + 1) * mu / delta
    f = (eps + (1 + eps) * rho) * (1 + u) + u
    g = eps * c_max + (1 + eps) * (c_max + 1) * rho + mu
    if f >= 1:
        return floor
    taus = []
    for n_m, d_m in zip(num, den):
        if d_m == 0.0:
            # Every term of the candidate is 0, so its numerator is too.
            return floor
        taus.append(n_m / d_m)
    t_min = min(taus)
    if t_min == -math.inf:
        return floor
    t = Fraction(t_min)
    return max(t - f * abs(t) - g, floor)


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    tokens: np.ndarray  # (..., R, d_model)
    scores: np.ndarray  # (..., heads, R, R)
    attn: np.ndarray  # (..., heads, R, R)
    head_out: np.ndarray  # (..., heads, R, d_head)
    hplus: np.ndarray  # (..., R, d_model)
    hidden_pre: np.ndarray | None  # (..., hidden) for the mlp1 head
    logits: np.ndarray  # (..., classes)


def forward_broadcast(model, xs) -> ForwardTrace:
    """Every forward intermediate over (..., image_size) inputs, with the
    heads as a broadcast matmul axis."""
    xs = np.asarray(xs, dtype=np.float64)
    toks = xs[..., patch_pixel_indices(model)] @ model.w_embed.T + model.b_embed
    t = toks[..., None, :, :]  # (..., 1, R, d_model)
    q = t @ model.wq.swapaxes(1, 2) + model.bq[:, None, :]
    k = t @ model.wk.swapaxes(1, 2) + model.bk[:, None, :]
    v = t @ model.wv.swapaxes(1, 2) + model.bv[:, None, :]
    scores = model.scale * (q @ k.swapaxes(-1, -2)) + model.mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    head_out = attn @ v
    hplus = (head_out @ model.wo.swapaxes(1, 2)).sum(axis=-3) + model.bo
    if model.residual:
        hplus = hplus + toks
    pooled = hplus.reshape(*hplus.shape[:-2], -1)
    sfx = model.suffix
    if isinstance(sfx, LinearSuffix):
        hidden_pre = None
        logits = pooled @ sfx.w.T + sfx.b
    else:
        hidden_pre = pooled @ sfx.w1.T + sfx.b1
        logits = np.maximum(hidden_pre, 0.0) @ sfx.w2.T + sfx.b2
    return ForwardTrace(
        tokens=toks, scores=scores, attn=attn, head_out=head_out, hplus=hplus, hidden_pre=hidden_pre, logits=logits
    )


def scalar_margin_polish(model, y, target, start, lo, hi) -> float:
    """Endpoint coordinate descent on logit_y - logit_target from `start`:
    up to two rounds that try each coordinate at lo, then hi, keeping every
    strict improvement.  One forward call per candidate point."""

    def margin(x):
        lg = forward(model, x)
        return float(lg[y] - lg[target])

    best = np.array(start, dtype=np.float64)
    best_val = margin(best)
    for _ in range(2):
        improved = False
        for j in range(best.size):
            for cand in (lo[j], hi[j]):
                if cand == best[j]:
                    continue
                old = best[j]
                best[j] = cand
                v = margin(best)
                if v < best_val:
                    best_val = v
                    improved = True
                else:
                    best[j] = old
        if not improved:
            break
    return best_val


def lockstep_margin_polish(model, y, targets, start, start_val, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint coordinate descent of the margin for every target at once,
    one coordinate at a time.

    Target r descends from start[r], whose margin is start_val[r].  At
    coordinate j one forward_batch scores the lo and hi candidates of every
    active target; the hi candidate is the same point whether x_j has just
    moved to lo or not, so the scalar order (keep, else lo, else hi, strict
    <) is kept exactly.  A target drops out after a round without a move.
    Returns the (T, n) best points and their (T,) margins."""
    best = start.copy()
    best_val = start_val.copy()
    active = np.arange(targets.size)
    for _ in range(2):
        improved = np.zeros(targets.size, dtype=bool)
        for j in range(lo.size):
            cur = best[active, j]
            rows_lo = active[cur != lo[j]]
            rows_hi = active[cur != hi[j]]
            if rows_lo.size + rows_hi.size == 0:
                continue
            cand = np.concatenate((best[rows_lo], best[rows_hi]))
            cand[: rows_lo.size, j] = lo[j]
            cand[rows_lo.size :, j] = hi[j]
            rows = np.concatenate((rows_lo, rows_hi))
            logits = forward_batch(model, cand)
            vals = logits[:, y] - logits[np.arange(rows.size), targets[rows]]
            v_lo = np.full(targets.size, np.inf)
            v_hi = np.full(targets.size, np.inf)
            v_lo[rows_lo] = vals[: rows_lo.size]
            v_hi[rows_hi] = vals[rows_lo.size :]
            take_lo = v_lo < best_val
            best[take_lo, j] = lo[j]
            best_val = np.where(take_lo, v_lo, best_val)
            take_hi = v_hi < best_val
            best[take_hi, j] = hi[j]
            best_val = np.where(take_hi, v_hi, best_val)
            improved |= take_lo | take_hi
        active = np.flatnonzero(improved)
        if not active.size:
            break
    return best, best_val


def attack_margin_per_target(model, box, y, target, budget, seed=0) -> float:
    """The single-target attack: corners, center and `budget` samples from
    the target's own stream, then scalar_margin_polish from the best."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(model.image_size, target))))
    center = 0.5 * (box.lo + box.hi)
    points = np.vstack(
        [box.lo[None, :], box.hi[None, :], center[None, :], rng.uniform(box.lo, box.hi, size=(budget, box.size))]
    )
    logits = forward_batch(model, points)
    margins = logits[:, y] - logits[:, target]
    best_idx = int(np.argmin(margins))
    polished = scalar_margin_polish(model, y, target, points[best_idx], box.lo, box.hi)
    return float(min(polished, float(margins[best_idx])))


def attack_margin_sample_start(model, box, y, targets, budget, seed=0) -> np.ndarray:
    """The shared-batch attack from its best samples only: corners, center
    and `budget` samples of the (seed, image_size, n_classes) stream, then
    lockstep_margin_polish from each target's best point."""
    t = np.asarray(targets, dtype=np.intp)
    key = (model.image_size, model.n_classes)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))
    center = 0.5 * (box.lo + box.hi)
    points = np.vstack(
        [box.lo[None, :], box.hi[None, :], center[None, :], rng.uniform(box.lo, box.hi, size=(budget, box.size))]
    )
    logits = forward_batch(model, points)
    margins = logits[:, [y]] - logits[:, t]
    best_idx = np.argmin(margins, axis=0)
    start_val = margins[best_idx, np.arange(t.size)]
    return lockstep_margin_polish(model, y, t, points[best_idx], start_val, box.lo, box.hi)[1]


def secant_corner(model, y, target, box) -> np.ndarray:
    """The box vertex at hi wherever moving that one pixel of the center to
    hi lowers logit_y - logit_target, and at lo elsewhere."""

    def margin(x):
        lg = forward(model, x)
        return float(lg[y] - lg[target])

    center = 0.5 * (box.lo + box.hi)
    at_center = margin(center)
    corner = box.lo.copy()
    for j in range(center.size):
        probe = center.copy()
        probe[j] = box.hi[j]
        if margin(probe) < at_center:
            corner[j] = box.hi[j]
    return corner


def attack_vertices_loop(c, box) -> np.ndarray:
    """The 2(K+1) threshold vertices of c and -c, one sweep at a time."""
    k = box.size
    out = np.empty((2, k + 1, k))
    take_upper = np.arange(k) < np.arange(k + 1)[:, None]  # vertex m: the first m sorted coordinates
    for side, d in zip(out, (c, -c)):
        order = np.argsort(d, kind="stable")
        side[:, order] = np.where(take_upper, box.upper[order], box.lower[order])
    return out.reshape(-1, k)


def scalar_objective_polish(c, start, lo, hi) -> float:
    """Endpoint coordinate descent on c . softmax(s) from `start`: up to two
    rounds that try each coordinate at lo, then hi, keeping every strict
    improvement.  One softmax_objective call per candidate point."""
    best = np.array(start, dtype=np.float64)
    best_val = softmax_objective(c, best)
    for _ in range(2):
        improved = False
        for j in range(best.size):
            for cand in (lo[j], hi[j]):
                if cand == best[j]:
                    continue
                old = best[j]
                best[j] = cand
                v = softmax_objective(c, best)
                if v < best_val:
                    best_val = v
                    improved = True
                else:
                    best[j] = old
        if not improved:
            break
    return best_val


def attack_objective_loop(c, box, budget, seed=0) -> float:
    """attack_min_objective from attack_vertices_loop, stacked samples of
    the (seed, K, 1) stream and scalar_objective_polish from the best point."""
    c = np.ascontiguousarray(c, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(box.size, 1))))
    points = np.vstack((attack_vertices_loop(c, box), rng.uniform(box.lower, box.upper, size=(budget, box.size))))
    vals = _objective(c, points)
    best = int(np.argmin(vals))
    return float(min(scalar_objective_polish(c, points[best], box.lower, box.upper), float(vals[best])))
