"""Noise-shaping filter design, exact band powers, and the minimum-phase test.

The design problem is a quadratic program over monic FIR filters
c(z) = 1 + c_1 z^-1 + ... + c_p z^-p: minimize a weighted combination of
the in-band power P_dc = (1/2pi) int_{|w|<=pi/2} |c|^2 dw and the total
power P_ds = (1/2pi) int_{|w|<=pi} |c|^2 dw = sum c_i^2.  Stationarity
gives the normal equations

    (G + 2 lambda I) c_tail = -g,   G_ij = sinc((i-j)/2),  g_i = sinc(i/2),

which are standard autocorrelation (Yule-Walker) equations and therefore
have a unique minimum-phase solution.  The Gram matrix is the
autocorrelation of a strictly band-limited spectrum, so its conditioning
collapses rapidly with the order; every design runs a Levinson-Durbin
recursion in extended precision so that small-lambda, large-p designs
remain well defined.  The recursion has two twins with one operation
order: ``_levinson`` runs on Python floats for the bisection's float64
steps, and ``_levinson_mp`` designs every filter and runs the
extended-precision steps.  The extended twin, like the
step-down in ``min_phase_check``, calls mpmath's libmp rounding functions
on raw mantissa-exponent tuples, the calls the mpf operators make, so it
gives their bits without building an mpf object per operation.  The
half-band lags sinc(m/2) are computed once per order.

The weight ratio lambda that hits a target P_ds/P_dc is found by
bisection.  Adding 2*lambda to the diagonal bounds the condition number by
1 + 1/lambda, so from lambda >= 1e-3 on, float64 runs of the same
recursion decide the bisection steps; a step falls back to extended
precision when lambda is below that floor or when the float64 ratio lies
within its derived error margin of a decision threshold
(``find_lambda_for_ratio`` gives the derivation).  Every decision is then
the one extended precision makes, so lambda comes out bit for bit the
same, and the filter for that lambda is designed in extended precision.

The multiband generalization replaces the half-band Gram matrix by the
autocorrelation of an arbitrary nonnegative piecewise-constant weight
function, which is still Toeplitz and handled by the same recursion.

Every noise power the codec and the harness report (P_dc, P_ds and the
power behind each reception pattern) comes from ``band_power``, evaluated
exactly on the float64 coefficients the feedback loop runs.  Minimum phase
is decided on them too, by the Levinson recursion run in reverse.  The
module holds what the codec, the harness and the command line call; the
brick-wall targets and quadrature grids that judge the designs are test
references.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_ge,
    mpf_gt,
    mpf_le,
    mpf_mul,
    mpf_neg,
    mpf_sub,
)
from mpmath.libmp import round_nearest as _RND

__all__ = [
    "MAX_ORDER",
    "ShapingFilter",
    "MinPhaseReport",
    "design_yule_walker",
    "design_multiband",
    "band_power",
    "filter_powers",
    "min_phase_check",
    "find_lambda_for_ratio",
]

# highest filter order: the range _design_dps claims precision for, and a
# bound on the size of the generated loop kernel, which grows as p^2
MAX_ORDER = 128


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapingFilter:
    """Monic noise-shaping filter c_0..c_p with c_0 = 1 and p <= MAX_ORDER."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) == 0:
            raise ValueError("filter needs at least the leading coefficient")
        if len(c) - 1 > MAX_ORDER:
            raise ValueError(f"filter order {len(c) - 1} exceeds MAX_ORDER = {MAX_ORDER}")
        if c[0] != 1.0:
            raise ValueError("filter must be monic (c_0 = 1)")
        if not all(math.isfinite(v) for v in c):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class MinPhaseReport:
    is_min_phase: bool
    max_reflection: float  # largest |k_i| the step-down met


# ---------------------------------------------------------------------------
# Levinson-Durbin core
# ---------------------------------------------------------------------------


def _sinc_half_mp(m: int) -> mp.mpf:
    if m == 0:
        return mp.mpf(1)
    x = mp.mpf(m) / 2
    return mp.sin(mp.pi * x) / (mp.pi * x)


def _levinson(r: list, p: int):
    """Solve the autocorrelation normal equations in the number type of ``r``.

    ``r`` holds r_0..r_p.  The recursion only adds, multiplies and divides,
    so it runs in any number type; the float64 bisection steps run it on
    Python floats, and ``_levinson_mp`` is its extended-precision twin.
    Returns (monic coefficient list, final prediction error r_0 * prod(1 -
    k_i^2)).
    """
    a = [1] + [0] * p  # a[j] is read only after step j has set it
    energy = r[0]
    for i in range(1, p + 1):
        if energy <= 0:
            raise ValueError("normal equations not positive definite")
        acc = r[i]
        for j in range(1, i):
            acc += a[j] * r[i - j]
        k = -acc / energy
        nxt = a[:]
        for j in range(1, i):
            nxt[j] = a[j] + k * a[i - j]
        nxt[i] = k
        a = nxt
        energy = energy * (1 - k * k)
    return a, energy


def _levinson_mp(r: list, p: int):
    """``_levinson`` at the current mp precision, on r_0..r_p given as mpf
    or float, returning mpf values.

    Each operation calls the libmp function that the mpf operator of the
    same step in ``_levinson`` calls (``mpf_mul``, ``mpf_add``,
    ``mpf_div``, ...), on raw ``_mpf_`` tuples at the context precision
    with round-to-nearest.  Every value keeps its bits; only the mpf object
    each operator would wrap its result in is saved, which is most of the
    cost of an O(p^2) recursion at this precision.
    """
    prec = mp.mp.prec
    r = [mp.mpf(v)._mpf_ for v in r]
    a = [fone] + [fzero] * p
    energy = r[0]
    for i in range(1, p + 1):
        if mpf_le(energy, fzero):
            raise ValueError("normal equations not positive definite")
        acc = r[i]
        for j in range(1, i):
            acc = mpf_add(acc, mpf_mul(a[j], r[i - j], prec, _RND), prec, _RND)
        k = mpf_div(mpf_neg(acc, prec, _RND), energy, prec, _RND)
        nxt = a[:]
        for j in range(1, i):
            nxt[j] = mpf_add(a[j], mpf_mul(k, a[i - j], prec, _RND), prec, _RND)
        nxt[i] = k
        a = nxt
        energy = mpf_mul(energy, mpf_sub(fone, mpf_mul(k, k, prec, _RND), prec, _RND), prec, _RND)
    return [mp.make_mpf(v) for v in a], mp.make_mpf(energy)


def _design_dps(p: int) -> int:
    # conditioning of the band-limited Gram matrix collapses roughly
    # exponentially in p; this leaves a wide precision margin up to MAX_ORDER
    return max(60, 3 * p + 20)


def _check_order(p: int) -> None:
    if not 1 <= p <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {p}")


def _yule_walker(lags: list, lam, levinson):
    """Monic solution of (G + 2*lam*I) c_tail = -g and its prediction error
    c^T (G + 2*lam*I) c, from the half-band lags sinc(m/2), m = 0..p, by
    ``levinson``: ``_levinson_mp`` on mpf lags at the current precision, or
    ``_levinson`` on floats."""
    return levinson([lags[0] + 2 * lam, *lags[1:]], len(lags) - 1)


@functools.lru_cache(maxsize=MAX_ORDER)
def _half_band_lags(p: int) -> tuple:
    """The half-band lags sinc(m/2), m = 0..p, at the design precision of
    order p: the same for every lambda."""
    with mp.workdps(_design_dps(p)):
        return tuple(_sinc_half_mp(m) for m in range(p + 1))


def design_yule_walker(p: int, lambda_ratio: float) -> ShapingFilter:
    """Order-p minimizer of P_dc + lambda_ratio * P_ds over monic filters,
    i.e. the unique solution of (G + 2*lambda_ratio*I) c_tail = -g."""
    _check_order(p)
    if not (math.isfinite(lambda_ratio) and lambda_ratio >= 0):
        raise ValueError(f"lambda ratio must be finite and >= 0, got {lambda_ratio}")
    lags = _half_band_lags(p)
    with mp.workdps(_design_dps(p)):
        coeffs, _ = _yule_walker(lags, mp.mpf(repr(float(lambda_ratio))), _levinson_mp)
        return ShapingFilter(tuple(float(c) for c in coeffs))


def design_multiband(p: int, band_edges: Sequence[float], band_weights: Sequence[float]) -> ShapingFilter:
    """Minimize a weighted sum of band powers of |c|^2 over monic filters.

    Bands are (previous_edge, edge] starting from 0, with edges strictly
    increasing in (0, pi].  Weights must be nonnegative with at least one
    strictly positive (a zero weight leaves that band unconstrained).
    """
    _check_order(p)
    edges = [float(e) for e in band_edges]
    weights = [float(w) for w in band_weights]
    if len(edges) != len(weights) or not edges:
        raise ValueError("need one weight per band edge")
    if not all(math.isfinite(w) for w in weights):
        raise ValueError(f"band weights must be finite, got {weights}")
    if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
        raise ValueError("weights must be nonnegative with at least one positive")
    lo = 0.0
    for e in edges:
        if not (lo < e <= np.pi + 1e-12):
            raise ValueError("band edges must be strictly increasing in (0, pi]")
        lo = e

    with mp.workdps(_design_dps(p)):
        # autocorrelation of the piecewise-constant weight function:
        # m_d = sum_b w_b * (sin(hi*d) - sin(lo*d)) / (pi*d), m_0 = sum_b w_b*(hi-lo)/pi;
        # band b's upper edge is band b+1's lower edge, so each sine is taken once
        pi = mp.pi
        edges_mp = [mp.mpf(repr(e)) for e in edges]
        weights_mp = [mp.mpf(repr(w)) for w in weights]
        r = []
        for d in range(p + 1):
            acc = mp.mpf(0)
            lo_e = sin_lo = mp.mpf(0)
            for hi_e, w in zip(edges_mp, weights_mp):
                if d == 0:
                    acc += w * (hi_e - lo_e) / pi
                else:
                    sin_hi = mp.sin(hi_e * d)
                    acc += w * (sin_hi - sin_lo) / (pi * d)
                    sin_lo = sin_hi
                lo_e = hi_e
            r.append(acc)
        try:
            coeffs, _ = _levinson_mp(r, p)
        except ValueError as exc:
            raise ValueError(f"singular system: {exc}") from None
        return ShapingFilter(tuple(float(c) for c in coeffs))


# ---------------------------------------------------------------------------
# Band powers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)  # filters are frozen; the codec asks again per decode
def band_power(filt: ShapingFilter, lo: float, hi: float) -> float:
    """(1/2pi) int over lo <= |w| <= hi of |c(e^{jw})|^2 dw, exactly.

    The share of the cell-noise power that the band and its mirror image
    carry, for the float64 coefficients the loop runs.  The lags r_d =
    sum_i c_i c_{i+d} and the term-by-term integral (1/pi) [r_0 (hi - lo) +
    2 sum_d r_d (sin(hi d) - sin(lo d)) / d] are evaluated at the design
    precision, where products of doubles are exact, so no digit is lost to
    cancellation.  Edges are read as fractions of pi (lo/pi, hi/pi in
    float64): pi/4, pi/2 and pi written as floats stand for those exactly.
    """
    if not (0.0 <= lo < hi <= np.pi + 1e-12):
        raise ValueError("band must satisfy 0 <= lo < hi <= pi")
    p = filt.order
    with mp.workdps(_design_dps(p)):
        c = [mp.mpf(v) for v in filt.coeffs]
        r = [mp.fdot(c[: p + 1 - d], c[d:]) for d in range(p + 1)]
        lo_m = mp.pi * mp.mpf(lo / math.pi)
        hi_m = mp.pi * mp.mpf(hi / math.pi)
        tail = mp.fsum(r[d] * (mp.sin(hi_m * d) - mp.sin(lo_m * d)) / d for d in range(1, p + 1))
        return float((r[0] * (hi_m - lo_m) + 2 * tail) / mp.pi)


def filter_powers(filt: ShapingFilter) -> tuple:
    """(P_dc, P_ds): the half-band power |w| <= pi/2 and the total power."""
    return band_power(filt, 0.0, np.pi / 2), band_power(filt, 0.0, np.pi)


# ---------------------------------------------------------------------------
# Minimum phase
# ---------------------------------------------------------------------------


def min_phase_check(filt: ShapingFilter) -> MinPhaseReport:
    """Schur-Cohn test of c(z).

    The step-down (reverse Levinson) recursion peels one reflection
    coefficient k = a_i/a_0 off the top of the polynomial, a_j <- a_j -
    k a_{i-j}, until it is constant; c(z) is minimum phase, every zero
    strictly inside the unit circle, iff every |k_i| < 1.  It runs on the
    float64 coefficients the loop runs, at the design precision, and stops
    at the first |k_i| >= 1; a trailing zero coefficient gives k = 0.  By
    Jensen's formula the log-spectrum integral (1/2pi) int log|c|^2 dw of
    the monic c(z) is 0 exactly when it is minimum phase, so the verdict
    says all that integral would.
    """
    with mp.workdps(_design_dps(filt.order)):
        # libmp calls on raw _mpf_ tuples, as in _levinson_mp: the mpf
        # operators' arithmetic without their objects
        prec = mp.mp.prec
        a = [mp.mpf(v)._mpf_ for v in filt.coeffs]
        max_k = fzero
        for i in range(filt.order, 0, -1):
            k = mpf_div(a[i], a[0], prec, _RND)
            abs_k = mpf_abs(k, prec, _RND)
            if mpf_gt(abs_k, max_k):
                max_k = abs_k
            if mpf_ge(max_k, fone):
                break
            a = [mpf_sub(a[j], mpf_mul(k, a[i - j], prec, _RND), prec, _RND) for j in range(i)]
    max_k = mp.make_mpf(max_k)
    return MinPhaseReport(is_min_phase=bool(max_k < 1), max_reflection=float(max_k))


# ---------------------------------------------------------------------------
# Weight-ratio selection
# ---------------------------------------------------------------------------


# the bisection's relative tolerance on the target ratio, and the floor
# and margin headroom of its float64 decisions; the docstring of
# find_lambda_for_ratio derives the last two
_REL_TOL = 1e-6
_F64_LAMBDA_FLOOR = 1e-3
_F64_MARGIN_FACTOR = 16


def _powers(lags: list, lam, levinson, fsum) -> tuple:
    """(P_ds, P_dc) of the half-band design at lam, in the number type of
    lags and lam, with ``levinson`` solving and ``fsum`` summing in that
    type."""
    coeffs, energy = _yule_walker(lags, lam, levinson)
    pds = fsum(c * c for c in coeffs)
    # energy = c^T (G + 2 lambda I) c = 2*Pdc + 2*lambda*Pds
    return pds, (energy - 2 * lam * pds) / 2


def _ratio_at(lags: list, lam: float) -> float:
    # P_ds/P_dc of the extended-precision design, not of its float64 rounding
    with mp.workdps(_design_dps(len(lags) - 1)):
        pds, pdc = _powers(lags, mp.mpf(repr(float(lam))), _levinson_mp, mp.fsum)
        return float(pds) / float(pdc)


def _ratio_f64(lags64: list, lam: float) -> tuple:
    """(ratio, err): P_ds/P_dc of the float64 design at lam >= the floor, and
    a bound on its distance from ``_ratio_at`` at the same lambda.

    err = 16 (p+1) u (1 + 1/lam) (1 + 2 lam ratio) ratio, with u = 2^-53;
    ``find_lambda_for_ratio`` derives it.
    """
    pds, pdc = _powers(lags64, lam, _levinson, math.fsum)
    ratio = pds / pdc
    p = len(lags64) - 1
    eps = _F64_MARGIN_FACTOR * (p + 1) * 2.0**-53 * (1.0 + 1.0 / lam) * (1.0 + 2.0 * lam * ratio)
    return ratio, eps * ratio


@functools.lru_cache(maxsize=MAX_ORDER)
def _half_band_range(p: int) -> tuple:
    """(extended-precision lags, float64 lags, ratio at lambda = 0) of the
    order-p half-band design: the same for every target ratio."""
    lags = _half_band_lags(p)
    return lags, tuple(float(v) for v in lags), _ratio_at(lags, 0.0)


def find_lambda_for_ratio(gamma: float, p: int) -> float:
    """Weight ratio lambda_s/lambda_c whose design hits P_ds/P_dc = gamma.

    The ratio decreases monotonically from its lambda=0 maximum toward the
    white-filter floor of 2 as lambda grows, so a bracketed bisection
    applies; it stops at the first lambda with |r/gamma - 1| <= 1e-6
    (``_REL_TOL``), r the design's ratio.  Unreachable targets raise with
    the achievable range, which comes from the extended-precision design at
    lambda = 0, made once per order.

    Float64 decides, extended precision designs.  Each step needs one
    decision on the ratio r at lambda: r < gamma while bracketing, then
    |r/gamma - 1| <= _REL_TOL and r > gamma while bisecting.  A float64 run
    of the same Levinson recursion on the float64 lags gives r^ (``_levinson``
    on floats; ``_levinson_mp`` at 53 bits gives the same bits), and the
    step trusts it unless lambda < 1e-3 (the floor) or |r^/gamma - 1| lies
    within err/gamma of 0 or of _REL_TOL (the margin), where

        err = 16 (p+1) u (1 + 1/lambda) (1 + 2 lambda r^) r^,  u = 2^-53.

    Those steps are recomputed in extended precision.  Outside the margin
    r^ and the extended-precision r fall on the same side of both
    thresholds, so the decisions, the midpoints and the returned lambda are
    those of an all-extended-precision bisection, bit for bit.

    Derivation of err:
    - G is the autocorrelation of the spectrum 2 on |w| <= pi/2 and 0
      beyond, so its eigenvalues lie in [0, 2] and those of G + 2 lambda I
      in [2 lambda, 2 + 2 lambda]: the condition number is at most
      kappa = 1 + 1/lambda, whatever p is.
    - Levinson-Durbin on a symmetric positive-definite Toeplitz system is
      weakly stable (Cybenko 1980; Bunch 1985): its relative forward error
      is of order (p+1) u kappa.  The floor keeps this below 1.5e-11 up to
      MAX_ORDER, so the float64 system stays positive definite and the
      first-order analysis holds; below it the margin would near _REL_TOL
      and the float64 work would mostly be wasted.
    - P_ds = sum c_i^2 and the prediction error E = c^T (G + 2 lambda I) c
      inherit that relative error.  P_dc = (E - 2 lambda P_ds)/2 multiplies
      the error of E by E/(2 P_dc) = 1 + lambda r and that of 2 lambda P_ds
      by lambda r, together 1 + 2 lambda r.  This factor is large only for
      large lambda (gamma near 2), where kappa is near 1.
    - The factor 16 covers the constants the order-of-magnitude statement
      leaves out: the roundings of r_0 = 1 + 2 lambda, of each update of E,
      of the sum of squares, and of r^/gamma.  Across p in 1..128 and
      lambda in [1e-3, 1e4] the observed |r^ - r| stays below err/16, the
      first-order bound itself (``tests/test_shaping.py``).  On the
      half-band designs of the benchmark's grid err/r^ stays below 2e-11,
      against _REL_TOL = 1e-6, so hardly any step falls back.
    """
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    _check_order(p)
    lags, lags64, hi_ratio = _half_band_range(p)
    if not (2.0 < gamma <= hi_ratio):
        raise ValueError(
            f"ratio out of range for order {p}: achievable range is (2, {hi_ratio:.6g}]"
        )

    def ratio_at(lam: float) -> float:
        if lam >= _F64_LAMBDA_FLOOR:
            ratio, err = _ratio_f64(lags64, lam)
            dev, slack = abs(ratio / gamma - 1.0), err / gamma
            if slack < dev and slack < abs(dev - _REL_TOL):
                return ratio
        return _ratio_at(lags, lam)

    lo = 0.0  # ratio(lo) >= gamma
    hi = 1.0
    for _ in range(200):
        if ratio_at(hi) < gamma:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ValueError(f"ratio out of range for order {p}: could not bracket gamma={gamma}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # lo and hi are adjacent floats: no lambda left to try
        ratio = ratio_at(mid)
        if abs(ratio / gamma - 1.0) <= _REL_TOL:
            return mid
        if ratio > gamma:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"bisection failed to reach gamma={gamma} at order {p}")
