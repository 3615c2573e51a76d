"""Noise-shaping filter design and spectral analysis.

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
remain well defined.

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
exactly on the float64 coefficients the feedback loop runs.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np

from .dsp import spectrum_power

__all__ = [
    "MAX_ORDER",
    "ShapingFilter",
    "BrickWallSpec",
    "MinPhaseReport",
    "design_yule_walker",
    "design_multiband",
    "band_power",
    "filter_powers",
    "min_phase_check",
    "truncated_fourier_brickwall_error",
    "brickwall_autocorrelation",
    "find_lambda_for_ratio",
    "quadrature_grid",
]

QUADRATURE_POINTS = 8192
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
class BrickWallSpec:
    """Two-step target spectrum: 1/delta in-band (|w| <= pi/2), delta beyond."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.delta < 1.0:
            warnings.warn(
                "delta < 1 trades distortion the wrong way round; "
                "delta >= 1 performs better",
                stacklevel=2,
            )

    @property
    def pdc(self) -> float:
        return 0.5 / self.delta

    @property
    def pds(self) -> float:
        return 0.5 * (self.delta + 1.0 / self.delta)

    def power(self, omega) -> np.ndarray:
        w = np.abs(np.asarray(omega, dtype=np.float64))
        return np.where(w <= np.pi / 2, 1.0 / self.delta, self.delta)


@dataclass(frozen=True)
class MinPhaseReport:
    is_min_phase: bool
    max_root_magnitude: float
    log_spectrum_integral: float  # bits


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

    ``r`` holds r_0..r_p, as mpf (at the current mp precision) or as Python
    floats: the recursion only adds, multiplies and divides, so one code
    path serves both.  Returns (monic coefficient list, final prediction
    error r_0 * prod(1 - k_i^2)).
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


def _design_dps(p: int) -> int:
    # conditioning of the band-limited Gram matrix collapses roughly
    # exponentially in p; this leaves a wide precision margin up to MAX_ORDER
    return max(60, 3 * p + 20)


def _check_order(p: int) -> None:
    if not 1 <= p <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {p}")


def _yule_walker(lags: list, lam):
    """Monic solution of (G + 2*lam*I) c_tail = -g and its prediction error
    c^T (G + 2*lam*I) c, from the half-band lags sinc(m/2), m = 0..p, in
    their number type (mpf at the current precision, or float)."""
    return _levinson([lags[0] + 2 * lam, *lags[1:]], len(lags) - 1)


def design_yule_walker(p: int, lambda_ratio: float) -> ShapingFilter:
    """Order-p minimizer of P_dc + lambda_ratio * P_ds over monic filters,
    i.e. the unique solution of (G + 2*lambda_ratio*I) c_tail = -g."""
    _check_order(p)
    if not (math.isfinite(lambda_ratio) and lambda_ratio >= 0):
        raise ValueError(f"lambda ratio must be finite and >= 0, got {lambda_ratio}")
    with mp.workdps(_design_dps(p)):
        lags = [_sinc_half_mp(m) for m in range(p + 1)]
        coeffs, _ = _yule_walker(lags, mp.mpf(repr(float(lambda_ratio))))
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
    if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
        raise ValueError("weights must be nonnegative with at least one positive")
    lo = 0.0
    for e in edges:
        if not (lo < e <= np.pi + 1e-12):
            raise ValueError("band edges must be strictly increasing in (0, pi]")
        lo = e

    with mp.workdps(_design_dps(p)):
        # autocorrelation of the piecewise-constant weight function:
        # m_d = sum_b w_b * (sin(hi*d) - sin(lo*d)) / (pi*d), m_0 = sum_b w_b*(hi-lo)/pi
        pi = mp.pi
        r = []
        for d in range(p + 1):
            acc = mp.mpf(0)
            lo_e = mp.mpf(0)
            for e, w in zip(edges, weights):
                hi_e = mp.mpf(repr(e))
                if d == 0:
                    acc += mp.mpf(repr(w)) * (hi_e - lo_e) / pi
                else:
                    acc += mp.mpf(repr(w)) * (mp.sin(hi_e * d) - mp.sin(lo_e * d)) / (pi * d)
                lo_e = hi_e
            r.append(acc)
        try:
            coeffs, _ = _levinson(r, p)
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
# Quadrature and spectrum comparisons
# ---------------------------------------------------------------------------


def quadrature_grid(n: int = QUADRATURE_POINTS) -> np.ndarray:
    """Uniform midpoint grid on [-pi, pi]; fixed so oracle comparisons are bit-stable."""
    return -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)


def brickwall_autocorrelation(target: BrickWallSpec, lag: int) -> float:
    """Fourier coefficient r_m of the two-step spectrum.

    r_0 = (delta + 1/delta)/2 and r_m = (1/delta - delta)/2 * sinc(m/2);
    even nonzero lags vanish exactly.
    """
    lag = abs(int(lag))
    if lag == 0:
        return 0.5 * (target.delta + 1.0 / target.delta)
    if lag % 2 == 0:
        return 0.0
    sign = 1.0 if ((lag - 1) // 2) % 2 == 0 else -1.0
    return 0.5 * (1.0 / target.delta - target.delta) * sign * 2.0 / (math.pi * lag)


def truncated_fourier_brickwall_error(target: BrickWallSpec, p: int, n: int = QUADRATURE_POINTS) -> float:
    """Spectrum-domain MSE of the order-p Fourier synthesis of the two-step target.

    The reference is the truncated autocorrelation expansion
    S_p(w) = sum_{|m|<=p} r_m e^{-jwm}; no spectral factorization is
    involved because only the spectrum error is measured.
    """
    if p < 0:
        raise ValueError("order must be >= 0")
    w = quadrature_grid(n)
    lags = np.arange(1, p + 1)
    r = np.array([brickwall_autocorrelation(target, int(m)) for m in lags])
    synth = brickwall_autocorrelation(target, 0) + 2.0 * np.cos(np.outer(w, lags)) @ r
    diff = target.power(w) - synth
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# Minimum phase
# ---------------------------------------------------------------------------


def min_phase_check(filt: ShapingFilter, n: int = QUADRATURE_POINTS) -> MinPhaseReport:
    """Root locations and log-spectrum integral of c(z).

    is_min_phase holds iff every zero lies strictly inside the unit
    circle.  Roots come from companion-matrix eigenvalues; when the
    largest magnitude is within 1e-4 of the unit circle the roots are
    re-derived in extended precision before deciding.
    """
    c = np.asarray(filt.coeffs, dtype=np.float64)
    nz = np.nonzero(c)[0]
    c = c[: nz[-1] + 1]  # trim trailing zeros
    if c.shape[0] <= 1:
        max_mag = 0.0
    else:
        roots = np.roots(c)
        max_mag = float(np.abs(roots).max())
        if abs(1.0 - max_mag) < 1e-4:
            try:
                with mp.workdps(50):
                    refined = mp.polyroots(
                        [mp.mpf(repr(v)) for v in c], maxsteps=500, extraprec=200
                    )
                max_mag = float(max(abs(z) for z in refined))
            except mp.libmp.NoConvergence as exc:
                raise RuntimeError(
                    f"root finding did not converge for order {len(c) - 1}: {exc}"
                ) from None
    w = quadrature_grid(n)
    power = spectrum_power(filt.coeffs, w)
    integral = float(np.mean(np.log2(np.maximum(power, 1e-300))))
    return MinPhaseReport(
        is_min_phase=bool(max_mag < 1.0),
        max_root_magnitude=max_mag,
        log_spectrum_integral=integral,
    )


# ---------------------------------------------------------------------------
# Weight-ratio selection
# ---------------------------------------------------------------------------


# floor and margin headroom of the float64 bisection decisions; the
# docstring of find_lambda_for_ratio derives both
_F64_LAMBDA_FLOOR = 1e-3
_F64_MARGIN_FACTOR = 16


def _powers(lags: list, lam, fsum) -> tuple:
    """(P_ds, P_dc) of the half-band design at lam, in the number type of
    lags and lam, with ``fsum`` summing in that type."""
    coeffs, energy = _yule_walker(lags, lam)
    pds = fsum(c * c for c in coeffs)
    # energy = c^T (G + 2 lambda I) c = 2*Pdc + 2*lambda*Pds
    return pds, (energy - 2 * lam * pds) / 2


def _ratio_at(lags: list, lam: float) -> float:
    # P_ds/P_dc of the extended-precision design, not of its float64 rounding
    with mp.workdps(_design_dps(len(lags) - 1)):
        pds, pdc = _powers(lags, mp.mpf(repr(float(lam))), mp.fsum)
        return float(pds) / float(pdc)


def _ratio_f64(lags64: list, lam: float) -> tuple:
    """(ratio, err): P_ds/P_dc of the float64 design at lam >= the floor, and
    a bound on its distance from ``_ratio_at`` at the same lambda.

    err = 16 (p+1) u (1 + 1/lam) (1 + 2 lam ratio) ratio, with u = 2^-53;
    ``find_lambda_for_ratio`` derives it.
    """
    pds, pdc = _powers(lags64, lam, math.fsum)
    ratio = pds / pdc
    p = len(lags64) - 1
    eps = _F64_MARGIN_FACTOR * (p + 1) * 2.0**-53 * (1.0 + 1.0 / lam) * (1.0 + 2.0 * lam * ratio)
    return ratio, eps * ratio


def find_lambda_for_ratio(gamma: float, p: int, rel_tol: float = 1e-6) -> float:
    """Weight ratio lambda_s/lambda_c whose design hits P_ds/P_dc = gamma.

    The ratio decreases monotonically from its lambda=0 maximum toward the
    white-filter floor of 2 as lambda grows, so a bracketed bisection
    applies.  Unreachable targets raise with the achievable range, which
    comes from the extended-precision design at lambda = 0.

    Float64 decides, extended precision designs.  Each step needs one
    decision on the ratio r at lambda: r < gamma while bracketing, then
    |r/gamma - 1| <= rel_tol and r > gamma while bisecting.  A float64 run
    of the same Levinson recursion on the float64 lags gives r^, and the
    step trusts it unless lambda < 1e-3 (the floor) or |r^/gamma - 1| lies
    within err/gamma of 0 or of rel_tol (the margin), where

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
      first-order analysis holds; below it the margin would near rel_tol
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
      against rel_tol = 1e-6, so hardly any step falls back.
    """
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    if not rel_tol >= 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    _check_order(p)
    with mp.workdps(_design_dps(p)):
        lags = [_sinc_half_mp(m) for m in range(p + 1)]  # independent of lambda
    lags64 = [float(v) for v in lags]
    hi_ratio = _ratio_at(lags, 0.0)
    if not (2.0 < gamma <= hi_ratio):
        raise ValueError(
            f"ratio out of range for order {p}: achievable range is (2, {hi_ratio:.6g}]"
        )

    def ratio_at(lam: float) -> float:
        if lam >= _F64_LAMBDA_FLOOR:
            ratio, err = _ratio_f64(lags64, lam)
            dev, slack = abs(ratio / gamma - 1.0), err / gamma
            if slack < dev and slack < abs(dev - rel_tol):
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
        if abs(ratio / gamma - 1.0) <= rel_tol:
            return mid
        if ratio > gamma:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"bisection failed to reach gamma={gamma} at order {p}")
