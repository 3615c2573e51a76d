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
collapses rapidly with the order; the design is defined as the float64
rounding of a Levinson-Durbin recursion run in extended precision (3p + 20
digits), so that small-lambda, large-p designs remain well defined.  The
recursion has two twins with one operation order: ``_levinson`` runs on
Python floats for the bisection's float64 steps (in C where the compiled
library loads, ``_levinson_f64``), and ``_levinson_mp`` runs the
extended-precision steps and designs.  The extended twin, like the
step-down in ``min_phase_check``, calls mpmath's libmp rounding functions
on raw mantissa-exponent tuples, the calls the mpf operators make, so it
gives their bits without building an mpf object per operation.  The
half-band lags sinc(m/2) are computed once per order.

Most designs need no extended-precision solve.  Both systems have a known
eigenvalue floor: 2 lambda for G + 2 lambda I, since the half-band
spectrum lies in [0, 2], and the smallest band weight for a multiband
design.  So the compiled library solves them in double-double from the
lags rounded once to double-double, and a double-double residual bounds
the distance to the extended-precision solution by beta (``_dd_solution``
derives it).  Where every interval [c_j - beta, c_j + beta] lies strictly
inside one float64 rounding cell, its roundings are the design's, bit for
bit (``_nearest_double``).  The extended-precision recursion still runs
at lambda = 0, with a zero band weight, where the solve or the bound
fails, and where no C compiler is found; so every design is the same on
either path.

The weight ratio lambda that hits a target P_ds/P_dc is found by
bisection.  Adding 2*lambda to the diagonal bounds the condition number by
1 + 1/lambda, so from lambda >= 1e-3 on, float64 runs of the same
recursion (``_levinson_f64``) decide the bisection steps; a step falls
back to extended precision when lambda is below that floor or when the
float64 ratio lies within its derived error margin of a decision threshold
(``find_lambda_for_ratio`` gives the derivation).  Every decision is then
the one extended precision makes, so lambda comes out bit for bit the
same, and the filter for that lambda is designed as above.

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
    dps_to_prec,
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

from . import _native

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


def _levinson_f64(r: list, p: int):
    """``_levinson`` on a list of floats: its C twin ``levinson_f64`` where
    the compiled library loads, which gives the same bits and raises the
    same error, else ``_levinson`` itself."""
    lib = _native.library()
    if lib is None:
        return _levinson(r, p)
    a, energy = np.empty(p + 1), np.empty(1)
    if lib.levinson_f64(np.array(r, dtype=np.float64), p, a, energy):
        raise ValueError("normal equations not positive definite")
    return a.tolist(), float(energy[0])


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
    ``_levinson_f64`` on floats."""
    return levinson([lags[0] + 2 * lam, *lags[1:]], len(lags) - 1)


@functools.lru_cache(maxsize=MAX_ORDER)
def _half_band_lags(p: int) -> tuple:
    """The half-band lags sinc(m/2), m = 0..p, at the design precision of
    order p: the same for every lambda."""
    with mp.workdps(_design_dps(p)):
        return tuple(_sinc_half_mp(m) for m in range(p + 1))


# ---------------------------------------------------------------------------
# Designs in double-double with a proven float64 rounding
# ---------------------------------------------------------------------------


_U = 2.0**-53
# a lag's rounding to double-double, 2^-106 relative, with headroom
_DD_LAG_REL = 2.0**-104
# absolute slack for the roundings that underflow, far below any
# coefficient whose rounding is checked
_DD_TINY = 2.0**-1000
# the floor, the lag sum and the level sum must lie in this range, where
# no step of the solve or of the residual overflows
_DD_SCALE = (2.0**-100, 2.0**100)
# coefficients checked: zero and subnormal roundings are left to mpmath
_NORMAL = (2.0**-1000, 2.0**1000)


def _to_dd(values) -> tuple:
    """(hi, lo) float64 arrays of mpf values, each rounded once to
    double-double: hi = fl(v) and lo = fl(v - hi), so |v - hi - lo| <=
    2^-106 |v| away from underflow.  v - hi is exact at the precision v was
    computed at, which the caller holds."""
    hi = [float(v) for v in values]
    return np.array(hi), np.array([float(v - h) for v, h in zip(values, hi)])


@functools.lru_cache(maxsize=MAX_ORDER)
def _half_band_lags_dd(p: int) -> tuple:
    """``_half_band_lags(p)`` rounded once to double-double, read-only."""
    lags = _half_band_lags(p)
    with mp.workdps(_design_dps(p)):
        hi, lo = _to_dd(lags)
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo


def _nearest_double(hi: float, lo: float, beta: float):
    """The double that every real within beta of hi + lo rounds to, or None
    where that interval reaches the edge of a rounding cell, or where the
    rounding of hi + lo is zero, subnormal or near overflow.

    The cell of f is (f - d_down, f + d_up), with d_down and d_up half the
    gaps to f's neighbours (where |f| is a power of two, the gap toward
    zero is half the other).
    Both tests, hi + lo - beta > f - d_down and hi + lo + beta < f + d_up,
    are made on the sign of an exactly rounded sum of doubles, so exactly.
    """
    f = hi + lo
    if not _NORMAL[0] <= abs(f) <= _NORMAL[1]:
        return None
    d_down = (f - math.nextafter(f, -math.inf)) / 2
    d_up = (math.nextafter(f, math.inf) - f) / 2
    if math.fsum((hi, lo, -f, -beta, d_down)) > 0 and math.fsum((f, d_up, -hi, -lo, -beta)) > 0:
        return f
    return None


def _dd_solution(r_hi, r_lo, floor: float, level_sum: float):
    """(a_hi, a_lo, beta): the double-double solution a of the monic normal
    equations of the lags r = r_hi + r_lo, and a bound beta on |a_j - c_j|
    for every j, with c the extended-precision design (``_levinson_mp`` at
    ``_design_dps``).  None where the compiled library is absent, the system
    lies outside ``_DD_SCALE``, or the solve fails.

    floor is a lower bound on the smallest eigenvalue of the order-p
    Toeplitz matrix T of r_0..r_{p-1}; level_sum sums the levels of the
    weight function whose autocorrelation the lags are.  With rho^ the
    residual of rows 1..p, T a_tail + (r_1..r_p), computed in double-double,

        beta = 2 ((||rho^||_2 + e_rho + e_lag) / floor + eps_mp),

    - e_rho = 16 (p+1) u^2 ||s||_2 bounds the residual's rounding, s_i the
      row sums of |r| |a|: each of the p+1 products errs by under 7u^2 and
      each sum by under 3u^2 (``_native``), 3p + 10 < 16 (p+1);
    - e_lag = 2^-104 ||r||_1 ||a||_2 covers the lags' rounding to
      double-double, ||r||_1 = |r_0| + 2 sum |r_m| bounding the norm of the
      Toeplitz perturbation;
    - residual over floor bounds ||a_tail - x||_2, x the exact solution;
    - eps_mp = 2^(p+16-prec) (p+1)^2 (||r||_1 + level_sum) (||a||_2 + 1) /
      floor is a generous bound on the extended-precision design's own
      distance from x at its prec bits: Cybenko (1980) bounds Levinson's
      residual by a multiple of p^2 2^-prec prod(1 + |k_i|) < p^2 2^(p-prec),
      and the mpmath lags err by a few units in their last place, times a
      sine's argument, below 2^9;
    - the factor 2 covers the float64 evaluation of the bound and the
      shift of the smallest eigenvalue by the mpmath lags' own error, which
      is below floor/2 wherever eps_mp passes the rounding check.

    Each term adds an absolute (p+1) 2^-1000 for roundings that underflow.
    """
    lib = _native.library()
    p = r_hi.shape[0] - 1
    lo_scale, hi_scale = _DD_SCALE
    r_norm1 = abs(float(r_hi[0])) + 2.0 * float(np.abs(r_hi[1:]).sum())
    if lib is None or not (lo_scale <= floor and r_norm1 <= hi_scale and level_sum <= hi_scale):
        return None
    a_hi, a_lo = np.empty(p + 1), np.empty(p + 1)
    if lib.levinson_dd(r_hi, r_lo, p, a_hi, a_lo):
        return None
    # |x| <= ||r||_1 / floor <= 2^200 for the exact solution; a solve that
    # left that range failed, and beyond it the bound's sums could overflow
    if not (np.isfinite(a_hi).all() and np.isfinite(a_lo).all() and np.abs(a_hi).max() <= hi_scale**2):
        return None
    res_hi, res_lo, abs_sum = np.empty(p), np.empty(p), np.empty(p)
    lib.toeplitz_residual_dd(r_hi, r_lo, a_hi, a_lo, p, res_hi, res_lo, abs_sum)
    res = res_hi + res_lo
    a_norm = math.sqrt(float(a_hi @ a_hi))
    e_rho = 16 * (p + 1) * _U**2 * math.sqrt(float(abs_sum @ abs_sum)) + (p + 1) * _DD_TINY
    e_lag = _DD_LAG_REL * r_norm1 * a_norm + (p + 1) * _DD_TINY
    prec = dps_to_prec(_design_dps(p))
    eps_mp = math.ldexp(
        (p + 1) ** 2 * (r_norm1 + level_sum) * (a_norm + 1.0) / floor, max(p + 16 - prec, -1000)
    )
    beta = 2.0 * ((math.sqrt(float(res @ res)) + e_rho + e_lag) / floor + eps_mp)
    return a_hi, a_lo, beta


def _dd_design(r_hi, r_lo, floor: float, level_sum: float):
    """The float64 coefficients of the extended-precision design, each
    proven to be its rounding by ``_dd_solution``'s bound and
    ``_nearest_double``; None where anything is not proven, and the caller
    then designs in extended precision."""
    solved = _dd_solution(r_hi, r_lo, floor, level_sum)
    if solved is None:
        return None
    a_hi, a_lo, beta = solved
    coeffs = [1.0]
    for hi, lo in zip(a_hi.tolist()[1:], a_lo.tolist()[1:]):
        f = _nearest_double(hi, lo, beta)
        if f is None:
            return None
        coeffs.append(f)
    return tuple(coeffs)


def design_yule_walker(p: int, lambda_ratio: float) -> ShapingFilter:
    """Order-p minimizer of P_dc + lambda_ratio * P_ds over monic filters,
    i.e. the unique solution of (G + 2*lambda_ratio*I) c_tail = -g.

    For lambda_ratio > 0 the eigenvalues of G + 2 lambda I are at least
    2 lambda, and ``_dd_design`` gives the extended-precision design's
    roundings wherever it can prove them; elsewhere the design runs in
    extended precision."""
    _check_order(p)
    if not (math.isfinite(lambda_ratio) and lambda_ratio >= 0):
        raise ValueError(f"lambda ratio must be finite and >= 0, got {lambda_ratio}")
    lags = _half_band_lags(p)
    with mp.workdps(_design_dps(p)):
        # lambda is read from its shortest repr, as a decimal, not as its binary value
        lam = mp.mpf(repr(float(lambda_ratio)))
        if lam > 0:
            r_hi, r_lo = (v.copy() for v in _half_band_lags_dd(p))
            (r_hi[0],), (r_lo[0],) = _to_dd([lags[0] + 2 * lam])
            floor = 2.0 * float(lam) * (1.0 - 2.0**-50)
            coeffs = _dd_design(r_hi, r_lo, floor, 2.0 + floor)
            if coeffs is not None:
                return ShapingFilter(coeffs)
        coeffs, _ = _yule_walker(lags, lam, _levinson_mp)
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
        if min(weights) > 0:
            # the weight function is at least min(weights) on (0, edges[-1]]; a
            # last edge short of pi loses at most p (pi - edge)/pi of it, since
            # |V(w)|^2 <= p ||v||^2 for the p taps v of a tail
            short = max(mp.mpf(0), pi - edges_mp[-1])
            floor = float(min(weights_mp) * (1 - p * short / pi)) * (1.0 - 2.0**-50)
            coeffs = _dd_design(*_to_dd(r), floor, math.fsum(weights))
            if coeffs is not None:
                return ShapingFilter(coeffs)
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
    pds, pdc = _powers(lags64, lam, _levinson_f64, math.fsum)
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

    Float64 decides, and extended precision confirms where float64 cannot.
    Each step needs one decision on the ratio r at lambda: r < gamma while
    bracketing, then |r/gamma - 1| <= _REL_TOL and r > gamma while
    bisecting.  A float64 run of the same Levinson recursion on the float64
    lags gives r^ (``_levinson_f64``: the compiled library's
    ``levinson_f64``, the C twin of ``_levinson`` with its operations in
    its order, or ``_levinson`` itself on floats where the library cannot
    be had; ``_levinson_mp`` at 53 bits gives the same bits), and the step
    trusts it unless lambda < 1e-3 (the floor) or |r^/gamma - 1| lies
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
