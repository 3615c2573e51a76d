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
digits), so that small-lambda, large-p designs remain well defined.  One
recursion, ``_levinson``, runs every extended-precision solve.  The
half-band lags sinc(m/2) and their rounding to double-double are computed
once per order.

Most designs need no extended-precision solve.  Both systems have a known
eigenvalue floor: 2 lambda for G + 2 lambda I, since the half-band
spectrum lies in [0, 2], and the smallest band weight for a multiband
design.  So such a design is solved in float64 from its lags in
double-double, and then corrected: the compiled library computes the
residual in double-double, and a float64 solve turns it into a
correction, kept as a double-double.  That residual also bounds each
iterate's distance to the extended-precision solution by beta
(``_dd_solutions`` derives it).  Where every interval
[c_j - beta, c_j + beta] lies strictly inside one float64 rounding cell,
its roundings are the design's, bit for bit (``_nearest_double``).  One
routine, ``_design``, finishes every design of either kind: it proves the
rounding that way, or runs the extended-precision recursion, at lambda =
0, with a zero band weight, where the solve or the bound fails, and where
no C compiler is found; so every design is the same on either path.

The weight ratio lambda that hits a target P_ds/P_dc is found by
bisection.  Adding 2*lambda to the diagonal bounds the condition number by
1 + 1/lambda, so from lambda >= 1e-3 on, float64 decides the bisection
steps, in closed form from one eigen-decomposition G = Q diag(Lambda) Q^T
per order (``_half_band_range``), with no compiled code; a step falls back
to extended precision when lambda is below that floor or when the float64
ratio lies within its derived error margin of a decision threshold
(``find_lambda_for_ratio`` gives the derivation).  Every decision is then
the one extended precision makes, so lambda comes out bit for bit the
same, and the filter for that lambda is designed as above.

The multiband generalization replaces the half-band Gram matrix by the
autocorrelation of an arbitrary nonnegative piecewise-constant weight
function, which is still Toeplitz and handled by the same recursion.  Its
lag d is sum_b w_b B_bd, B_bd band b's share per unit weight: its span,
the difference of the sines sin(e d) of its edges e (of the edges
themselves at d = 0), over pi d (over pi at d = 0).  The spans depend on
the order and the edges alone, so they are computed once per (p, edges) in
mpmath (``_band_spans``), and a sweep of band weights reuses them.  Where
every weight is positive and the library loads, each design's lags are
summed in double-double from B, rounded to double-double once per
(p, edges), with a bound on each lag's error that the certificate above
takes in (``_multiband_lags_dd``); elsewhere, and where the certificate
fails, the lags are mpmath sums of w_b times span over pi d, and the
recursion runs on them.

Every noise power the codec and the harness report (P_dc, P_ds and the
power behind each reception pattern) comes from ``band_power``, evaluated
exactly on the float64 coefficients the feedback loop runs.  Minimum phase
is decided on them too, by the Levinson recursion run in reverse (the
Schur-Cohn step-down) at the design precision.  The compiled library runs
it in double-double with a running bound on each reflection coefficient's
distance from the extended-precision one, and its report is taken where
that bound proves both fields; elsewhere, and where no C compiler is
found, the step-down runs in mpmath, with the same bits
(``min_phase_check`` derives the bound).  The module holds what the codec,
the harness and the command line call; the brick-wall targets and
quadrature grids that judge the designs are test references.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath.libmp import dps_to_prec

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


def _levinson(r: list, p: int):
    """Solve the autocorrelation normal equations at the current mp precision.

    ``r`` holds the mpf lags r_0..r_p, and each operation rounds to the
    current precision; this makes the extended-precision designs and
    bisection steps.  Returns (monic coefficient list, final prediction
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


@functools.lru_cache(maxsize=MAX_ORDER)
def _half_band_lags(p: int) -> tuple:
    """(lags, dd): the half-band lags sinc(m/2), m = 0..p, at the design
    precision of order p, and their rounding to double-double (``_to_dd``),
    read-only: the same for every lambda."""
    with mp.workdps(_design_dps(p)):
        lags = (mp.mpf(1), *(mp.sin(mp.pi * m / 2) / (mp.pi * m / 2) for m in range(1, p + 1)))
        dd = _to_dd(lags)
    dd.flags.writeable = False
    return lags, dd


# ---------------------------------------------------------------------------
# Float64 designs corrected in double-double, with a proven float64 rounding
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


def _to_dd(values):
    """The mpf values, each rounded once to double-double, as the rows hi
    and lo of one float64 array: hi = fl(v) and lo = fl(v - hi), so
    |v - hi - lo| <= 2^-106 |v| away from underflow.  v - hi is exact at
    the precision v was computed at, which the caller holds."""
    hi = [float(v) for v in values]
    return np.array([hi, [float(v - h) for v, h in zip(values, hi)]])


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


# corrections after the float64 solve.  Over orders 4..128 and lambda =
# 10^(k/3) down to 1e-12, one certifies every design that ten do from
# lambda = 1e-5 on, and two do it everywhere; five leave headroom
_DD_CORRECTIONS = 5


def _toeplitz_norm(v) -> float:
    """|v_0| + 2 sum_{d >= 1} |v_d|: a bound on the 2-norm of every Toeplitz
    matrix, square or p x (p + 1), whose entries are the v_|i-j|."""
    return abs(float(v[0])) + 2.0 * float(np.abs(v[1:]).sum())


def _dd_solutions(r, floor: float, level_sum: float, lag_err: float):
    """Yield (a_hi, a_lo, beta): iterates a = a_hi + a_lo that approach the
    solution of the monic normal equations of the lags r = r_hi + r_lo, the
    rows of r (``_to_dd``), each
    with a bound beta on |a_j - c_j| for every j, c the extended-precision
    design (``_levinson`` on mpf lags at ``_design_dps``).  Nothing is
    yielded where the compiled library is absent or the system lies
    outside ``_DD_SCALE``, and no more once a float64 solve fails.

    The first iterate is the float64 solve a_tail = -T^-1 (r_1..r_p), T
    the float64 Toeplitz matrix of r_hi[0..p-1].  Each of up to
    ``_DD_CORRECTIONS`` more is a_tail - T^-1 rho^, rho^ the previous
    iterate's residual, the sum kept as a double-double (``_native``'s
    ``toeplitz_residual_dd`` makes it with ``two_sum``, then the residual).
    No step needs to be accurate, since beta reads the residual alone;
    that the corrections converge is classical iterative refinement
    (Moler, "Iterative refinement in floating point", J. ACM 14(2), 1967).
    Each solve factors T afresh: an LU solve costs a third of an inverse,
    and most designs stop after one correction.

    floor is a lower bound on the smallest eigenvalue of the order-p
    Toeplitz matrix T of r_0..r_{p-1}; level_sum sums the levels of the
    weight function whose autocorrelation the lags are; lag_err bounds the
    2-norm of the Toeplitz perturbation from the exact lags to r.  With
    rho^ the residual of rows 1..p, T a_tail + (r_1..r_p), computed in
    double-double by ``_native``'s ``toeplitz_residual_dd``,

        beta = 2 ((||rho^||_2 + e_rho + e_lag) / floor + eps_mp),

    - e_rho = 16 (p+1) u^2 ||s||_2 bounds the residual's rounding, s_i the
      row sums of |r| |a|: each of the p+1 products errs by under 7u^2 and
      each sum by under 3u^2 (``_native``), 3p + 10 < 16 (p+1);
    - e_lag = lag_err ||a||_2 covers the lags' distance from the exact
      ones.  Where each lag r_d errs by at most delta_d, the perturbation's
      norm is below ``_toeplitz_norm`` of delta, (delta_0 + 2 sum
      delta_d).  The half-band lags, rounded once to double-double, have
      delta_d = 2^-104 |r_d| (``design_yule_walker``), so lag_err = 2^-104
      ||r||_1 with ||r||_1 = |r_0| + 2 sum |r_m|.  The multiband lags are
      summed in double-double from the band basis, and delta_d = (3n + 7)
      u^2 m_d + (2n + 2) 2^-1000 for n bands, m_d = sum_b |w_b| |B_bd|
      (``_multiband_lags_dd`` derives it);
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
    r_hi = r[0]
    p = r_hi.shape[0] - 1
    lo_scale, hi_scale = _DD_SCALE
    r_norm1 = _toeplitz_norm(r_hi)
    if lib is None or not (lo_scale <= floor and r_norm1 <= hi_scale and level_sum <= hi_scale):
        return
    index = np.arange(p)
    t = r_hi[np.abs(index[:, None] - index)]
    out = np.empty((3, p))
    prec = dps_to_prec(_design_dps(p))
    # the float64 solve is the first step: the correction of a = (1, 0..0),
    # whose residual is (r_1..r_p)
    a, res = np.zeros((2, p + 1)), r_hi[1:]
    a[0, 0] = 1.0
    for _ in range(_DD_CORRECTIONS + 1):
        try:
            step = np.linalg.solve(t, res)
        except np.linalg.LinAlgError:
            return
        # the kernel updates a in place, and each yield keeps its own iterate
        a = a.copy()
        lib.toeplitz_residual_dd(r, a, step, p, out)
        a_hi = a[0]
        # |x| <= ||r||_1 / floor <= 2^200 for the exact solution; an iterate
        # that left that range (or holds a NaN, which max passes on) failed,
        # its residual is not read, and beyond it the bound's sums could
        # overflow
        if not np.abs(a_hi).max() <= hi_scale**2:
            return
        res_hi, res_lo, abs_sum = out
        res = res_hi + res_lo
        a_norm = math.sqrt(float(a_hi @ a_hi))
        e_rho = 16 * (p + 1) * _U**2 * math.sqrt(float(abs_sum @ abs_sum)) + (p + 1) * _DD_TINY
        e_lag = lag_err * a_norm + (p + 1) * _DD_TINY
        eps_mp = math.ldexp(
            (p + 1) ** 2 * (r_norm1 + level_sum) * (a_norm + 1.0) / floor, max(p + 16 - prec, -1000)
        )
        yield a[0], a[1], 2.0 * ((math.sqrt(float(res @ res)) + e_rho + e_lag) / floor + eps_mp)


def _design(p: int, lags_mp, certificate=()) -> ShapingFilter:
    """The order-p design: the float64 rounding of ``_levinson`` on the mpf
    lags ``lags_mp()`` at the design precision.  With a certificate (r,
    floor, level_sum, lag_err) for ``_dd_solutions``, it is read from the
    first iterate whose every coefficient ``_nearest_double`` proves; the
    lags are made and the recursion runs only where no iterate does, and
    where there is no certificate."""
    for a_hi, a_lo, beta in _dd_solutions(*certificate) if certificate else ():
        coeffs = [1.0]
        for hi, lo in zip(a_hi.tolist()[1:], a_lo.tolist()[1:]):
            f = _nearest_double(hi, lo, beta)
            if f is None:
                break
            coeffs.append(f)
        else:
            return ShapingFilter(tuple(coeffs))
    with mp.workdps(_design_dps(p)):
        try:
            coeffs, _ = _levinson(lags_mp(), p)
        except ValueError as exc:
            raise ValueError(f"singular system: {exc}") from None
        return ShapingFilter(tuple(float(c) for c in coeffs))


def design_yule_walker(p: int, lambda_ratio: float) -> ShapingFilter:
    """Order-p minimizer of P_dc + lambda_ratio * P_ds over monic filters,
    i.e. the unique solution of (G + 2*lambda_ratio*I) c_tail = -g.

    For lambda_ratio > 0 the eigenvalues of G + 2 lambda I are at least
    2 lambda, and ``_design`` gives the extended-precision design's
    roundings wherever it can prove them; elsewhere the design runs in
    extended precision."""
    _check_order(p)
    if not (math.isfinite(lambda_ratio) and lambda_ratio >= 0):
        raise ValueError(f"lambda ratio must be finite and >= 0, got {lambda_ratio}")
    lags, dd = _half_band_lags(p)
    certificate = ()
    with mp.workdps(_design_dps(p)):
        # lambda is read from its shortest repr, as a decimal, not as its binary value
        lam = mp.mpf(repr(float(lambda_ratio)))
        if lam > 0:
            r = dd.copy()
            r[:, :1] = _to_dd([lags[0] + 2 * lam])
            floor = 2.0 * float(lam) * (1.0 - 2.0**-50)
            certificate = (r, floor, 2.0 + floor, _DD_LAG_REL * _toeplitz_norm(r[0]))
    return _design(p, lambda: [lags[0] + 2 * lam, *lags[1:]], certificate)


@functools.lru_cache(maxsize=MAX_ORDER)
def _band_spans(p: int, edges: tuple) -> tuple:
    """Per band b, with e_0 = 0 and each edge e_b read from its shortest
    repr, the span e_b - e_{b-1} at d = 0 and sin(e_b d) - sin(e_{b-1} d)
    for d = 1..p, at the design precision of order p: band b's share of lag
    d per unit weight is span_bd / (pi d), and span_b0 / pi at d = 0.  One
    tuple per band, the same for every set of band weights."""
    with mp.workdps(_design_dps(p)):
        spans, lo = [], [mp.mpf(0)] * (p + 1)
        for e in edges:
            e = mp.mpf(repr(e))
            hi = [e, *(mp.sin(e * d) for d in range(1, p + 1))]
            spans.append(tuple(h - l for h, l in zip(hi, lo)))
            lo = hi
        return tuple(spans)


@functools.lru_cache(maxsize=MAX_ORDER)
def _band_basis(p: int, edges: tuple):
    """The band basis B_bd, band b's share of lag d per unit weight: the
    cached span over pi d (over pi at d = 0, ``_band_spans``), each rounded
    once to double-double (``_to_dd``).  One read-only array (2, bands,
    p + 1), rows hi and lo, the same for every set of band weights."""
    spans = _band_spans(p, edges)
    with mp.workdps(_design_dps(p)):
        pi = mp.pi
        rows = [_to_dd([s / (pi * d) if d else s / pi for d, s in enumerate(span)]) for span in spans]
    basis = np.stack(rows, axis=1)
    basis.flags.writeable = False
    return basis


def _multiband_lags_dd(basis, weights_mp):
    """(r, delta): the lags r_d = sum_b w_b B_bd, d = 0..p, summed in
    double-double by ``_native``'s ``multiband_lags_dd`` (the caller has
    loaded the library) from the band basis (``_band_basis``) and the mpf
    weights rounded once to double-double, as the rows hi and lo of one
    array, and delta_d, a bound on each lag's distance from the exact sum
    of the mpf weights times the mpf basis.

    Derivation, with u = 2^-53, n bands, t_b = w_b B_bd exact and m_d =
    sum_b |t_b|, where nothing underflows:
    - the two roundings to double-double err by under u^2 |w_b| and
      u^2 |B_bd|, and DWTimesDW1 (``_native``'s ``dd_mul``) by under 7u^2
      of the product of the rounded factors, so each product p_b errs by
      under 9.01u^2 |t_b|;
    - each of the n - 1 AccurateDWPlusDW sums (``_native``'s ``dd_add``,
      from band 0's product on) errs by under 3u^2/(1 - 4u) of the
      magnitude of its exact result, taken as under that times the sum of
      its operands' magnitudes, since the band terms can cancel; the
      running sum's magnitude stays below (1 + 2^-80) m_d, so the sums err
      by under 3 (1 + 2^-49) (n - 1) u^2 m_d together, and the lag by
      under (3n + 6.02) u^2 m_d;
    - m_d is evaluated in float64 from the high parts, within (n + 4) u of
      the exact m_d relative, which the last 0.98 u^2 m_d covers,
    so |r_d - sum_b t_b| < (3n + 7) u^2 m_d, for every n below 2^20.
    Joldes, Muller & Popescu ("Tight and rigorous error bounds for basic
    building blocks of double-word arithmetic", ACM TOMS 44(2), 2017) give
    the bounds of both operations.  delta adds an absolute (2n + 2) 2^-1000
    for roundings that underflow.  Every product and split stays finite
    where the weights sum to at most 2^100 (``_DD_SCALE``), since |B_bd| <= 1.
    """
    _, n, lags = basis.shape
    out = np.empty((3, lags))
    _native.library().multiband_lags_dd(_to_dd(weights_mp), basis, n, lags - 1, out)
    delta = (3 * n + 7) * _U**2 * out[2] + (2 * n + 2) * _DD_TINY
    return out[:2], delta


def _multiband_lags_mp(p: int, edges: tuple, weights: Sequence[float]) -> list:
    """The lags r_0..r_p of the multiband weight function, the mpf sums
    r_d = sum_b w_b span_bd / (pi d), and r_0 = sum_b w_b span_b0 / pi, at
    the design precision of order p from the cached spans (``_band_spans``):
    the lags of the extended-precision design."""
    spans = _band_spans(p, edges)
    with mp.workdps(_design_dps(p)):
        pi = mp.pi
        weights_mp = [mp.mpf(repr(w)) for w in weights]
        r = []
        for d in range(p + 1):
            scale = pi * d if d else pi
            acc = mp.mpf(0)
            for w, span in zip(weights_mp, spans):
                acc += w * span[d] / scale
            r.append(acc)
        return r


def design_multiband(p: int, band_edges: Sequence[float], band_weights: Sequence[float]) -> ShapingFilter:
    """Minimize a weighted sum of band powers of |c|^2 over monic filters.

    Bands are (previous_edge, edge] starting from 0, with edges strictly
    increasing in (0, pi].  Weights must be nonnegative with at least one
    strictly positive (a zero weight leaves that band unconstrained).

    The design is the float64 rounding of ``_levinson`` on the mpf lags
    (``_multiband_lags_mp``).  Where every weight is positive and the
    library loads, the lags are summed in double-double from the band basis
    of (p, edges) instead (``_multiband_lags_dd``, which bounds their
    error), and ``_design`` proves the rounding from them; the mpf lags
    and the recursion run only where it cannot, where a weight is zero and
    where no C compiler is found, with the same bits.
    """
    _check_order(p)
    edges = tuple(float(e) for e in band_edges)
    weights = [float(w) for w in band_weights]
    if len(edges) != len(weights) or not edges:
        raise ValueError("need one weight per band edge")
    if not all(math.isfinite(w) for w in weights):
        raise ValueError(f"band weights must be finite, got {weights}")
    if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
        raise ValueError("weights must be nonnegative with at least one positive")
    try:
        level_sum = math.fsum(weights)
    except OverflowError:
        raise ValueError(f"band weights must have a finite sum, got {weights}") from None
    lo = 0.0
    for e in edges:
        if not (lo < e <= np.pi + 1e-12):
            raise ValueError("band edges must be strictly increasing in (0, pi]")
        lo = e

    certificate = ()
    # beyond _DD_SCALE the double-double lags' splits could overflow
    if min(weights) > 0 and level_sum <= _DD_SCALE[1] and _native.library() is not None:
        with mp.workdps(_design_dps(p)):
            pi = mp.pi
            weights_mp = [mp.mpf(repr(w)) for w in weights]
            # the weight function is at least min(weights) on (0, edges[-1]]; a
            # last edge short of pi loses at most p (pi - edge)/pi of it, since
            # |V(w)|^2 <= p ||v||^2 for the p taps v of a tail
            short = max(mp.mpf(0), pi - mp.mpf(repr(edges[-1])))
            floor = float(min(weights_mp) * (1 - p * short / pi)) * (1.0 - 2.0**-50)
            r, delta = _multiband_lags_dd(_band_basis(p, edges), weights_mp)
        certificate = (r, floor, level_sum, _toeplitz_norm(delta))
    return _design(p, lambda: _multiband_lags_mp(p, edges, weights), certificate)


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


def _step_down_mp(coeffs) -> MinPhaseReport:
    """The step-down of ``min_phase_check`` on mpf operators at the design
    precision of the order, each rounding to nearest at that precision."""
    p = len(coeffs) - 1
    with mp.workdps(_design_dps(p)):
        a = [mp.mpf(v) for v in coeffs]
        max_k = mp.mpf(0)
        for i in range(p, 0, -1):
            k = a[i] / a[0]
            max_k = max(max_k, abs(k))
            if max_k >= 1:
                break
            a = [a[j] - k * a[i - j] for j in range(i)]
        return MinPhaseReport(is_min_phase=bool(max_k < 1), max_reflection=float(max_k))


def _step_down_dd(coeffs):
    """``_step_down_mp``'s report, from the compiled double-double
    step-down wherever its bound proves both fields; None elsewhere, and
    where the library is absent.  ``min_phase_check`` derives the bound."""
    lib = _native.library()
    if lib is None:
        return None
    p = len(coeffs) - 1
    out = np.empty((3, p))
    u_mp = math.ldexp(1.0, max(1 - dps_to_prec(_design_dps(p)), -1000))
    n = lib.stepdown_dd(np.array(coeffs), p, u_mp, out)
    if n <= 0:
        return None
    k_hi, k_lo, dk = out[:, :n]
    # |k| as the double-double (|k_hi|, k_lo sign(k_hi))
    abs_hi, abs_lo = np.abs(k_hi), k_lo * np.sign(k_hi)
    stopped = bool(abs_hi[-1] >= 1.0)
    # |k| <= |k_hi| (1 + u), and the sum and the product round by u each
    if not ((abs_hi[: n - stopped] + dk[: n - stopped]) * (1.0 + 2.0**-50) < 1.0).all():
        return None
    if stopped and not math.fsum((abs_hi[-1], abs_lo[-1], -dk[-1])) > 1.0:
        return None
    # every |k_i| lies within max(dk) of the largest |k|
    top = np.lexsort((abs_lo, abs_hi))[-1]
    max_k = _nearest_double(float(abs_hi[top]), float(abs_lo[top]), float(dk.max()))
    if max_k is None:
        return None
    return MinPhaseReport(is_min_phase=not stopped, max_reflection=max_k)


def min_phase_check(filt: ShapingFilter) -> MinPhaseReport:
    """Schur-Cohn test of c(z).

    The step-down (reverse Levinson) recursion peels one reflection
    coefficient k = a_i/a_0 off the top of the polynomial, a_j <- a_j -
    k a_{i-j}, until it is constant; c(z) is minimum phase, every zero
    strictly inside the unit circle, iff every |k_i| < 1.  The report is
    that of the step-down run on the float64 coefficients the loop runs, at
    the design precision, in mpmath (``_step_down_mp``), which stops at the
    first |k_i| >= 1; a trailing zero coefficient gives k = 0.  By Jensen's
    formula the log-spectrum integral (1/2pi) int log|c|^2 dw of the monic
    c(z) is 0 exactly when it is minimum phase, so the verdict says all that
    integral would.

    The compiled library runs the same step-down in double-double
    (``_native``'s ``stepdown_dd``), with a bound dk_i on the distance of
    each of its k_i from mpmath's.  The verdict is taken from it where every
    interval [|k_i| - dk_i, |k_i| + dk_i] lies clear of 1, and
    max_reflection where ``_nearest_double`` proves the rounding of the
    largest |k_i| within max_i dk_i; everywhere else, and where the library
    is absent, the mpmath step-down runs, so the report has the same bits.

    Derivation of dk.  Let a_j be the exact step-down's coefficients, a^_j
    the double-double ones and a~_j mpmath's at prec bits, and s_j a bound
    on |a^_j - a_j| + |a~_j - a_j|, 0 at the start, where all three are
    the coefficients.  With u = 2^-53, double-double products, sums and
    quotients err by under 7u^2, 3u^2 + 13u^3 and 13u^2 relative (the
    kernel's source derives the last), and the mpf operations by under
    u_mp = 2^-prec.  At step i, with |a^_0| - s_0 > 0 a lower bound on
    every path's pivot,

        g = (|a^_i| + s_i) / (|a^_0| - s_0)

    bounds |a_i/a_0| on every path, and x'/y' - x/y = ((x' - x) - (x'/y')
    (y' - y)) / y bounds each ratio's distance from the exact one; so

        dk = (13u^2 + u_mp) g + (s_i + g s_0) / (|a^_0| - s_0)

    bounds |k^_i - k_i| + |k~_i - k_i|, hence |k^_i - k~_i|.  With
    K = |k^_i| + dk >= |k| on every path, the update's error splits into
    the old errors carried, s_j + K s_{i-j}, the quotient's error times the
    coefficient, dk (|a^_{i-j}| + s_{i-j}), and the new roundings, under
    3u^2 |a^_j| + 10u^2 K |a^_{i-j}| in double-double and u_mp |a~_j| +
    2u_mp K |a~_{i-j}| in mpmath:

        s'_j = s_j + K s_{i-j} + (dk + e_mul K)(|a^_{i-j}| + s_{i-j})
               + e_add (|a^_j| + s_j),

    with e_mul = 12u^2 + 2 u_mp' and e_add = 4u^2 + u_mp', u_mp' =
    2^(1-prec) covering the products of roundings.  The kernel evaluates
    both in float64 from |hi| (1 + 2^-52) >= |hi + lo|, adds 2^-900 for
    roundings that underflow (a quotient over a pivot of at least 2^-100
    errs by far less), and multiplies each by 1 + 2^-40, far above the
    few float64 roundings of its own evaluation.  It gives up where a
    coefficient exceeds 2^100, the pivot falls below 2^-100 or s_0 passes
    2^-20 |a^_0|: within those, while every |k| < 1, no coefficient
    exceeds 2^228 and no quotient 2^328, so no split, product or quotient
    overflows.
    This is the running error analysis of Higham, "Accuracy and Stability
    of Numerical Algorithms" (SIAM, 2nd ed. 2002), ch. 3, carried for two
    computations at once.
    """
    report = _step_down_dd(filt.coeffs)
    return report if report is not None else _step_down_mp(filt.coeffs)


# ---------------------------------------------------------------------------
# Weight-ratio selection
# ---------------------------------------------------------------------------


# the bisection's relative tolerance on the target ratio, and the floor
# and margin headroom of its float64 decisions; the docstring of
# find_lambda_for_ratio derives the last two
_REL_TOL = 1e-6
_F64_LAMBDA_FLOOR = 1e-3
_F64_MARGIN_FACTOR = 16


def _ratio_at(lags: list, lam: float) -> float:
    # P_ds/P_dc of the extended-precision design, not of its float64 rounding
    with mp.workdps(_design_dps(len(lags) - 1)):
        lam = mp.mpf(repr(float(lam)))
        coeffs, energy = _levinson([lags[0] + 2 * lam, *lags[1:]], len(lags) - 1)
        pds = mp.fsum(c * c for c in coeffs)
        # energy = c^T (G + 2 lambda I) c = 2*Pdc + 2*lambda*Pds
        return float(pds) / float((energy - 2 * lam * pds) / 2)


def _ratio_f64(spectrum: tuple, lam: float) -> tuple:
    """(ratio, err): P_ds/P_dc of the half-band design at lam >= the floor,
    in float64 from the order's spectrum (Lambda, h^2) (``_half_band_range``),
    and a bound on its distance from ``_ratio_at`` at the same lambda.

    With x = -c_tail = Q diag(1/(Lambda + 2 lam)) h,

        P_ds = 1 + |x|^2 = 1 + sum h^2 / (Lambda + 2 lam)^2,
        2 P_dc = 1 - S,  S = sum h^2 (Lambda + 4 lam) / (Lambda + 2 lam)^2,

    the second from 2 P_dc = c^T G_{p+1} c, G_{p+1} the order-(p+1) Gram
    matrix.  err = 16 (p+1) u (1 + 1/lam) (1 + 2 lam ratio) ratio, with
    u = 2^-53; ``find_lambda_for_ratio`` derives it.
    """
    eig, h2 = spectrum
    shifted = eig + 2.0 * lam
    weights = h2 / (shifted * shifted)
    pds = 1.0 + float(weights.sum())
    pdc = (1.0 - float((weights * (eig + 4.0 * lam)).sum())) / 2.0
    ratio = pds / pdc
    p = eig.shape[0]
    eps = _F64_MARGIN_FACTOR * (p + 1) * 2.0**-53 * (1.0 + 1.0 / lam) * (1.0 + 2.0 * lam * ratio)
    return ratio, eps * ratio


@functools.lru_cache(maxsize=MAX_ORDER)
def _half_band_range(p: int) -> tuple:
    """(extended-precision lags, spectrum, ratio at lambda = 0) of the order-p
    half-band design: the same for every target ratio.  The spectrum
    (Lambda, h^2), read-only, comes from ``np.linalg.eigh`` of the float64
    Gram matrix G = Q diag(Lambda) Q^T, the Toeplitz matrix of the lags'
    high parts float(r_0)..float(r_{p-1}), with h = Q^T (r_1..r_p)."""
    lags, dd = _half_band_lags(p)
    hi = dd[0]
    index = np.arange(p)
    eig, q = np.linalg.eigh(hi[np.abs(index[:, None] - index)])
    h = q.T @ hi[1:]
    h2 = h * h
    eig.flags.writeable = h2.flags.writeable = False
    return lags, (eig, h2), _ratio_at(lags, 0.0)


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
    bisecting.  The float64 closed form of ``_ratio_f64`` on the order's
    cached spectrum gives r^, and the step trusts it unless lambda < 1e-3
    (the floor) or |r^/gamma - 1| lies within err/gamma of 0 or of _REL_TOL
    (the margin), where

        err = 16 (p+1) u (1 + 1/lambda) (1 + 2 lambda r^) r^,  u = 2^-53.

    Those steps are recomputed in extended precision, by ``_levinson`` on
    the mpf lags.  Outside the margin r^ and the extended-precision r fall
    on the same side of both thresholds, so the decisions, the midpoints
    and the returned lambda are those of an all-extended-precision
    bisection, bit for bit.  No step calls the compiled library, so the
    bisection takes the same path whether or not it loads.

    Derivation of err:
    - G is the autocorrelation of the spectrum 2 on |w| <= pi/2 and 0
      beyond, twice Slepian's discrete prolate concentration matrix at
      W = 1/4 (Bell Syst. Tech. J. 57(5), 1978), so its eigenvalues lie in
      (0, 2) and those of G + 2 lambda I in (2 lambda, 2 + 2 lambda): the
      condition number is below kappa = 1 + 1/lambda, whatever p is.
    - The symmetric eigensolver is backward stable: Lambda^ and Q^ lie
      within O(p u) of the exact decomposition, with an orthogonal Q, of
      G + E, ||E||_2 <= eta ||G||_2 < 2 eta, eta = O(p u) (LAPACK Users'
      Guide, section 4.7).  By Weyl |Lambda^_i - Lambda_i| <= ||E||_2, so
      each 1/(Lambda_i + 2 lambda) errs by O(p u (1 + 1/lambda)) relative,
      and h = Q^T g by O(p u) ||g||_2, with ||g||_2 < 1.  The floor keeps
      (p+1) u / lambda below 1.5e-11 up to MAX_ORDER, so every shifted
      eigenvalue stays positive and the first-order analysis holds; below
      it the margin would near _REL_TOL and the float64 work would mostly
      be wasted.
    - With x = (G + 2 lambda I)^-1 g, P_ds - 1 = |x|^2 changes under E by
      at most |x|^2 ||E||_2 / lambda, so P_ds errs by O(p u / lambda)
      relative.  P_dc = (1 - S)/2 amplifies an error of S by
      S/(1 - S) < r/2, as 1 - S = 2 P_dc and S < 1 <= P_ds; but
      S = x^T (G + 4 lambda I) x = 2 g^T x - x^T G x is stationary in x up
      to its 4 lambda term, dS = -x^T E x - 4 lambda x^T (G + 2 lambda
      I)^-1 E x, so |dS| <= 3 ||E||_2 |x|^2 and P_dc errs by at most
      3 eta r relative, with no 1/lambda.  The error of h enters the same
      two ways, below ||dh||_2 / (2 lambda) for P_ds and ||dh||_2 r for
      P_dc, and the sums of p positive terms, each a few roundings, add
      (p + 5) u to P_ds and (p + 5) u r/2 to P_dc.
    - So r^ errs by O(p u) (1/lambda + r) relative, and err/r^ >= 16 (p+1)
      u (1/lambda + 2 r) covers it with a factor 8 on each term for the
      constants the order-of-magnitude statement leaves out.  Across p in
      1..128 and lambda in [1e-3, 1e4] the observed |r^ - r| stays below
      err/64, and ``tests/test_shaping.py`` holds it to the first-order
      bound err/16.  On the half-band designs of the benchmark's grid
      err/r^ stays below 2e-11, against _REL_TOL = 1e-6, so hardly any
      step falls back.
    """
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    _check_order(p)
    lags, spectrum, hi_ratio = _half_band_range(p)
    if not (2.0 < gamma <= hi_ratio):
        raise ValueError(
            f"ratio out of range for order {p}: achievable range is (2, {hi_ratio:.6g}]"
        )

    def ratio_at(lam: float) -> float:
        if lam >= _F64_LAMBDA_FLOOR:
            ratio, err = _ratio_f64(spectrum, lam)
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
    # no cap on the steps: a target near the lambda = 0 ratio of a high
    # order can lie below lambda = 2^-200, and the bracket collapses within
    # about 1100 halvings
    while True:
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
