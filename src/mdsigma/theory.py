"""Analytic engine: the closed forms every simulation is judged against.

All rates are bits per description per source sample.  Conventions:

* Brick-wall operating point (two-step noise spectrum, level 1/delta
  in-band and delta out-of-band), with total power
  P_ds = (delta+1/delta)/2 (``brickwall_total_power``, its only copy):
      d_s = sx2*se2*P_ds / (sx2 + se2*P_ds)
      d_c = sx2*se2/delta / (2*sx2 + se2/delta)
      R   = (1/2) log2((sx2 + se2*P_ds) / se2)

* A finite-order filter has the same forms in terms of the noise power P
  behind a reception pattern (P_dc for all descriptions, P_ds for one):
      d = sx2*se2*P / (sx2 + se2*P) = wiener_gain(P) * se2*P,
  with the Wiener post-multipliers alpha = wiener_gain(P_ds) and
  beta = wiener_gain(P_dc).  The harness evaluates it as the decoder's
  post-multiplier times se2*P, with P from ``codec.pattern_noise_power``.

* Every rate is the Gaussian accounting of an output variance,
  (1/2) log2(var/se2), and every post-multiplier the Wiener gain
  sx2/(sx2 + se2*P): ``gaussian_rate_bits`` and ``wiener_gain`` are their
  only implementations, shared with the harness and the codec.

* Symmetric two-description Gaussian bound (Ozarow): side floor
  sx2*f with f = 2^(-2R), and, with d = d_s/sx2 >= f and
  t = sqrt((d - f)(d + f)), central bound
      d_c >= sx2*f^2 / ((d + t)(2 - d - t)),
  the product form of sx2*f^2 / (1 - (1 - d - t)^2), which has no
  cancellation.  The region is degenerate when d + t > 1, which is
  reported as an error, never clamped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass

__all__ = [
    "TheoryPoint",
    "K4Spec",
    "K4Point",
    "ozarow_bounds",
    "brickwall_point",
    "brickwall_total_power",
    "k4_point",
    "gaussian_rate_bits",
    "wiener_gain",
]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryPoint:
    """Analytic operating point, comparable against a simulation result."""

    rate_bits: float
    dc: float
    ds: float
    pdc: float
    pds: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class K4Spec:
    """Three-step noise spectrum for the four-description codec.

    Levels: delta0 on |w| <= pi/4, delta2 = 1/sqrt(delta0*delta1) on the
    middle band, delta1 on 3pi/4 < |w| < pi.  The derived middle level
    zeroes the log-spectrum integral, keeping the filter monic/min-phase.
    """

    delta0: float
    delta1: float
    sigma_e2: float
    sigma_x2: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(d) and d > 0 for d in (self.delta0, self.delta1)):
            raise ValueError("band levels must be positive and finite")
        if self.delta0 > 1.0 + 1e-12:
            raise ValueError("delta0 must be <= 1")
        if self.delta0 * self.delta1 > 1.0 + 1e-12:
            raise ValueError("delta0*delta1 must be <= 1")
        if not all(math.isfinite(v) and v > 0 for v in (self.sigma_e2, self.sigma_x2)):
            raise ValueError("variances must be positive and finite")

    @property
    def delta2(self) -> float:
        return 1.0 / math.sqrt(self.delta0 * self.delta1)


@dataclass(frozen=True)
class K4Point:
    dc: float
    d2: float
    d1: float
    rate_bits: float


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def ozarow_bounds(rate_bits: float, ds: float, sigma_x2: float) -> float:
    """Ozarow's central-distortion bound at the given rate and side distortion.

    The product form of the module docstring.  Outside the degenerate
    region 2 - d - t >= 1 and d + t >= f, so the bound lies between
    sx2*f^2 and about sx2*f and cannot overflow.  Non-finite inputs, a side
    distortion below the floor sx2*f, a degenerate region, and sx2*f^2
    below the smallest normal double raise ValueError.
    """
    if not all(math.isfinite(v) for v in (rate_bits, ds, sigma_x2)):
        raise ValueError(f"rate, ds and sigma_x2 must be finite, got {rate_bits!r}, {ds!r}, {sigma_x2!r}")
    if not rate_bits > 0:
        raise ValueError("rate must be positive")
    if not sigma_x2 > 0:
        raise ValueError("sigma_x2 must be positive")
    f = 2.0 ** (-2.0 * rate_bits)
    d = ds / sigma_x2
    if d < f * (1.0 - 1e-12):
        raise ValueError("side distortion infeasible")
    numerator = sigma_x2 * f * f
    if numerator < sys.float_info.min:
        raise ValueError(
            f"central bound underflows float64 at rate {rate_bits!r}: sigma_x2*2^(-4R) = {numerator!r}"
        )
    # at the no-excess-rate corner d = f the square root turns a few ulps
    # of d - f into ~8 lost digits, and d and f come from different
    # formulas: the brick-wall point at delta = 1 has d = f exactly, but
    # its d_s/sx2 and 2^(-2R) round apart.  So a product below 1e-13 d^2,
    # negatives included, is taken as rounding and snapped to the exact
    # zero; without the snap 10 points of criterion 1's grid, all at
    # delta = 1, miss its 1e-10 bound, by up to 9.2e-8
    excess = (d - f) * (d + f)
    if excess <= 1e-13 * d * d:
        excess = 0.0
    s = d + math.sqrt(excess)  # d + t
    if s > 1.0:
        raise ValueError("degenerate region")
    return numerator / (s * (2.0 - s))


def gaussian_rate_bits(var: float, sigma_e2: float) -> float:
    """Rate of a Gaussian output of variance ``var`` over cell noise sigma_E^2:
    h(N(0, var)) - h(N(0, sigma_E^2)) = (1/2) log2(var / sigma_E^2) bits."""
    return 0.5 * math.log2(var / sigma_e2)


def wiener_gain(sigma_x2: float, sigma_e2: float, power: float) -> float:
    """Post-multiplier sx2/(sx2 + se2*P) for noise of power P times sigma_E^2."""
    return sigma_x2 / (sigma_x2 + sigma_e2 * power)


def brickwall_total_power(delta: float) -> float:
    """Total power P_ds = (delta + 1/delta)/2 of the two-step spectrum."""
    return 0.5 * (delta + 1.0 / delta)


def brickwall_point(delta: float, sigma_e2: float, sigma_x2: float) -> TheoryPoint:
    """Exact operating point of the two-step (infinite-order) spectrum.

    The parameters must be positive and finite, and a point with a value
    that overflows float64 raises ValueError.
    """
    if not all(math.isfinite(v) and v > 0 for v in (delta, sigma_e2, sigma_x2)):
        raise ValueError("all parameters must be positive and finite")
    pdc = 0.5 / delta
    pds = brickwall_total_power(delta)
    ds = sigma_x2 * sigma_e2 * pds / (sigma_x2 + sigma_e2 * pds)
    dc = sigma_x2 * sigma_e2 / delta / (2.0 * sigma_x2 + sigma_e2 / delta)
    point = TheoryPoint(
        rate_bits=gaussian_rate_bits(sigma_x2 + sigma_e2 * pds, sigma_e2),
        dc=dc, ds=ds, pdc=pdc, pds=pds,
        alpha=wiener_gain(sigma_x2, sigma_e2, pds),
        beta=wiener_gain(sigma_x2, sigma_e2, pdc),
    )
    if not all(math.isfinite(v) for v in astuple(point)):
        raise ValueError(
            f"operating point overflows float64 at delta={delta!r}, sigma_e2={sigma_e2!r}, sigma_x2={sigma_x2!r}"
        )
    return point


def k4_point(spec: K4Spec) -> K4Point:
    """Distortions and rate of the three-step spectrum, four descriptions.

    These are the raw (unit post-multiplier) values: full reception keeps
    the low band, two interleaved descriptions add the aliased top band,
    and a single description collects the whole spectrum.  Each step adds
    a non-negative term, so dc <= d2 <= d1; a point with a value that
    overflows float64 raises ValueError.
    """
    se2, sx2 = spec.sigma_e2, spec.sigma_x2
    d2l = spec.delta2
    dc = se2 * spec.delta0 / 4.0
    d2 = dc + se2 * spec.delta1 / 4.0
    d1 = d2 + se2 * d2l / 2.0
    p_total = (spec.delta0 + spec.delta1 + 2.0 * d2l) / 4.0
    point = K4Point(dc=dc, d2=d2, d1=d1, rate_bits=gaussian_rate_bits(sx2 + se2 * p_total, se2))
    if not all(math.isfinite(v) for v in astuple(point)):
        raise ValueError(
            f"three-step point overflows float64 at delta0={spec.delta0!r}, delta1={spec.delta1!r}, "
            f"sigma_e2={se2!r}, sigma_x2={sx2!r}"
        )
    return point
