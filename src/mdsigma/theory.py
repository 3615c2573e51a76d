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

* Symmetric two-description Gaussian bound: side floor sx2*2^(-2R) and
  central bound sx2*2^(-4R) / (1 - (sqrt(Pi) - sqrt(Dz))^2) with
  Pi = (1 - d_s/sx2)^2 and Dz = (d_s/sx2)^2 - 2^(-4R).  The region is
  degenerate when Pi < Dz, which is reported as an error, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TheoryPoint",
    "OzarowEvaluation",
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
class OzarowEvaluation:
    rate_bits: float
    ds: float
    pi_term: float
    delta_term: float
    dc_bound: float


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
        if not (self.sigma_e2 > 0 and self.sigma_x2 > 0):
            raise ValueError("variances must be positive")

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


def ozarow_bounds(rate_bits: float, ds: float, sigma_x2: float) -> OzarowEvaluation:
    """Side-distortion floor and central-distortion bound at the given rate."""
    if not rate_bits > 0:
        raise ValueError("rate must be positive")
    if not sigma_x2 > 0:
        raise ValueError("sigma_x2 must be positive")
    floor = sigma_x2 * 2.0 ** (-2.0 * rate_bits)
    if ds < floor * (1.0 - 1e-12):
        raise ValueError("side distortion infeasible")
    pi_term = (1.0 - ds / sigma_x2) ** 2
    delta_term = (ds / sigma_x2) ** 2 - 2.0 ** (-4.0 * rate_bits)
    # at the no-excess-rate corner ds equals the floor and delta_term is an
    # exact zero; the float evaluation leaves O(eps)-level residue whose
    # square root would destroy ~8 digits of the bound, so values below the
    # rounding floor are snapped to the exact zero
    if abs(delta_term) <= 1e-13 * (ds / sigma_x2) ** 2:
        delta_term = 0.0
    if delta_term < 0.0:
        delta_term = 0.0
    if pi_term < delta_term:
        raise ValueError("degenerate region")
    dc_bound = sigma_x2 * 2.0 ** (-4.0 * rate_bits) / (
        1.0 - (math.sqrt(pi_term) - math.sqrt(delta_term)) ** 2
    )
    return OzarowEvaluation(
        rate_bits=rate_bits,
        ds=ds,
        pi_term=pi_term,
        delta_term=delta_term,
        dc_bound=dc_bound,
    )


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
    """Exact operating point of the two-step (infinite-order) spectrum."""
    if not (delta > 0 and sigma_e2 > 0 and sigma_x2 > 0):
        raise ValueError("all parameters must be positive")
    pdc = 0.5 / delta
    pds = brickwall_total_power(delta)
    ds = sigma_x2 * sigma_e2 * pds / (sigma_x2 + sigma_e2 * pds)
    dc = sigma_x2 * sigma_e2 / delta / (2.0 * sigma_x2 + sigma_e2 / delta)
    return TheoryPoint(
        rate_bits=gaussian_rate_bits(sigma_x2 + sigma_e2 * pds, sigma_e2),
        dc=dc, ds=ds, pdc=pdc, pds=pds,
        alpha=wiener_gain(sigma_x2, sigma_e2, pds),
        beta=wiener_gain(sigma_x2, sigma_e2, pdc),
    )


def k4_point(spec: K4Spec) -> K4Point:
    """Distortions and rate of the three-step spectrum, four descriptions.

    These are the raw (unit post-multiplier) values: full reception keeps
    the low band, two interleaved descriptions add the aliased top band,
    and a single description collects the whole spectrum.
    """
    se2, sx2 = spec.sigma_e2, spec.sigma_x2
    d2l = spec.delta2
    dc = se2 * spec.delta0 / 4.0
    d2 = dc + se2 * spec.delta1 / 4.0
    d1 = d2 + se2 * d2l / 2.0
    p_total = (spec.delta0 + spec.delta1 + 2.0 * d2l) / 4.0
    point = K4Point(dc=dc, d2=d2, d1=d1, rate_bits=gaussian_rate_bits(sx2 + se2 * p_total, se2))
    if not (point.dc <= point.d2 <= point.d1):
        raise ValueError("distortion ordering violated")
    return point
