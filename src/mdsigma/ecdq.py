"""Subtractive-dither lattice quantization with exact additive-noise behavior.

The quantizer rounds (s + z)/step to the nearest integer with half-ties
rounded toward +inf, i.e. index = floor(y + 1/2).  With that convention
the error e = step*index - z - s lies in (-step/2, step/2] exactly, for
every input.  Under dither uniform on the cell the error is uniform,
white, and independent of the input, which is what makes the feedback
loop of the codec exactly linear.

The lattice is scalar (a product lattice behaves identically per
dimension); shaped lattices are not constructed, their rate advantage is
accounted analytically as the space-filling term (1/2) log2(2 pi e / 12)
per dimension.

Randomness is counter-based (Philox) with documented stream splitting:
a master seed spawns per-trial and per-role substreams, and dither
substreams are keyed by (seed, phase) so a decoder can regenerate any
description's dither from the packet header alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizerSpec",
    "DitherStream",
    "ErrorStatsReport",
    "RateAccounting",
    "quantize_dithered",
    "error_statistics",
    "rate_accounting",
    "substream",
    "derive_seed",
]

SPACE_FILLING_BITS = 0.5 * math.log2(2.0 * math.pi * math.e / 12.0)

# role tags for stream splitting
ROLE_SOURCE = 0
ROLE_DITHER = 1


@dataclass(frozen=True)
class QuantizerSpec:
    """Scalar lattice with cell width ``step``."""

    step: float

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be positive and finite")

    @property
    def noise_variance(self) -> float:
        return self.step * self.step / 12.0

    @property
    def space_filling_bits(self) -> float:
        return SPACE_FILLING_BITS


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the substream identified by ``key`` under the master seed."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for the given key path (e.g. per-trial dither seed)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class DitherStream:
    """Reproducible per-description dither: uniform on [-step/2, step/2).

    The same (seed, phase) pair always yields the same sequence, and
    distinct phases are independent substreams, so the encoder can
    interleave K phase streams while each decoder regenerates only its own.
    """

    def __init__(self, seed: int, step: float, phase: int = 0):
        if not step > 0:
            raise ValueError("step must be positive")
        self.seed = int(seed)
        self.step = float(step)
        self.phase = int(phase)
        self._rng = substream(self.seed, ROLE_DITHER, self.phase)

    def draw(self, n: int) -> np.ndarray:
        return self._rng.uniform(-self.step / 2.0, self.step / 2.0, int(n))


def quantize_dithered(s, z, q: QuantizerSpec):
    """Dithered lattice quantization of ``s`` with dither ``z``.

    Returns (index, reconstruction) with index = round_half_up((s+z)/step)
    and reconstruction = step*index - z, so the error
    reconstruction - s = Q(s+z) - (s+z) depends on s+z only through its
    value modulo the cell and lies in (-step/2, step/2] per coordinate.
    """
    s = np.asarray(s, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if s.shape != z.shape:
        raise ValueError("sample and dither shapes must match")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(z))):
        raise ValueError("non-finite input")
    y = (s + z) / q.step
    # floor(y + 0.5) would round y + 0.5 first: y = 0.5 - 2^-54 lands on
    # 1.0 and picks the far cell.  y - floor(y) is exact, so compare it.
    index = np.floor(y)
    index = (index + (y - index >= 0.5)).astype(np.int64)
    reconstruction = q.step * index.astype(np.float64) - z
    return index, reconstruction


@dataclass(frozen=True)
class ErrorStatsReport:
    mean: float
    variance: float
    lag_autocorr: np.ndarray  # lags 1..10, normalized
    input_crosscorr: float
    uniformity_statistic: float  # KS distance to uniform on the cell


def _ks_uniform(x: np.ndarray, step: float) -> float:
    """Exact two-sided KS distance of the sample to uniform[-step/2, step/2]."""
    n = x.shape[0]
    xs = np.sort(x)
    cdf = np.clip((xs + step / 2.0) / step, 0.0, 1.0)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))


def error_statistics(errors, inputs, q: QuantizerSpec, max_lag: int = 10) -> ErrorStatsReport:
    """Whiteness / independence / uniformity diagnostics for quantization errors.

    Requires at least 10^4 samples so the 4/sqrt(N) correlation gates are
    meaningful.
    """
    e = np.asarray(getattr(errors, "samples", errors), dtype=np.float64)
    x = np.asarray(getattr(inputs, "samples", inputs), dtype=np.float64)
    if e.shape != x.shape:
        raise ValueError("errors and inputs must have equal length")
    n = e.shape[0]
    if n < 10**4:
        raise ValueError(f"need at least 10^4 samples, got {n}")
    mean = float(e.mean())
    var = float(e.var())
    ec = e - mean
    denom = ec @ ec
    lags = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        lags[k - 1] = (ec[:-k] @ ec[k:]) / denom if denom > 0 else 0.0
    xc = x - x.mean()
    xnorm = math.sqrt(float(xc @ xc) * float(denom))
    cross = float((ec @ xc) / xnorm) if xnorm > 0 else 0.0
    return ErrorStatsReport(
        mean=mean,
        variance=var,
        lag_autocorr=lags,
        input_crosscorr=cross,
        uniformity_statistic=_ks_uniform(e, q.step),
    )


@dataclass(frozen=True)
class RateAccounting:
    gaussian_rate_bits: float
    finite_L_penalty_bits: float


def rate_accounting(var_output: float, q: QuantizerSpec) -> RateAccounting:
    """Gaussian mutual-information accounting of the ECDQ rate.

    gaussian_rate_bits is the differential-entropy difference of two
    Gaussians, h(N(0, var_output)) - h(N(0, sigma_E^2)) =
    (1/2) log2(var_output / sigma_E^2).  The finite-dimension penalty is
    the space-filling term for the supported (cubic/product) lattices; it
    is reported, never silently added.
    """
    se2 = q.noise_variance
    if not var_output > se2:
        raise ValueError("sub-noise variance")
    gauss = 0.5 * math.log2(2 * math.pi * math.e * var_output) - 0.5 * math.log2(
        2 * math.pi * math.e * se2
    )
    return RateAccounting(
        gaussian_rate_bits=gauss, finite_L_penalty_bits=q.space_filling_bits
    )
