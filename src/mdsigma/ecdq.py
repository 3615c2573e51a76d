"""Subtractive-dither lattice quantization: cell, dither, error statistics.

The quantizer itself is the codec's feedback-loop kernel
(``codec.delta_sigma_loop``; an order-0 filter gives plain dithered
quantization).  It rounds (s + z)/step to the nearest integer with
half-ties rounded toward +inf by an exact rule, so the error
e = step*index - z - s lies in (-step/2, step/2] for every input.  Under
dither uniform on the cell the error is uniform, white, and independent of
the input, which is what makes the feedback loop of the codec exactly
linear.  This module holds the cell, the dither streams, and the
statistics that judge the loop's errors.  The Gaussian rate of an output
variance over the cell noise step^2/12 is ``theory.gaussian_rate_bits``.

The lattice is scalar (a product lattice behaves identically per
dimension); shaped lattices are not constructed.

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
    "error_statistics",
    "substream",
    "derive_seed",
]

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
