"""Exact DFT-domain resampling primitives for the oversampled codec.

The codec treats every block as one period (circular convention) and
realizes its ideal filters exactly on the block's DFT grid:

* `ideal_upsample` oversamples by K with a brick-wall interpolator; the
  coarse-grid samples of the output equal the input, a_{Kn} = x_n.
* `ideal_lowpass_downsample` lowpasses to the source band, optionally
  re-aligns by a fractional delay (a phase ramp), and decimates.  With
  factor 1 it is a pure fractional delay.

On a length-N block both are exact for every DFT bin, so the analytic
second-order accounting holds to machine precision.  `spectrum_power`
evaluates |c(e^{jw})|^2 for a coefficient sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalBlock",
    "spectrum_power",
    "ideal_upsample",
    "ideal_lowpass_downsample",
]


@dataclass(frozen=True)
class SignalBlock:
    """A finite block of real base-rate samples.

    ``margin`` counts leading/trailing samples that see the feedback loop's
    cold start and must be excluded from statistics.
    """

    samples: np.ndarray
    margin: int = 0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr is self.samples or arr.base is not None:
            arr = arr.copy()  # never freeze caller-owned storage
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        if self.margin < 0:
            raise ValueError("margin must be >= 0")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def interior(self) -> np.ndarray:
        """Samples with the margin trimmed at both ends."""
        if self.margin == 0:
            return self.samples
        if 2 * self.margin >= len(self):
            return self.samples[0:0]
        return self.samples[self.margin : len(self) - self.margin]


def spectrum_power(coeffs, omega):
    """|sum_i c_i e^{-j w i}|^2 for a real coefficient sequence.

    Accepts a shaping filter or any coefficient sequence, and a scalar or
    array of frequencies; vectorized over ``omega``.
    """
    coeffs = getattr(coeffs, "coeffs", coeffs)
    c = np.asarray(coeffs, dtype=np.float64)
    w = np.asarray(omega, dtype=np.float64)
    i = np.arange(c.shape[0])
    resp = np.exp(-1j * np.multiply.outer(w, i)) @ c
    out = np.abs(resp) ** 2
    return float(out) if np.isscalar(omega) else out


def ideal_upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Oversample by ``factor`` with an exact brick-wall interpolator.

    Output samples on the coarse grid equal the input exactly; the band
    edge bin carries half weight, which is the symmetric ideal-filter limit.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty signal")
    if n % 2 != 0:
        raise ValueError("block length must be even")
    spec = np.fft.rfft(x)
    out = np.zeros(factor * n // 2 + 1, dtype=np.complex128)
    out[: n // 2] = factor * spec[: n // 2]
    out[n // 2] = 0.5 * factor * spec[n // 2]
    return np.fft.irfft(out, n=factor * n)


def ideal_lowpass_downsample(a: np.ndarray, factor: int, delay: float = 0.0) -> np.ndarray:
    """Brick-wall lowpass to |w| <= pi/factor, delay by ``delay`` input
    samples, then keep every ``factor``-th sample.

    The band-edge bin passes at full weight, so the cascade with
    :func:`ideal_upsample` is the identity (the encoder already
    half-weights that bin, and decimation folds the edge line onto its own
    conjugate).  With ``factor`` 1 the top bin is the Nyquist line and is
    scaled by cos(pi*delay), the real symmetric convention for a half-open
    shift; otherwise it lies above the band and is cleared.
    """
    a = np.asarray(a, dtype=np.float64)
    total = a.shape[0]
    if total % factor != 0:
        raise ValueError("length must be divisible by the decimation factor")
    n = total // factor
    if n % 2 != 0:
        raise ValueError("base block length must be even")
    spec = np.fft.rfft(a)
    spec[n // 2 + 1 :] = 0.0
    if delay:
        k = np.arange(total // 2 + 1)
        ramp = np.exp(-2j * np.pi * k * delay / total)
        ramp[-1] = np.cos(np.pi * delay) if factor == 1 else 0.0
        spec = spec * ramp
    return np.fft.irfft(spec, n=total)[::factor]
