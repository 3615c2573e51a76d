"""Exact DFT-domain upsampling and the decoded block type of the oversampled codec.

The codec treats every block as one period (circular convention) and
realizes its ideal filters exactly on the block's DFT grid.
`ideal_upsample` oversamples by K with a brick-wall interpolator; the
coarse-grid samples of the output equal the input, a_{Kn} = x_n.  On a
length-N block it is exact for every DFT bin, so the analytic
second-order accounting holds to machine precision.  The decoder's way
back, a phase-twiddled mean of the descriptions' spectra, lives in
`mdsigma.codec` and returns its blocks as `SignalBlock`s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalBlock",
    "ideal_upsample",
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
