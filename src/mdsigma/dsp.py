"""Exact DFT-domain resampling for the oversampled codec.

The codec treats every block as one period (circular convention) and
realizes its ideal filters exactly on the block's DFT grid, with no FFT
longer than the block.  `ideal_fractional_delay` is the one operator: it
delays a band-limited length-n block by a fraction of a sample,
irfft(X(k) exp(-2 pi i k d/n), n), from the block's half-spectrum X.
`ideal_upsample` oversamples by K with a brick-wall interpolator in
polyphase form: phase 0 of the output is the input itself, a_{Kt} = x_t,
and phase j is the input advanced by j/K samples, one delay of a shared
rfft(x).  On a length-n block this is exact for every DFT bin, so the
analytic second-order accounting holds to machine precision.  The decoder
runs the same operator the other way, delaying each description by its
phase/K (``mdsigma.codec``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ideal_fractional_delay",
    "ideal_upsample",
]


def _twiddle(n: int, delay: float) -> np.ndarray:
    """exp(-2 pi i k delay/n) for k = 0..n/2.

    With k = aL + b and L about sqrt(n/2), the table is the outer product
    of exp(-2 pi i aL delay/n) and exp(-2 pi i b delay/n): two short
    tables of complex exponentials and one complex product per entry.
    """
    size = n // 2 + 1
    width = math.isqrt(size - 1) + 1
    theta = -2.0 * math.pi * delay / n
    fine = np.exp(1j * theta * np.arange(width))
    coarse = np.exp(1j * theta * (width * np.arange(-(-size // width))))
    return np.multiply.outer(coarse, fine).ravel()[:size]


def ideal_fractional_delay(spec: np.ndarray, n: int, delay: float) -> np.ndarray:
    """The length-n block whose half-spectrum is ``spec``, delayed by
    ``delay`` samples: irfft(spec(k) exp(-2 pi i k delay/n), n).

    The delay is circular and band-limited.  The inverse keeps the real
    part of the twiddled band-edge bin k = n/2, so with a real
    spec(n/2) it weighs that bin by cos(pi delay).  ``spec`` is left as it
    is.
    """
    twiddled = _twiddle(n, delay)
    twiddled *= spec
    return np.fft.irfft(twiddled, n)


def ideal_upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Oversample by ``factor`` with an exact brick-wall interpolator.

    Output samples on the coarse grid equal the input exactly, a[::factor]
    == x; phase j is x advanced by j/factor samples.  The band-edge bin of
    phase j is weighted by cos(pi j/factor), which is what the zero-padded
    factor*n-point interpolator gives with that bin at half weight, the
    symmetric ideal-filter limit.  A factor of 1 returns a copy of x.
    """
    if isinstance(factor, bool) or not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"factor must be an integer >= 1, got {factor!r}")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty signal")
    if n % 2 != 0:
        raise ValueError("block length must be even")
    a = np.empty(factor * n)
    a[0::factor] = x
    if factor > 1:
        spec = np.fft.rfft(x)
        for j in range(1, factor):
            a[j::factor] = ideal_fractional_delay(spec, n, -j / factor)
    return a
