"""Reference computations that only the tests use as oracles.

Each evaluates a quantity apart from the library's own route to it: the
filter spectrum by direct summation on a frequency grid (against
``shaping.band_power``), the oversampled block by one zero-padded
K*n-point inverse FFT (against the polyphase ``dsp.ideal_upsample``), the
quantization-error statistics (against the
loop's error law), the two-step brick-wall target with its
truncated-Fourier synthesis (against the designs and criterion 6), and the
feedback loop with its sum added newest error first (against the kernels'
partial-sum order, which must give the same indices).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import kstest

from mdsigma.theory import brickwall_total_power

QUADRATURE_POINTS = 8192


# ---------------------------------------------------------------------------
# Spectrum evaluation
# ---------------------------------------------------------------------------


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


def quadrature_grid(n: int = QUADRATURE_POINTS) -> np.ndarray:
    """Uniform midpoint grid on [-pi, pi]; fixed so oracle comparisons are bit-stable."""
    return -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)


def zero_padded_upsample(x, factor: int) -> np.ndarray:
    """Brick-wall interpolation by ``factor`` through one factor*n-point
    irfft: the spectrum of x, times factor, zero-padded to the oversampled
    grid, with the band-edge bin k = n/2 at half weight."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    spec = np.fft.rfft(x)
    out = np.zeros(factor * n // 2 + 1, dtype=np.complex128)
    out[: n // 2] = factor * spec[: n // 2]
    out[n // 2] = 0.5 * factor * spec[n // 2]
    return np.fft.irfft(out, n=factor * n)


# ---------------------------------------------------------------------------
# Quantization-error statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorStatsReport:
    mean: float
    variance: float
    lag_autocorr: np.ndarray  # lags 1..10, normalized
    input_crosscorr: float
    uniformity_statistic: float  # KS distance to uniform on the cell


def error_statistics(errors, inputs, q, max_lag: int = 10) -> ErrorStatsReport:
    """Whiteness / independence / uniformity diagnostics for quantization errors.

    ``q`` is the ``QuantizerSpec`` whose cell the errors should fill.
    Requires at least 10^4 samples so the 4/sqrt(N) correlation gates are
    meaningful.
    """
    e = np.asarray(errors, dtype=np.float64)
    x = np.asarray(inputs, dtype=np.float64)
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
        uniformity_statistic=float(kstest(e, "uniform", args=(-q.step / 2, q.step)).statistic),
    )


# ---------------------------------------------------------------------------
# Brick-wall targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrickWallSpec:
    """Two-step target spectrum: 1/delta in-band (|w| <= pi/2), delta beyond."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    def power(self, omega) -> np.ndarray:
        w = np.abs(np.asarray(omega, dtype=np.float64))
        return np.where(w <= np.pi / 2, 1.0 / self.delta, self.delta)


def brickwall_autocorrelation(target: BrickWallSpec, lag: int) -> float:
    """Fourier coefficient r_m of the two-step spectrum.

    r_0 = P_ds = (delta + 1/delta)/2 and r_m = (1/delta - delta)/2 * sinc(m/2);
    even nonzero lags vanish exactly.
    """
    lag = abs(int(lag))
    if lag == 0:
        return brickwall_total_power(target.delta)
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
# Feedback loop, newest-first order
# ---------------------------------------------------------------------------


def newest_first_loop(a, c_tail, z, step):
    """The feedback recursion with each sum added newest error first after
    a leading 0.0, fb[k] = 0.0 + c_1 e[k-1] + ... + c_p e[k-p], and rounded
    half up from floor(y); (q, e, fb) as int64 and float64 arrays."""
    a, z, c = np.asarray(a).tolist(), np.asarray(z).tolist(), np.asarray(c_tail).tolist()
    p = len(c)
    q, e, fb = [], [], []
    for k, (ak, zk) in enumerate(zip(a, z)):
        acc = 0.0
        for i in range(min(p, k)):
            acc += c[i] * e[k - 1 - i]
        s = ak + acc
        y = (s + zk) / step
        qk = math.floor(y)
        if y - qk >= 0.5:
            qk += 1
        q.append(qk)
        e.append(step * qk - zk - s)
        fb.append(acc)
    return np.array(q, dtype=np.int64), np.array(e), np.array(fb)
