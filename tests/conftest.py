import numpy as np
import pytest

from mdsigma.shaping import ShapingFilter, min_phase_check


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


def bandlimited_noise(rng, n, cutoff=0.9 * np.pi, var=1.0):
    """Gaussian noise band-limited to |w| <= cutoff, unit variance by default.

    Useful as a probe for operators whose conventions differ only at the
    band edge (e.g. the Nyquist line of a fractional delay).
    """
    x = rng.standard_normal(n)
    spec = np.fft.rfft(x)
    w = np.linspace(0.0, np.pi, spec.shape[0])
    spec[w > cutoff] = 0.0
    y = np.fft.irfft(spec, n=n)
    return y * np.sqrt(var / y.var())


def zeros_within(filt, rho):
    """True iff every zero z_i of c(z) has |z_i| < rho.

    The filter with coefficients c_i rho^-i has zeros z_i/rho, so this is
    min_phase_check's decision on the scaled filter.
    """
    scaled = ShapingFilter(tuple(c * rho**-i for i, c in enumerate(filt.coeffs)))
    return min_phase_check(scaled).is_min_phase
