import sys
import tracemalloc

import numpy as np
import pytest

from mdsigma import _native, codec, shaping
from mdsigma.ecdq import DitherStream
from mdsigma.shaping import ShapingFilter, min_phase_check


# oversampled arrays alive at encode's peak: the loop's five outputs, and,
# before Python 3.11, whose caller holds a call's arguments until the call
# returns, also the upsampled block and the dither that the loop lets go of
ENCODE_PEAK_ARRAYS = 5 if sys.version_info >= (3, 11) else 7


@pytest.fixture(params=["default", "python"])
def loop_kernel(request, monkeypatch):
    """Run the test on the kernel this process dispatches to, then on the
    generated one; the value is the backend's name."""
    if request.param == "python":
        monkeypatch.setattr(codec, "_native_loop", lambda: None)
    return codec.loop_backend()


def loop_kernels():
    """Every loop kernel this machine can run, each called as kernel(a, z,
    n, c_tail, p, step, q, e, fb): the generated one always, and the C one
    wherever a C compiler is found, which must then load."""
    kernels = {"python": lambda a, z, n, c, p, *out: codec._generated_kernel(p)(a, z, n, c, p, *out)}
    if _native._compiler() is not None:
        assert codec.loop_backend() == "c", "a C compiler is found but the C kernel did not load"
        kernels["c"] = codec._native_loop()
    return kernels


# no index, error or feedback sum of an admitted block takes these values
Q_SENTINEL, F_SENTINEL = np.iinfo(np.int64).min, np.nan


def run_kernel(kernel, a, c_tail, z, step):
    """(q, e, fb) from one kernel call on outputs prefilled with sentinels,
    which it must overwrite in every slot."""
    n = a.shape[0]
    q, e, fb = np.full(n, Q_SENTINEL), np.full(n, F_SENTINEL), np.full(n, F_SENTINEL)
    kernel(a, z, n, c_tail, c_tail.shape[0], step, q, e, fb)
    assert not (q == Q_SENTINEL).any() and not np.isnan(e).any() and not np.isnan(fb).any(), "a slot was not filled"
    return q, e, fb


def traced_peak(fn, *args):
    """tracemalloc's peak, in bytes, over a call fn(*args) made after a
    warm-up call: what the call holds at its peak beyond what was live
    before it."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def mp_solves(monkeypatch):
    """The orders of the extended-precision design solves, as they run."""
    calls = []
    real = shaping._levinson_mp
    monkeypatch.setattr(shaping, "_levinson_mp", lambda r, p: calls.append(p) or real(r, p))
    return calls


@pytest.fixture()
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def decoder_calls(monkeypatch):
    """Live counts of the rffts called from the codec module (the decoder's;
    the encoder's upsampling FFT runs in dsp) and of every dither draw."""
    counts = {"rfft": 0, "draw": 0}
    rfft, draw = np.fft.rfft, DitherStream.draw

    def counted_rfft(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == codec.__name__:
            counts["rfft"] += 1
        return rfft(*args, **kwargs)

    def counted_draw(self, n):
        counts["draw"] += 1
        return draw(self, n)

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    monkeypatch.setattr(DitherStream, "draw", counted_draw)
    return counts


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
