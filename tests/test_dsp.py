"""Exact DFT-domain resampling and spectrum evaluation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdsigma
from mdsigma import dsp
from mdsigma.dsp import ideal_upsample

from reference import spectrum_power, zero_padded_upsample

EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# factor-2 interpolation, as the encoder realizes it with the exact operator
# ---------------------------------------------------------------------------


class TestUpsample2:
    def test_dc_preserved(self):
        out = ideal_upsample(np.ones(512), 2)
        assert np.abs(out - 1.0).max() <= 1e-12

    def test_impulse_gives_halfband_kernel(self):
        # the circular interpolation kernel tracks sinc(k/2) up to O(1/n^2)
        n = 256
        x = np.zeros(n)
        x[n // 2] = 1.0
        out = ideal_upsample(x, 2)
        center = 2 * (n // 2)  # impulse lands on the even output grid
        expected = [1.0, 2.0 / np.pi, 0.0, -2.0 / (3.0 * np.pi)]
        got = [out[center + k] for k in range(4)]
        assert got == pytest.approx(expected, abs=2e-3)
        assert abs(got[0] - 1.0) <= 1e-12 and abs(got[2]) <= 1e-12  # half-band zeros

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty signal"):
            ideal_upsample(np.zeros(0), 2)


# ---------------------------------------------------------------------------
# spectrum_power, the tests' direct-sum reference for band_power
# ---------------------------------------------------------------------------


class TestSpectrumPower:
    def test_unit_filter(self):
        for w in (-np.pi, -1.0, 0.0, 0.5, np.pi):
            assert spectrum_power((1.0,), w) == pytest.approx(1.0, abs=1e-15)

    def test_difference_filter_at_pi(self):
        assert spectrum_power((1.0, -1.0), np.pi) == pytest.approx(4.0, abs=1e-12)

    def test_polynomial_at_dc(self):
        # direct evaluation of the polynomial at z = 1: (1 - 2/pi)^2
        expected = (1.0 - 2.0 / np.pi) ** 2
        assert expected == pytest.approx(0.13204518983418836, abs=1e-15)
        assert spectrum_power((1.0, -2.0 / np.pi), 0.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_zero_padded_fft(self, rng):
        c = rng.standard_normal(9)
        n = 4096
        grid = 2.0 * np.pi * np.arange(n) / n
        via_fft = np.abs(np.fft.fft(c, n)) ** 2
        direct = spectrum_power(c, grid)
        assert np.abs(via_fft - direct).max() <= 1e-9


# ---------------------------------------------------------------------------
# exact DFT-domain upsampling
# ---------------------------------------------------------------------------


class TestIdealOps:
    def test_coarse_grid_preserved(self, rng):
        x = rng.standard_normal(1 << 12)
        for k in (1, 2, 4, 8):
            a = ideal_upsample(x, k)
            assert a.shape == (k * x.shape[0],)
            assert a[::k].tobytes() == x.tobytes(), k

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("n", [1 << 6, 1 << 12])
    def test_matches_the_zero_padded_interpolator(self, rng, n, k):
        # polyphase length-n FFTs against one k*n-point irfft: rounding
        # only, at most 2.1 eps of the block's peak on these inputs
        x = rng.standard_normal(n)
        ref = zero_padded_upsample(x, k)
        assert np.abs(ideal_upsample(x, k) - ref).max() <= 4 * EPS * np.abs(ref).max()

    @pytest.mark.parametrize("factor", [0, -2, 2.5, True, np.float64(2.0), "2"], ids=repr)
    def test_bad_factor_rejected_before_any_fft(self, monkeypatch, factor):
        def fft_must_not_run(*args, **kwargs):
            raise AssertionError("an FFT ran on a bad factor")

        monkeypatch.setattr(np.fft, "rfft", fft_must_not_run)
        monkeypatch.setattr(np.fft, "irfft", fft_must_not_run)
        with pytest.raises(ValueError, match="factor must be an integer >= 1"):
            ideal_upsample(np.arange(8.0), factor)

    @pytest.mark.parametrize("n", [2, 6, 1000, 1 << 12, 1 << 20])
    def test_twiddle_matches_complex_exponential(self, n):
        # short-table product against one np.exp per bin: at most 2.5 eps
        # on these sizes and delays
        for delay in (0.25, 0.5, 0.75, -0.25, -0.5, -0.75, -0.875):
            ref = np.exp(np.arange(n // 2 + 1) * (-2j * np.pi * delay / n))
            assert np.abs(dsp._twiddle(n, delay) - ref).max() <= 4 * EPS, delay

    @pytest.mark.parametrize("k", [2, 4])
    def test_variance_preserved(self, rng, k):
        x = rng.standard_normal(1 << 16)
        a = ideal_upsample(x, k)
        assert a.var() == pytest.approx(x.var(), rel=1e-3)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ideal_upsample(np.ones(31), 2)


@pytest.mark.parametrize("module", ["dsp", "ecdq", "shaping", "theory", "codec", "harness"])
def test_every_exported_name_resolves(module):
    # callers that walk __all__ (star imports, tracers) getattr every name
    mod = getattr(mdsigma, module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; the library must not pull it in
    src = str(Path(mdsigma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, mdsigma; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
