"""Exact DFT-domain resampling primitives and spectrum evaluation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdsigma
from mdsigma.dsp import ideal_lowpass_downsample, ideal_upsample, spectrum_power

from conftest import bandlimited_noise


# ---------------------------------------------------------------------------
# factor-2 interpolation, factor-2 decimation and the half-sample delay, as
# the codec realizes them with the exact operators
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


class TestLowpassDownsample2:
    def test_white_noise_halved_variance(self, rng):
        out = ideal_lowpass_downsample(rng.standard_normal(1 << 18), 2)
        assert out.var() == pytest.approx(0.5, rel=0.03)

    def test_dc(self):
        out = ideal_lowpass_downsample(np.full(512, 3.25), 2)
        assert np.abs(out - 3.25).max() <= 1e-12

    def test_odd_length_rejected(self):
        # 666 input samples decimate to an odd base block of 333
        with pytest.raises(ValueError, match="even"):
            ideal_lowpass_downsample(np.ones(666), 2)


class TestHalfsampleAllpass:
    def test_zero_delay_identity(self, rng):
        y = rng.standard_normal(256)
        out = ideal_lowpass_downsample(y, 1, 0.0)
        assert np.abs(out - y).max() <= 1e-9

    def test_energy_preservation_on_white_noise(self, rng):
        x = rng.standard_normal(1 << 17)
        out = ideal_lowpass_downsample(x, 1, 0.5)
        assert out.var() == pytest.approx(x.var(), rel=0.01)


# ---------------------------------------------------------------------------
# spectrum_power
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
# exact DFT-domain operators
# ---------------------------------------------------------------------------


class TestIdealOps:
    def test_coarse_grid_preserved(self, rng):
        x = rng.standard_normal(1 << 12)
        for k in (2, 4):
            a = ideal_upsample(x, k)
            assert np.abs(a[::k] - x).max() <= 1e-12

    def test_roundtrip_exact_even_for_white_input(self, rng):
        x = rng.standard_normal(1 << 12)
        for k in (2, 4):
            back = ideal_lowpass_downsample(ideal_upsample(x, k), k)
            assert np.abs(back - x).max() <= 1e-12

    @pytest.mark.parametrize("k", [2, 4])
    def test_variance_preserved(self, rng, k):
        x = rng.standard_normal(1 << 16)
        a = ideal_upsample(x, k)
        assert a.var() == pytest.approx(x.var(), rel=1e-3)

    def test_fractional_delay_on_bandlimited(self, rng):
        x = bandlimited_noise(rng, 1 << 12, cutoff=0.9 * np.pi)
        shifted = ideal_lowpass_downsample(x, 1, 0.5)
        back = ideal_lowpass_downsample(shifted, 1, -0.5)
        assert np.abs(back - x).max() <= 1e-11

    def test_fractional_delay_of_cosine(self):
        w0 = np.pi / 4  # on the DFT grid for n = 4096
        k = np.arange(4096, dtype=float)
        out = ideal_lowpass_downsample(np.cos(w0 * k), 1, 0.5)
        assert np.abs(out - np.cos(w0 * (k - 0.5))).max() <= 1e-11

    def test_delayed_decimation_from_an_offset_grid(self, rng):
        # phases 1 and 3 of a 4x oversampled block sit at base positions
        # (1 + 2i)/4: lowpass, delay by half a stream sample, decimate by 2
        x = bandlimited_noise(rng, 1 << 12, cutoff=0.9 * np.pi)
        y = ideal_upsample(x, 4)[1::2]
        back = ideal_lowpass_downsample(y, 2, 0.5)
        assert np.abs(back - x).max() <= 1e-11

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ideal_upsample(np.ones(31), 2)


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
