"""Dithered quantization: error law, statistics gates, rate accounting."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp

from mdsigma.ecdq import (
    DitherStream,
    QuantizerSpec,
    error_statistics,
    quantize_dithered,
    rate_accounting,
    substream,
)


class TestQuantizeDithered:
    def test_plain_rounding(self):
        q = QuantizerSpec(step=1.0)
        idx, rec = quantize_dithered([0.3], [0.0], q)
        assert idx[0] == 0 and rec[0] == 0.0
        assert rec[0] - 0.3 == pytest.approx(-0.3)

    def test_dither_shifts_cell(self):
        q = QuantizerSpec(step=1.0)
        idx, rec = quantize_dithered([0.3], [0.3], q)
        assert idx[0] == 1
        assert rec[0] == pytest.approx(0.7)
        assert rec[0] - 0.3 == pytest.approx(0.4)

    def test_error_moments_bulk(self):
        q = QuantizerSpec(step=1.0)
        rng = np.random.default_rng(11)
        s = rng.normal(0.0, 3.0, 10**6)
        z = rng.uniform(-0.5, 0.5, 10**6)
        _, rec = quantize_dithered(s, z, q)
        err = rec - s
        assert abs(err.mean()) <= 0.002
        assert err.var() == pytest.approx(1.0 / 12.0, rel=0.01)

    def test_nonfinite_rejected(self):
        q = QuantizerSpec(step=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            quantize_dithered([np.nan], [0.0], q)

    @given(
        s=st.floats(-1e6, 1e6),
        z_frac=st.floats(0.0, 1.0, exclude_max=True),
        step=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    @example(s=0.0, z_frac=0.9999999999999999, step=22.0)  # y + 0.5 rounds up to 1.0
    def test_error_support(self, s, z_frac, step):
        q = QuantizerSpec(step=step)
        z = (z_frac - 0.5) * step
        _, rec = quantize_dithered([s], [z], q)
        err = rec[0] - s
        slack = 4.0 * np.spacing(max(1.0, abs(s)))  # float rounding at the cell edge
        assert -step / 2 - slack < err <= step / 2 + slack

    @given(shift=st.integers(-1000, 1000))
    @settings(max_examples=100, deadline=None)
    def test_error_depends_on_cell_offset_only(self, shift):
        # integer lattice shifts move the index, not the error
        q = QuantizerSpec(step=0.75)
        s, z = 0.2341, -0.11
        idx0, rec0 = quantize_dithered([s], [z], q)
        idx1, rec1 = quantize_dithered([s + shift * q.step], [z], q)
        assert idx1[0] - idx0[0] == shift
        assert (rec1[0] - (s + shift * q.step)) == pytest.approx(rec0[0] - s, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            quantize_dithered([1.0, 2.0], [0.0], QuantizerSpec(step=1.0))


class TestQuantizerSpec:
    def test_noise_variance(self):
        q = QuantizerSpec(step=0.6)
        assert q.noise_variance == pytest.approx(0.36 / 12.0, abs=1e-15)

    def test_space_filling_constant(self):
        # (1/2) log2(2 pi e / 12), independent of the step
        expected = 0.25461433482006296
        assert QuantizerSpec(step=1.0).space_filling_bits == pytest.approx(expected, abs=1e-12)
        assert QuantizerSpec(step=2.0).space_filling_bits == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantizerSpec(step=0.0)


class TestDitherStream:
    def test_reproducible(self):
        a = DitherStream(42, 1.0, phase=1).draw(1000)
        b = DitherStream(42, 1.0, phase=1).draw(1000)
        assert np.array_equal(a, b)

    def test_phases_differ(self):
        a = DitherStream(42, 1.0, phase=0).draw(1000)
        b = DitherStream(42, 1.0, phase=1).draw(1000)
        assert not np.array_equal(a, b)

    def test_support(self):
        z = DitherStream(7, 0.25).draw(10**5)
        assert z.min() >= -0.125 and z.max() < 0.125

    def test_cursor_advances(self):
        ds = DitherStream(42, 1.0)
        a = ds.draw(10)
        b = ds.draw(10)
        assert not np.array_equal(a, b)

    def test_substream_determinism(self):
        a = substream(99, 3, 1).standard_normal(8)
        b = substream(99, 3, 1).standard_normal(8)
        c = substream(99, 3, 2).standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


@pytest.fixture(scope="module")
def gaussian_run():
    q = QuantizerSpec(step=0.5)
    rng = np.random.default_rng(123)
    n = 10**6
    s = rng.standard_normal(n)
    z = rng.uniform(-q.step / 2, q.step / 2, n)
    _, rec = quantize_dithered(s, z, q)
    return s, rec - s, q


class TestErrorStatistics:
    def test_whiteness_gate(self, gaussian_run):
        s, err, q = gaussian_run
        rep = error_statistics(err, s, q)
        gate = 4.0 / math.sqrt(err.shape[0])
        assert np.abs(rep.lag_autocorr).max() <= gate
        assert len(rep.lag_autocorr) == 10

    def test_input_independence_gate(self, gaussian_run):
        s, err, q = gaussian_run
        rep = error_statistics(err, s, q)
        assert abs(rep.input_crosscorr) <= 4.0 / math.sqrt(err.shape[0])

    def test_uniformity(self, gaussian_run):
        s, err, q = gaussian_run
        rep = error_statistics(err, s, q)
        assert rep.uniformity_statistic <= 0.005
        assert rep.variance == pytest.approx(q.noise_variance, rel=0.01)

    def test_degenerate_zero_feed(self):
        q = QuantizerSpec(step=1.0)
        zeros = np.zeros(10**4)
        rep = error_statistics(zeros, zeros, q)
        assert rep.variance == 0.0
        assert rep.uniformity_statistic == pytest.approx(0.5, abs=1e-12)

    def test_small_sample_rejected(self):
        q = QuantizerSpec(step=1.0)
        with pytest.raises(ValueError, match="10\\^4"):
            error_statistics(np.zeros(100), np.zeros(100), q)

    def test_dither_invariance_across_sources(self):
        # error law does not depend on the input distribution
        q = QuantizerSpec(step=0.5)
        rng = np.random.default_rng(5)
        n = 10**5

        def errors(src):
            z = rng.uniform(-q.step / 2, q.step / 2, n)
            _, rec = quantize_dithered(src, z, q)
            return rec - src

        e0 = errors(np.zeros(n))
        e1 = errors(rng.laplace(0.0, 2.0, n))
        assert ks_2samp(e0, e1).statistic <= 0.01


class TestRateAccounting:
    def test_reference_point(self):
        q = QuantizerSpec(step=math.sqrt(12 * 0.01))
        acc = rate_accounting(1.02125, q)
        # (1/2) log2(1.02125 / 0.01)
        assert acc.gaussian_rate_bits == pytest.approx(3.3370961340728416, abs=1e-12)

    def test_half_bit_at_ratio_two(self):
        q = QuantizerSpec(step=1.0)
        acc = rate_accounting(2.0 * q.noise_variance, q)
        assert acc.gaussian_rate_bits == pytest.approx(0.5, abs=1e-12)

    def test_penalty_reported_not_added(self):
        q = QuantizerSpec(step=0.3)
        acc = rate_accounting(1.0, q)
        assert acc.finite_L_penalty_bits == pytest.approx(0.25461433482006296, abs=1e-12)

    def test_subnoise_variance_rejected(self):
        q = QuantizerSpec(step=1.0)
        with pytest.raises(ValueError, match="sub-noise"):
            rate_accounting(q.noise_variance * 0.999, q)
