"""Dithered quantization: error law, statistics gates, rate over the cell noise."""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp

from mdsigma import codec
from mdsigma.codec import CodecConfig, delta_sigma_loop
from mdsigma.ecdq import DitherStream, QuantizerSpec, substream
from mdsigma.harness import ConfigError, ExperimentConfig
from mdsigma.shaping import ShapingFilter
from mdsigma.theory import gaussian_rate_bits

from conftest import loop_kernels, run_kernel
from reference import error_statistics

# the order-0 feedback loop is plain dithered quantization
WHITE = ShapingFilter((1.0,))

# steps the rule refuses, with its error: not positive, not finite, or with
# a cell variance step^2/12 past float64's range (a numpy step as much as a
# Python one)
BAD_STEPS = [
    *((step, "step must be positive and finite") for step in (0.0, -1.0, math.nan, math.inf)),
    *(
        (step, f"step {float(step)!r} is past sqrt(DBL_MAX) ~ 1.34e154: its cell variance step^2/12 overflows")
        for step in (2e154, np.float64(1e160))
    ),
]
# the largest step whose cell variance is finite
TOP_STEP = math.sqrt(sys.float_info.max)


class TestQuantizeDithered:
    def test_plain_rounding(self):
        res = delta_sigma_loop([0.3], WHITE, [0.0], 1.0)
        assert res.indices[0] == 0 and res.quantized[0] == 0.0
        assert res.quant_error[0] == pytest.approx(-0.3)

    def test_dither_shifts_cell(self):
        res = delta_sigma_loop([0.3], WHITE, [0.3], 1.0)
        assert res.indices[0] == 1
        assert res.quantized[0] == pytest.approx(0.7)
        assert res.quant_error[0] == pytest.approx(0.4)

    def test_error_moments_bulk(self):
        rng = np.random.default_rng(11)
        s = rng.normal(0.0, 3.0, 10**6)
        z = rng.uniform(-0.5, 0.5, 10**6)
        err = delta_sigma_loop(s, WHITE, z, 1.0).quant_error
        assert abs(err.mean()) <= 0.002
        assert err.var() == pytest.approx(1.0 / 12.0, rel=0.01)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            delta_sigma_loop([np.nan], WHITE, [0.0], 1.0)

    @given(
        s=st.floats(-1e6, 1e6),
        z_frac=st.floats(0.0, 1.0, exclude_max=True),
        step=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    @example(s=0.0, z_frac=0.9999999999999999, step=22.0)  # y + 0.5 rounds up to 1.0
    def test_error_support(self, s, z_frac, step):
        z = (z_frac - 0.5) * step
        err = delta_sigma_loop([s], WHITE, [z], step).quant_error[0]
        slack = 4.0 * np.spacing(max(1.0, abs(s)))  # float rounding at the cell edge
        assert -step / 2 - slack < err <= step / 2 + slack

    @given(shift=st.integers(-1000, 1000))
    @settings(max_examples=100, deadline=None)
    def test_error_depends_on_cell_offset_only(self, shift):
        # integer lattice shifts move the index, not the error
        step, s, z = 0.75, 0.2341, -0.11
        res0 = delta_sigma_loop([s], WHITE, [z], step)
        res1 = delta_sigma_loop([s + shift * step], WHITE, [z], step)
        assert res1.indices[0] - res0.indices[0] == shift
        assert res1.quant_error[0] == pytest.approx(res0.quant_error[0], abs=1e-12)

    def test_shape_mismatch(self):
        # a dither longer than the block is rejected, as a shorter one is
        with pytest.raises(ValueError, match="dither"):
            delta_sigma_loop([1.0], WHITE, [0.0, 0.0], 1.0)


class TestQuantizerSpec:
    def test_noise_variance(self):
        q = QuantizerSpec(step=0.6)
        assert q.noise_variance == pytest.approx(0.36 / 12.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantizerSpec(step=0.0)


class TestTheStepRule:
    """QuantizerSpec is the one rule for a step: every consumer refuses a
    step that it refuses, with its error, before any draw, kernel or design."""

    @pytest.mark.parametrize("step,message", BAD_STEPS, ids=[repr(step) for step, _ in BAD_STEPS])
    def test_every_consumer_refuses_a_bad_step_with_the_rule_s_error(self, monkeypatch, step, message):
        with pytest.raises(ValueError) as info:
            QuantizerSpec(step)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            DitherStream(0, step)
        assert str(info.value) == message
        # the same error whichever kernel would run, and no kernel runs; a
        # valid step runs each, so the patch is the one delta_sigma_loop calls
        for backend, kernel in loop_kernels().items():
            ran = []
            monkeypatch.setattr(codec, "_dsq_loop", lambda *args, kernel=kernel: ran.append(1) or run_kernel(kernel, *args))
            with pytest.raises(ValueError) as info:
                delta_sigma_loop(np.zeros(4), ShapingFilter((1.0, -0.5)), np.zeros(4), step)
            assert str(info.value) == message and not ran, backend
            delta_sigma_loop(np.zeros(4), ShapingFilter((1.0, -0.5)), np.zeros(4), 1.0)
            assert ran == [1], backend
        # a codec config takes its step only as a QuantizerSpec, which the
        # bad step cannot become
        for quantizer in (step, SimpleNamespace(step=step, noise_variance=1.0)):
            with pytest.raises(TypeError, match="^quantizer must be a QuantizerSpec"):
                CodecConfig(1.0, quantizer, WHITE)
        # an experiment config is refused as it is built, before any design
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(quant_step=step)
        assert str(info.value) == f"quant_step = {float(step)!r}: {message}"

    @pytest.mark.parametrize("step", [TOP_STEP, np.float64(TOP_STEP)], ids=repr)
    def test_the_largest_admitted_step_is_kept_as_a_python_float(self, step):
        above = math.nextafter(TOP_STEP, math.inf)
        assert math.isfinite(TOP_STEP * TOP_STEP / 12.0) and not math.isfinite(above * above / 12.0)
        spec = QuantizerSpec(step)
        assert type(spec.step) is float and spec.step == TOP_STEP
        assert spec.noise_variance == TOP_STEP * TOP_STEP / 12.0
        assert type(DitherStream(0, step).step) is float
        assert delta_sigma_loop(np.zeros(4), WHITE, np.zeros(4), step).indices.tolist() == [0, 0, 0, 0]
        assert ExperimentConfig(quant_step=step).noise_variance == spec.noise_variance
        with pytest.raises(ValueError, match=r"is past sqrt\(DBL_MAX\)"):
            QuantizerSpec(above)


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
    return s, delta_sigma_loop(s, WHITE, z, q.step).quant_error, q


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
            return delta_sigma_loop(src, WHITE, z, q.step).quant_error

        e0 = errors(np.zeros(n))
        e1 = errors(rng.laplace(0.0, 2.0, n))
        assert ks_2samp(e0, e1).statistic <= 0.01


class TestRateAccounting:
    # the Gaussian rate of an output variance over the cell noise step^2/12

    def test_reference_point(self):
        q = QuantizerSpec(step=math.sqrt(12 * 0.01))
        # (1/2) log2(1.02125 / 0.01)
        assert gaussian_rate_bits(1.02125, q.noise_variance) == pytest.approx(3.3370961340728416, abs=1e-12)

    def test_half_bit_at_ratio_two(self):
        q = QuantizerSpec(step=1.0)
        assert gaussian_rate_bits(2.0 * q.noise_variance, q.noise_variance) == pytest.approx(0.5, abs=1e-12)
