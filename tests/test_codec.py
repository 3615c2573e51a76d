"""Encoder/decoder behavior: loop algebra, noiseless chains, statistics."""

import dataclasses
import logging
import math
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import lfilter
from scipy.stats import ks_2samp

from mdsigma import _native, codec, shaping
from mdsigma.codec import (
    CodecConfig,
    DescriptionPacket,
    decode,
    decode_subsets,
    delta_sigma_loop,
    encode,
    pattern_noise_power,
    reconstruction_mse,
)
from mdsigma.dsp import ideal_upsample
from mdsigma.ecdq import DitherStream, QuantizerSpec
from mdsigma.shaping import MAX_ORDER, ShapingFilter, design_multiband, design_yule_walker, filter_powers
from mdsigma.theory import wiener_gain

from conftest import (
    ENCODE_PEAK_ARRAYS,
    F_SENTINEL,
    Q_SENTINEL,
    bandlimited_noise,
    loop_kernels,
    run_kernel,
    traced_peak,
)
from reference import newest_first_loop

STEP_001 = float(np.sqrt(12 * 0.01))  # sigma_e2 = 0.01
TOP_STEP = math.sqrt(sys.float_info.max)  # the largest step whose cell variance is finite
EPS = np.finfo(np.float64).eps


# every uniform subset of descriptions, as (K, received phases)
UNIFORM_SUBSETS = [
    pytest.param(2, (0, 1), id="k2-central"),
    pytest.param(2, (0,), id="k2-even"),
    pytest.param(2, (1,), id="k2-odd"),
    pytest.param(4, (0, 1, 2, 3), id="k4-central"),
    pytest.param(4, (0, 2), id="k4-pair02"),
    pytest.param(4, (1, 3), id="k4-pair13"),
    *(pytest.param(4, (j,), id=f"k4-single{j}") for j in range(4)),
]


def make_config(step=STEP_001, filt=None, k=2, seed=7):
    filt = filt if filt is not None else design_yule_walker(8, 0.1)
    return CodecConfig(
        source_variance=1.0,
        quantizer=QuantizerSpec(step=step),
        filter=filt,
        oversampling=k,
        dither_seed=seed,
    )


def share_dither(monkeypatch, z, k):
    """Make every dither stream draw its phase's samples of the oversampled
    block z: phase j's n draws are z[j::k][:n].  The encoder and each
    description's decoder draw n samples per phase, so both see z."""
    monkeypatch.setattr(DitherStream, "draw", lambda self, n: z[self.phase :: k][:n].copy())


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


class TestMultipliers:
    # the Wiener multipliers alpha = wiener_gain(P_ds) (one description) and
    # beta = wiener_gain(P_dc) (all of them)
    def test_brickwall_reference(self):
        assert wiener_gain(1.0, 0.01, 2.125) == pytest.approx(0.9791921664626683, rel=1e-12)
        assert wiener_gain(1.0, 0.01, 0.125) == pytest.approx(0.9987515605493134, rel=1e-12)

    def test_noiseless_limit(self):
        assert wiener_gain(1.0, 0.0, 2.125) == 1.0 and wiener_gain(1.0, 0.0, 0.125) == 1.0

    def test_white_filter_at_unit_snr(self):
        assert wiener_gain(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert wiener_gain(1.0, 1.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_ordering_invariant(self):
        alpha, beta = wiener_gain(2.0, 0.3, 1.7), wiener_gain(2.0, 0.3, 0.2)
        assert 0.0 < alpha <= beta <= 1.0


# ---------------------------------------------------------------------------
# reception-pattern noise power
# ---------------------------------------------------------------------------


def aliased_quadrature_power(filt, k, s, n):
    """(1/2pi) int_{|w| <= pi/K} sum_{j<s} |c(e^{j(w + 2pi j/s)})|^2 dw by the
    midpoint rule on n points: the noise that the stride-s subset folds onto
    the source band, straight from the aliasing definition."""
    h = 2.0 * np.pi / k / n
    w = -np.pi / k + (np.arange(n) + 0.5) * h
    total = 0.0
    for j in range(s):
        z = np.exp(-1j * (w + 2.0 * np.pi * j / s))
        total += float(np.sum(np.abs(np.polynomial.polynomial.polyval(z, filt.coeffs)) ** 2))
    return total * h / (2.0 * np.pi)


class TestPatternNoisePower:
    @pytest.mark.parametrize("k,s", [(2, 1), (2, 2), (4, 1), (4, 2), (4, 4)])
    def test_matches_quadrature_over_the_aliased_bands(self, k, s):
        if k == 2:
            filt = design_yule_walker(12, 0.1)
        else:
            filt = design_multiband(24, [np.pi / 4, 3 * np.pi / 4, np.pi], [5.0, 0.45, 1.0])
        cfg = make_config(filt=filt, k=k)
        quad = aliased_quadrature_power(filt, k, s, n=(1 << 18) // k)
        assert pattern_noise_power(cfg, s) == pytest.approx(quad, abs=1e-9)

    def test_one_description_sees_the_total_power(self):
        cfg = make_config(k=4)
        assert pattern_noise_power(cfg, 4) == pytest.approx(filter_powers(cfg.filter)[1], rel=1e-15)

    @pytest.mark.parametrize("s", [0, 3, -2, 8])
    def test_stride_must_divide_k(self, s):
        with pytest.raises(ValueError, match="invalid for oversampling 4"):
            pattern_noise_power(make_config(k=4), s)


# ---------------------------------------------------------------------------
# feedback loop
# ---------------------------------------------------------------------------


def _feedback_sum(c_tail, e, k):
    """The kernels' feedback sum for sample k over the past errors e[:k]:
    terms c_j e[k-j], 2 <= j <= min(p, k), in four partial sums by
    (j - 2) % 4, each from 0.0 and oldest first, then ((t0 + t1) + (t2 +
    t3)) + c_1 e[k-1]."""
    m = min(len(c_tail), k)
    t = [0.0, 0.0, 0.0, 0.0]
    for j in range(m, 1, -1):
        t[(j - 2) % 4] += c_tail[j - 1] * e[k - j]
    acc = (t[0] + t[1]) + (t[2] + t[3])
    if m:
        acc += c_tail[0] * e[k - 1]
    return acc


def _dsq_loop_py(a, c_tail, z, step):
    """Reference recursion, one sample and one product at a time, under the
    kernel's contract (a, c_tail, z, step) -> (q, e, fb)."""
    n = a.shape[0]
    q = np.empty(n, dtype=np.int64)
    e, fb = np.empty(n), np.empty(n)
    for k in range(n):
        acc = _feedback_sum(c_tail, e, k)
        a_in = a[k] + acc
        y = (a_in + z[k]) / step
        qk = math.floor(y)
        if y - qk >= 0.5:  # half up, without rounding y + 0.5
            qk += 1
        q[k] = qk
        e[k] = step * qk - z[k] - a_in
        fb[k] = acc
    return q, e, fb


def assert_same_bits(got, want, case):
    for name, g, w in zip(("indices", "quant_error", "feedback"), got, want):
        assert g.dtype == w.dtype, (case, name)
        assert g.tobytes() == w.tobytes(), (case, name)


@st.composite
def loop_blocks(draw):
    """(a, c_tail, z, step) that delta_sigma_loop admits: orders up to
    MAX_ORDER, signed zeros, and samples up to the 2^52 index bound; or
    rounding ties: with p = 0, step 1.0 and z = 0, y = a, here multiples of
    1/2 (most of them odd ones) in every binade up to the bound."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 64))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        binade = rng.integers(0, 53, n)  # 2^b <= 2|a| < 2^(b+1)
        halves = (1 << binade) + rng.integers(0, 1 << binade)
        halves |= rng.random(n) < 0.75
        a = np.where(rng.random(n) < 0.5, -1.0, 1.0) * halves / 2.0
        return a, np.zeros(0), np.zeros(n), 1.0
    p = draw(st.integers(0, MAX_ORDER))
    n = draw(st.integers(0, p + 40))
    step = draw(st.sampled_from([1.0, 0.37, 22.0]))
    # max|a| + max|z| + sum|c_tail| step/2 stays below 2^52 steps, with
    # sum|c_tail| <= 2 MAX_ORDER
    scale = draw(st.sampled_from([1.0, 1e6, 2.0**40, 2.0**52 - 2.0 * MAX_ORDER - 1.0])) * step
    zero_share = draw(st.sampled_from([0.0, 0.25, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unit(size):
        """Uniform on [-1, 1], a zero_share of it +0.0 or -0.0."""
        x = rng.uniform(-1.0, 1.0, size)
        zero = rng.random(size) < zero_share
        x[zero] = np.copysign(0.0, rng.uniform(-1.0, 1.0, zero.sum()))
        return x

    return unit(n) * scale, 2.0 * unit(p), unit(n) * (step / 2), step


class TestLoop:
    def test_micro_case_by_hand(self):
        # two-step recursion with c = (1, -0.5), unit cell, fixed dither
        filt = ShapingFilter((1.0, -0.5))
        res = delta_sigma_loop([0.4, 0.4], filt, [0.1, -0.2], 1.0)
        assert res.indices.tolist() == [1, 0]
        assert res.quantized.tolist() == pytest.approx([0.9, 0.2], abs=1e-15)
        assert res.quant_error.tolist() == pytest.approx([0.5, 0.05], abs=1e-15)
        eps = res.quantized - np.array([0.4, 0.4])
        assert eps.tolist() == pytest.approx([0.5, -0.2], abs=1e-15)

    def test_zero_fixed_point(self, monkeypatch):
        monkeypatch.setattr(DitherStream, "draw", lambda self, n: np.zeros(n))
        cfg = make_config()
        x = np.zeros(512)
        packets, loop = encode(x, cfg)
        assert all(np.all(p.indices == 0) for p in packets)
        assert np.all(loop.quantized == 0.0)

    def test_trace_identity_exact(self):
        cfg = make_config()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2048)
        _, tr = encode(x, cfg)
        # bit-exact chain: a' = a + feedback, a^ = a' + e
        assert np.array_equal(tr.loop_input, ideal_upsample(x, 2) + tr.feedback)
        assert np.array_equal(tr.quantized, tr.loop_input + tr.quant_error)
        # feedback replays the kernels' sum order over past errors: four
        # partial sums of c_j e[k-j], j >= 2, oldest first, then the newest
        ct = np.array(cfg.filter.coeffs)[1:].tolist()
        e = tr.quant_error.tolist()
        for k in range(64):
            acc = _feedback_sum(ct, e, k)
            assert acc == tr.feedback[k], k

    def test_shaped_error_is_filtered_quant_error(self):
        cfg = make_config(filt=design_yule_walker(6, 0.2))
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4096)
        _, tr = encode(x, cfg)
        ref = lfilter(np.array(cfg.filter.coeffs), [1.0], tr.quant_error)
        shaped_error = tr.quantized - ideal_upsample(x, 2)
        assert np.abs(shaped_error - ref).max() <= 1e-10

    def test_shaped_error_variance_tracks_total_power(self):
        cfg = make_config(filt=design_yule_walker(8, 0.1))
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1 << 18)
        _, tr = encode(x, cfg)
        p = cfg.filter.order
        var = (tr.quantized - ideal_upsample(x, 2))[p:].var()
        _, pds = filter_powers(cfg.filter)
        assert var == pytest.approx(cfg.quantizer.noise_variance * pds, rel=0.02)

    def test_quantized_variance_accounting(self):
        cfg = make_config(filt=design_yule_walker(8, 0.1))
        rng = np.random.default_rng(6)
        x = rng.standard_normal(1 << 18)
        _, tr = encode(x, cfg)
        _, pds = filter_powers(cfg.filter)
        expect = 1.0 + cfg.quantizer.noise_variance * pds
        assert tr.quantized[16:].var() == pytest.approx(expect, rel=0.01)

    def test_just_below_half_a_cell_stays_in_the_near_cell(self):
        # y = 0.5 - 2^-54: floor(y + 0.5) would round y + 0.5 to 1.0 and
        # give index 1 with error 11.000000000000002, outside the cell
        res = delta_sigma_loop([0.0], ShapingFilter((1.0,)), [10.999999999999998], 22.0)
        assert res.indices.tolist() == [0]
        assert res.quant_error.tolist() == [-10.999999999999998]

    @given(
        p=st.sampled_from([0, 1, 8]),
        data=st.data(),
        step=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_error_lies_in_the_cell(self, p, data, step):
        tail = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p), label="c_tail")
        n = data.draw(st.integers(1, 64), label="n")
        a = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n), label="a")
        z_frac = data.draw(
            st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n), label="z_frac"
        )
        z = (np.array(z_frac) - 0.5) * step
        res = delta_sigma_loop(a, ShapingFilter((1.0, *tail)), z, step)
        # the rounding of step*q - z - a_in, as the benchmark's loop oracle allows
        slack = 4.0 * np.finfo(np.float64).eps * (2.0 * np.abs(res.loop_input) + 2.0 * step)
        assert np.all(res.quant_error > -step / 2 - slack)
        assert np.all(res.quant_error <= step / 2 + slack)

    def test_dither_length_validated(self):
        with pytest.raises(ValueError, match="dither"):
            delta_sigma_loop(np.ones(8), ShapingFilter((1.0,)), np.zeros(4), 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["signal", "dither"])
    def test_non_finite_input_rejected_before_the_kernel(self, monkeypatch, value, where):
        import mdsigma.codec

        def kernel_must_not_run(*args):
            raise AssertionError("kernel ran on non-finite input")

        monkeypatch.setattr(mdsigma.codec, "_dsq_loop", kernel_must_not_run)
        a, z = np.zeros(16), np.zeros(16)
        (a if where == "signal" else z)[5] = value
        with pytest.raises(ValueError, match="finite"):
            delta_sigma_loop(a, design_yule_walker(4, 0.1), dither=z, step=1.0)

    @pytest.mark.parametrize(
        "peak,step,filt",
        [
            (1e19, 1.0, ShapingFilter((1.0,))),  # the index itself would overflow int64
            (1.0, 1e-16, ShapingFilter((1.0,))),
            (2.0**52 - 8, 1.0, ShapingFilter((1.0, 20.0))),  # fed-back errors add 10 steps
        ],
        ids=["signal-1e19", "tiny-step", "feedback-reach"],
    )
    def test_index_past_2_52_rejected_before_the_kernel(self, monkeypatch, peak, step, filt):
        import mdsigma.codec

        def kernel_must_not_run(*args):
            raise AssertionError("kernel ran on a block whose index could pass 2^52")

        monkeypatch.setattr(mdsigma.codec, "_dsq_loop", kernel_must_not_run)
        a = np.zeros(16)
        a[3] = peak
        with pytest.raises(ValueError, match=r"past 2\^52"):
            delta_sigma_loop(a, filt, dither=np.zeros(16), step=step)

    @pytest.mark.parametrize(
        "a,filt,z,step",
        [
            ([1e308, 0.0], ShapingFilter((1.0,)), [1e308, 0.0], 1.0),  # max|a| + max|z| overflows
            ([0.0, 0.0], ShapingFilter((1.0, 1e300)), [0.0, 0.0], 1e10),  # sum|c_tail| step overflows
            ([0.0, 0.0], ShapingFilter((1.0, 1e308, 1e308)), [0.0, 0.0], 1.0),  # sum|c_tail| overflows
        ],
        ids=["peaks", "tail-times-step", "tail-sum"],
    )
    def test_a_bound_past_float_range_is_rejected_before_the_kernel(self, monkeypatch, a, filt, z, step):
        # the suite turns RuntimeWarnings into errors, so the bound itself
        # must not overflow in numpy scalars
        def kernel_must_not_run(*args):
            raise AssertionError("kernel ran on a block whose index bound overflows")

        monkeypatch.setattr(codec, "_dsq_loop", kernel_must_not_run)
        with pytest.raises(ValueError, match=r"past 2\^52"):
            delta_sigma_loop(a, filt, z, step)

    def test_index_just_below_2_52_runs(self):
        a = np.zeros(16)
        a[3] = 2.0**52 - 8
        res = delta_sigma_loop(a, ShapingFilter((1.0,)), dither=np.zeros(16), step=1.0)
        assert res.indices[3] == 2**52 - 8

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_encode_rejects_non_finite_source_before_the_fft(self, value):
        x = np.zeros(64)
        x[7] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="signal must be finite"):
                encode(x, make_config())

    @pytest.mark.parametrize("n, message", [(0, "empty signal"), (3, "block length must be even")])
    def test_encode_rejects_empty_or_odd_blocks_before_the_kernel(self, monkeypatch, n, message):
        import mdsigma.codec

        def kernel_must_not_run(*args):
            raise AssertionError("kernel ran on an empty or odd block")

        monkeypatch.setattr(mdsigma.codec, "_dsq_loop", kernel_must_not_run)
        with pytest.raises(ValueError, match=message):
            encode(np.zeros(n), make_config())

    def test_kernel_matches_reference_recursion_bitwise(self):
        # every kernel keeps the reference recursion's operation order.
        # Lengths around p cover the cold start and a partial last unrolled
        # pass; the all-zero block covers signed zeros
        kernels = loop_kernels()
        rng = np.random.default_rng(99)
        for p in (0, 1, 2, 12, 48, 64):
            filt = design_yule_walker(p, 0.05) if p else ShapingFilter((1.0,))
            ct = np.ascontiguousarray(np.array(filt.coeffs)[1:])
            for n in sorted({0, 1, max(p - 1, 0), p, p + 1, 4096}):
                for step in (1.0, 0.37):
                    for zeros in (False, True):
                        if zeros:
                            a, z = np.zeros(n), np.zeros(n)
                        else:
                            a = rng.standard_normal(n)
                            z = rng.uniform(-step / 2, step / 2, n)
                        ref = _dsq_loop_py(a, ct, z, step)
                        for backend, kernel in kernels.items():
                            got = run_kernel(kernel, a, ct, z, step)
                            assert_same_bits(got, ref, (backend, p, n, step, zeros))

    @given(block=loop_blocks())
    @example(block=(np.array([0.0]), np.zeros(0), np.array([10.999999999999998]), 22.0))
    @example(block=(np.array([0.5, -0.5, 1.5, -0.0]), np.array([-0.0]), np.zeros(4), 1.0))
    # the C kernel's rounding at its edges: y = -0.5 and -1.5, y = -0.0 (a
    # tiny negative sum underflows), one ulp below k + 1/2 for k = 2 and
    # k = -3, and |y| just under 2^52
    @example(block=(np.array([-0.5, -1.5]), np.zeros(0), np.zeros(2), 1.0))
    @example(block=(np.array([-5e-324]), np.zeros(0), np.array([0.0]), 22.0))
    @example(block=(np.array([np.nextafter(2.5, 0.0), np.nextafter(-2.5, -3.0)]), np.zeros(0), np.zeros(2), 1.0))
    @example(block=(np.array([2.0**52 - 0.5, -(2.0**52 - 0.5)]), np.zeros(0), np.zeros(2), 1.0))
    # ties in the top two binades below the 2^52 bound
    @example(block=(np.array([2.0**51 + 0.5]), np.zeros(0), np.zeros(1), 1.0))
    @example(block=(np.array([-(2.0**51 + 0.5)]), np.zeros(0), np.zeros(1), 1.0))
    @example(block=(np.array([3 * 2.0**50 + 1.5]), np.zeros(0), np.zeros(1), 1.0))
    @settings(max_examples=300, deadline=None)
    def test_backends_agree_bitwise(self, block):
        a, c_tail, z, step = block
        # the block passes every check delta_sigma_loop makes before a kernel
        res = delta_sigma_loop(a, ShapingFilter((1.0, *c_tail.tolist())), z, step)
        kernels = loop_kernels()
        want = run_kernel(kernels.pop("python"), a, c_tail, z, step)
        assert_same_bits((res.indices, res.quant_error, res.feedback), want, "delta_sigma_loop")
        for backend, kernel in kernels.items():
            assert_same_bits(run_kernel(kernel, a, c_tail, z, step), want, backend)

    def test_kernels_stay_exact_a_few_ulps_past_the_admitted_range(self):
        # delta_sigma_loop forms its 2^52 bound in floats, so a kernel may
        # meet y a few ulps past 2^52, where every double is an integer;
        # the C kernel's shift by 2^52 would round 2^52 + 1 to 2^52
        a = np.array([2.0**52, 2.0**52 + 1, -(2.0**52 + 1), 2.0**53 + 2])
        c_tail, z = np.zeros(0), np.zeros(4)
        want = _dsq_loop_py(a, c_tail, z, 1.0)
        assert want[0].tolist() == [2**52, 2**52 + 1, -(2**52 + 1), 2**53 + 2]
        for backend, kernel in loop_kernels().items():
            assert_same_bits(run_kernel(kernel, a, c_tail, z, 1.0), want, backend)

    def test_each_kernel_fills_every_slot_of_the_arrays_dsq_loop_returns(self, monkeypatch):
        # _dsq_loop allocates q, e and fb, the kernel overwrites every slot
        # (here prefilled with sentinels), and _dsq_loop returns those arrays
        rng = np.random.default_rng(5)
        ct = np.ascontiguousarray(np.array(design_yule_walker(12, 0.05).coeffs)[1:])
        a, z = rng.standard_normal(999), rng.uniform(-0.5, 0.5, 999)
        for backend, kernel in loop_kernels().items():
            passed = []

            def spy(*args, kernel=kernel):
                for out, sentinel in zip(args[6:], (Q_SENTINEL, F_SENTINEL, F_SENTINEL)):
                    out.fill(sentinel)
                passed.append(args[6:])
                kernel(*args)

            monkeypatch.setattr(codec, "_native_loop", lambda: spy)
            got = codec._dsq_loop(a, ct, z, 1.0)
            (outs,) = passed
            assert all(g is out for g, out in zip(got, outs)), backend
            assert_same_bits(got, _dsq_loop_py(a, ct, z, 1.0), backend)

    def test_indices_match_the_newest_first_order_at_k4_p48(self):
        # the partial-sum order moves each feedback sum by rounding only; on
        # this seeded block (2^16 loop samples) no index moves, and the
        # errors move by at most 1.3e-15 step here (bound 4e-15 step)
        d0, d1 = 0.2, 1.0
        filt = design_multiband(
            48, [np.pi / 4, 3 * np.pi / 4, np.pi], [1 / d0, math.sqrt(d0 * d1), 1 / d1]
        )
        cfg = make_config(step=math.sqrt(12 * 0.04), filt=filt, k=4, seed=31)
        x = np.random.default_rng(31).standard_normal(1 << 14)
        _, loop = encode(x, cfg)
        z = codec._dither_block(cfg, x.shape[0])
        q, e, fb = newest_first_loop(ideal_upsample(x, 4), np.array(filt.coeffs)[1:], z, cfg.quantizer.step)
        assert np.array_equal(loop.indices, q)
        assert np.abs(loop.quant_error - e).max() <= 4e-15 * cfg.quantizer.step
        assert np.abs(loop.feedback - fb).max() <= 4e-15 * cfg.quantizer.step


def use_stand_in_cc(monkeypatch, tmp_path):
    """Point CC at a compiler that rejects every source."""
    cc = tmp_path / "stand-in-cc"
    cc.write_text("#!/bin/sh\necho 'error: stand-in compiler' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("CC", str(cc))


# a half-band and a multiband design, each with a positive floor
DESIGNS = (
    (design_yule_walker, (24, 0.05)),
    (design_multiband, (24, [np.pi / 4, 3 * np.pi / 4, np.pi], [5.0, math.sqrt(0.2), 1.0])),
)


@pytest.fixture(scope="module")
def default_designs():
    """The DESIGNS as this process makes them, before any test breaks the
    compiled library: in double-double wherever it loads."""
    return [design(*args).coeffs for design, args in DESIGNS]


class TestLoopBackend:
    """Wherever the compiled library cannot be had, the generated loop kernel
    and the mpmath designs run instead, with the same bits, and the reason
    is logged once."""

    @pytest.fixture(autouse=True)
    def private_cache(self, monkeypatch, tmp_path, default_designs):
        # each test resolves the backend afresh, against its own directories
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        _native.library.cache_clear()
        yield
        _native.library.cache_clear()

    @pytest.fixture()
    def stand_in_cc(self, monkeypatch, tmp_path):
        use_stand_in_cc(monkeypatch, tmp_path)

    @staticmethod
    def assert_python_fallback(caplog, reason):
        rng = np.random.default_rng(17)
        ct = np.ascontiguousarray(np.array(design_yule_walker(12, 0.05).coeffs)[1:])
        a, z = rng.standard_normal(500), rng.uniform(-0.5, 0.5, 500)
        with caplog.at_level(logging.WARNING, logger="mdsigma._native"):
            for _ in range(2):
                assert_same_bits(codec._dsq_loop(a, ct, z, 1.0), _dsq_loop_py(a, ct, z, 1.0), reason)
            assert codec.loop_backend() == "python"
        (message,) = [r.getMessage() for r in caplog.records if r.name == "mdsigma._native"]
        assert reason in message

    @staticmethod
    def assert_mpmath_designs(mp_solves, default_designs):
        # each design runs the extended-precision recursion, and gives the
        # coefficients the double-double path gave
        for (design, args), want in zip(DESIGNS, default_designs):
            mp_solves.clear()
            assert design(*args).coeffs == want, design.__name__
            assert mp_solves == [args[0]], design.__name__

    def test_missing_compiler(self, monkeypatch, tmp_path, caplog, mp_solves, default_designs):
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        self.assert_python_fallback(caplog, "no C compiler found")
        self.assert_mpmath_designs(mp_solves, default_designs)

    def test_source_that_fails_to_compile(self, monkeypatch, tmp_path, caplog, mp_solves, default_designs):
        if _native._compiler() is None:
            use_stand_in_cc(monkeypatch, tmp_path)
        monkeypatch.setattr(_native, "SOURCE", _native.SOURCE + "\n#error broken on purpose\n")
        self.assert_python_fallback(caplog, "exited with 1")
        self.assert_mpmath_designs(mp_solves, default_designs)

    @pytest.mark.parametrize("how", ["under-a-file", "shared"])
    def test_unwritable_cache_directories(self, how, monkeypatch, tmp_path, stand_in_cc, caplog):
        if how == "under-a-file":
            blocker = tmp_path / "a-file"
            blocker.write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
            monkeypatch.setattr(tempfile, "tempdir", str(blocker / "tmp"))
        else:  # anyone may write there, so a library there is not loaded
            for base in ("xdg", "tmp"):
                (tmp_path / base / "mdsigma").mkdir(parents=True)
                (tmp_path / base / "mdsigma").chmod(0o777)
        self.assert_python_fallback(caplog, "no writable cache directory")

    def test_truncated_cached_library(self, tmp_path, stand_in_cc, caplog):
        lib = tmp_path / "xdg" / "mdsigma" / _native._library_name(_native._compiler())
        lib.parent.mkdir(parents=True)
        lib.write_bytes(b"\x7fELF\x02\x01\x01")  # an ELF header cut short
        self.assert_python_fallback(caplog, "cannot load")

    def test_temp_dir_serves_when_the_cache_home_cannot_be_written(self, monkeypatch, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
        has_cc = _native._compiler() is not None
        assert codec.loop_backend() == ("c" if has_cc else "python")
        assert len(list((tmp_path / "tmp" / "mdsigma").glob("mdsigma-native-*.so"))) == has_cc

    def test_cache_hit_starts_no_process(self, monkeypatch):
        backend = codec.loop_backend()  # builds where a compiler is found
        _native.library.cache_clear()

        def no_process(*args, **kwargs):
            raise AssertionError("a cache hit started a process")

        monkeypatch.setattr(subprocess, "run", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        assert codec.loop_backend() == backend


def build_without_a_warning(tmp_path, *flags):
    """Path of the source built with the library's own flags, then
    ``flags``, under -Wall -Wextra -Werror; None, with the library checked
    absent, where no compiler is found."""
    cc = _native._compiler()
    if cc is None:
        assert _native.library() is None
        return None
    src, lib = tmp_path / "native.c", tmp_path / "native.so"
    src.write_text(_native.SOURCE, encoding="utf-8")
    argv = [*cc, *_native.CC_FLAGS, *flags, "-Wall", "-Wextra", "-Werror", "-o", str(lib), str(src)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return str(lib)


def test_native_source_compiles_without_a_warning(tmp_path):
    # a static helper that no kernel calls any more fails here, not only in CI
    build_without_a_warning(tmp_path)


def double_double_outputs(lib):
    """Every output of the double-double kernels of ``lib`` on a small
    seeded grid: the multiband lags, the updated iterate with its residual,
    and the step-down's report."""
    rng = np.random.default_rng(38)
    outputs = []
    for p in (1, 5, 16, 48, MAX_ORDER):
        for edges in ((np.pi / 4, 3 * np.pi / 4, np.pi), (np.pi / 3, 0.9 * np.pi)):
            n = len(edges)
            w_hi = 10.0 ** rng.uniform(-3.0, 3.0, n)
            w = np.array([w_hi, w_hi * rng.uniform(-(2.0**-54), 2.0**-54, n)])
            out = np.empty((3, p + 1))
            lib.multiband_lags_dd(w, shaping._band_basis(p, edges), n, p, out)
            outputs.append(out)
        # the half-band lags, an iterate and a nonzero step
        r = shaping._half_band_lags(p)[1]
        a_hi = np.concatenate(([1.0], rng.standard_normal(p)))
        a = np.array([a_hi, np.concatenate(([0.0], a_hi[1:] * rng.uniform(-(2.0**-54), 2.0**-54, p)))])
        out = np.empty((3, p))
        lib.toeplitz_residual_dd(r, a, 1e-3 * rng.standard_normal(p), p, out)
        outputs += [a, out]
        # zeros well inside the unit circle, so every step runs
        c = np.concatenate(([1.0], rng.uniform(-1.0, 1.0, p) * 0.5 ** np.arange(1, p + 1)))
        out = np.zeros((3, p))
        steps = lib.stepdown_dd(c, p, 2.0**-200, out)
        assert steps == p
        outputs.append(out)
    return outputs


@pytest.mark.parametrize("opt", [("-O0",), ("-O3", "-march=native")], ids=["O0", "O3-native"])
def test_kernel_bits_do_not_depend_on_the_optimizer(tmp_path, opt):
    # the source fixes every rounding, so neither the optimization level nor
    # the vector unit of the build machine moves a bit; double-double
    # arithmetic needs every rounding where the source puts it, so those
    # kernels lean on -ffp-contract=off more than the loop does
    lib = build_without_a_warning(tmp_path, *opt)
    if lib is None:
        return
    built = _native._bind(lib)
    for i, (got, want) in enumerate(zip(double_double_outputs(built), double_double_outputs(_native.library()))):
        assert got.tobytes() == want.tobytes(), (opt, i)
    kernel = built.dsq_loop
    rng = np.random.default_rng(2024)
    for p in (0, 1, 5, 48, 128):
        ct = rng.uniform(-1.0, 1.0, p)
        for n in sorted({0, 1, max(p - 1, 0), p, p + 1, 4099}):
            a, z = 10.0 * rng.standard_normal(n), rng.uniform(-0.185, 0.185, n)
            want = _dsq_loop_py(a, ct, z, 0.37)
            assert_same_bits(run_kernel(kernel, a, ct, z, 0.37), want, (opt, p, n))


# ---------------------------------------------------------------------------
# noiseless chains (tiny quantizer cell)
# ---------------------------------------------------------------------------


class TestNoiselessChains:
    def test_central_reconstructs_white_source(self):
        cfg = make_config(step=1e-6)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(1 << 14)
        packets, _ = encode(x, cfg)
        assert reconstruction_mse(decode(packets, cfg), x, cfg.guard) <= 1e-10

    def test_even_side_reconstructs(self):
        cfg = make_config(step=1e-6)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(1 << 14)
        packets, _ = encode(x, cfg)
        assert reconstruction_mse(decode([packets[0]], cfg), x, cfg.guard) <= 1e-6

    def test_odd_side_reconstructs(self):
        # the odd stream carries no sample of the base Nyquist line, so one
        # DFT bin of a white source is unrecoverable: an O(sigma^2/N) floor
        cfg = make_config(step=1e-6)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(1 << 18)
        packets, _ = encode(x, cfg)
        assert reconstruction_mse(decode([packets[1]], cfg), x, cfg.guard) <= 1e-6

    def test_k4_all_patterns(self):
        cfg = make_config(step=1e-6, k=4)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1 << 18)
        packets, _ = encode(x, cfg)
        assert reconstruction_mse(decode(packets, cfg), x, cfg.guard) <= 1e-10
        assert reconstruction_mse(decode([packets[0], packets[2]], cfg), x, cfg.guard) <= 1e-10
        assert reconstruction_mse(decode([packets[3], packets[1]], cfg), x, cfg.guard) <= 1e-6
        for j in range(4):
            assert reconstruction_mse(decode([packets[j]], cfg), x, cfg.guard) <= 1e-6

    @pytest.mark.parametrize("k,phases", UNIFORM_SUBSETS)
    def test_every_subset_passes_a_bandlimited_source(self, monkeypatch, k, phases):
        # with no energy at the band edge, every subset recovers the source
        # exactly, so only the white cell noise of the m received streams,
        # lowpassed to the source band, is left: step^2/(12 m); a wrong
        # delay leaves an O(1) error instead.  At this step the K=2 Wiener
        # gain, 1/(1 + P step^2/12) with P <= 1, rounds to 1.0
        step = 1e-9
        monkeypatch.setattr(DitherStream, "draw", lambda self, n: np.zeros(n))
        cfg = make_config(step=step, filt=ShapingFilter((1.0,)), k=k)
        x = bandlimited_noise(np.random.default_rng(14), 1 << 12, cutoff=0.9 * np.pi)
        packets, _ = encode(x, cfg)
        decoded = decode([packets[j] for j in phases], cfg)
        ratio = reconstruction_mse(decoded, x, cfg.guard) / (step**2 / (12 * len(phases)))
        assert ratio == pytest.approx(1.0, rel=0.1)

    def test_all_zero_indices_decode_to_zero(self, monkeypatch):
        monkeypatch.setattr(DitherStream, "draw", lambda self, n: np.zeros(n))
        cfg = make_config()
        x = np.zeros(512)
        packets, _ = encode(x, cfg)
        assert all(np.all(p.indices == 0) for p in packets)
        out = decode(packets, cfg)
        assert np.all(out == 0.0)


# ---------------------------------------------------------------------------
# decoder contracts
# ---------------------------------------------------------------------------


class TestDecoderContracts:
    @pytest.mark.parametrize("variance", [math.inf, math.nan, 0.0, -1.0, True], ids=repr)
    def test_config_rejects_a_source_variance_that_is_not_positive_and_finite(self, variance):
        # an infinite one used to build, and a K=2 decode gave NaN blocks
        with pytest.raises(ValueError, match=r"^source variance must be positive and finite, got "):
            dataclasses.replace(make_config(), source_variance=variance)

    @pytest.mark.parametrize("phases", [(0, 1, 2), (0, 1, 3), (0, 0), (), (5,)], ids=str)
    def test_rejects_non_uniform_subsets(self, phases):
        import dataclasses

        cfg = make_config(k=4)
        packets, _ = encode(np.zeros(64), cfg)
        chosen = [dataclasses.replace(packets[0], phase=j) for j in phases]
        with pytest.raises(ValueError, match="not a uniform subset of 0..3"):
            decode(chosen, cfg)

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("k,phases", UNIFORM_SUBSETS)
    def test_rejects_empty_or_odd_index_counts_before_any_fft(self, monkeypatch, k, phases, n):
        def fft_must_not_run(*args, **kwargs):
            raise AssertionError("an FFT ran on a bad index count")

        monkeypatch.setattr(np.fft, "rfft", fft_must_not_run)
        cfg = make_config(k=k)
        packets = [DescriptionPacket(np.zeros(n, dtype=np.int64), cfg.dither_seed, j) for j in phases]
        with pytest.raises(ValueError, match=f"index count must be even and nonzero, got {n}"):
            decode(packets, cfg)

    def test_side_rejects_unknown_phase(self):
        cfg = make_config()
        packets, _ = encode(np.zeros(64), cfg)
        import dataclasses

        bad = dataclasses.replace(packets[0], phase=5)
        with pytest.raises(ValueError, match="not a uniform subset of 0..1"):
            decode([bad], cfg)

    def test_subset_rejects_nonuniform_pairs(self):
        cfg = make_config(k=4)
        packets, _ = encode(np.zeros(64), cfg)
        with pytest.raises(ValueError, match="not a uniform subset of 0..3"):
            decode([packets[0], packets[1]], cfg)

    def test_rejects_packets_of_different_lengths(self):
        cfg = make_config()
        short, _ = encode(np.zeros(128), cfg)
        long, _ = encode(np.zeros(256), cfg)
        with pytest.raises(ValueError, match="disagree on the index count"):
            decode([short[0], long[1]], cfg)

    def test_central_rejects_mixed_seeds(self):
        cfg = make_config()
        packets, _ = encode(np.zeros(64), cfg)
        import dataclasses

        bad = dataclasses.replace(packets[1], dither_seed=packets[1].dither_seed + 1)
        with pytest.raises(ValueError, match="dither seed"):
            decode([packets[0], bad], cfg)

    def test_subset_rejects_mixed_seeds(self):
        cfg = make_config(filt=design_yule_walker(16, 0.05), k=4)
        packets, _ = encode(np.random.default_rng(8).standard_normal(1 << 10), cfg)
        bad = DescriptionPacket(packets[2].indices, 999, 2)
        with pytest.raises(ValueError, match="packets disagree on the dither seed"):
            decode([packets[0], bad], cfg)

    @pytest.mark.parametrize(
        "indices, seed, phase, message",
        [
            pytest.param([1.5, 2.7], 7, 0, "integer dtype", id="float-indices"),
            pytest.param(np.array([np.nan, 1.0]), 7, 0, "integer dtype", id="nan-indices"),
            pytest.param(np.array([True, False]), 7, 0, "integer dtype", id="bool-indices"),
            pytest.param(np.array(["1", "2"]), 7, 0, "integer dtype", id="str-indices"),
            pytest.param(np.zeros(2, dtype=np.int64), 1.5, 0, "seed must be a non-negative integer", id="float-seed"),
            pytest.param(np.zeros(2, dtype=np.int64), 2.0, 0, "seed must be a non-negative integer", id="integral-float-seed"),
            pytest.param(np.zeros(2, dtype=np.int64), -1, 0, "seed must be a non-negative integer", id="negative-seed"),
            pytest.param(np.zeros(2, dtype=np.int64), True, 0, "seed must be a non-negative integer", id="bool-seed"),
            pytest.param(np.zeros(2, dtype=np.int64), "7", 0, "seed must be a non-negative integer", id="str-seed"),
            pytest.param(np.zeros(2, dtype=np.int64), 7, 0.5, "phase must be a non-negative integer", id="float-phase"),
            pytest.param(np.zeros(2, dtype=np.int64), 7, 1.0, "phase must be a non-negative integer", id="integral-float-phase"),
            pytest.param(np.zeros(2, dtype=np.int64), 7, -1, "phase must be a non-negative integer", id="negative-phase"),
            pytest.param(np.zeros(2, dtype=np.int64), 7, True, "phase must be a non-negative integer", id="bool-phase"),
            pytest.param(np.zeros(2, dtype=np.int64), 7, "1", "phase must be a non-negative integer", id="str-phase"),
        ],
    )
    def test_packet_rejects_non_integer_indices_or_seed(self, indices, seed, phase, message):
        with pytest.raises(ValueError, match=message):
            DescriptionPacket(indices, seed, phase)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), ()], ids=str)
    def test_packet_rejects_indices_that_are_not_one_dimensional(self, decoder_calls, shape):
        cfg = make_config()
        with pytest.raises(ValueError, match=r"indices must be one-dimensional, got shape \(.*\)"):
            decode([DescriptionPacket(np.zeros(shape, dtype=np.int64), 5, 0)], cfg)
        assert decoder_calls == {"rfft": 0, "draw": 0}

    def test_packet_takes_any_integer_dtype_and_seed_type(self):
        pkt = DescriptionPacket(np.array([-3, 4], dtype=np.int16), np.uint64(2**63 + 1), np.int32(1))
        assert pkt.indices.dtype == np.int64 and pkt.indices.tolist() == [-3, 4]
        assert pkt.dither_seed == 2**63 + 1
        assert pkt.phase == 1

    def test_packet_rejects_unsigned_indices_past_int64(self, decoder_calls):
        cfg = make_config()
        big = np.array([2**63, 1], dtype=np.uint64)
        with pytest.raises(ValueError, match="indices must fit in int64, got 9223372036854775808"):
            decode([DescriptionPacket(big, cfg.dither_seed, 0)], cfg)
        assert decoder_calls == {"rfft": 0, "draw": 0}
        top = DescriptionPacket(np.array([2**63 - 1, 0], dtype=np.uint64), 0, 0)
        assert top.indices.dtype == np.int64 and top.indices.tolist() == [2**63 - 1, 0]
        assert DescriptionPacket(np.array([], dtype=np.uint64), 0, 0).indices.shape == (0,)

    @pytest.mark.parametrize("index", [2**62, -(2**63)], ids=["2^62", "-2^63"])
    def test_a_step_past_the_cell_rule_fails_before_any_draw_or_fft(self, decoder_calls, index):
        # step * index used to lie past float64's range and decode to NaN:
        # now the step fails at QuantizerSpec, before a config exists, and
        # the same indices decode to finite values at the largest step
        packets = [DescriptionPacket(np.array([index, 0, 0, 0]), 0, j) for j in (0, 1)]
        with pytest.raises(ValueError, match=r"^step 1e\+300 is past sqrt\(DBL_MAX\)"):
            decode(packets, make_config(step=1e300))
        assert decoder_calls == {"rfft": 0, "draw": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for step in (1.0, TOP_STEP):
                assert np.isfinite(decode(packets, make_config(step=step))).all()

    @pytest.mark.parametrize("phases", [(1,), (0, 1)], ids=["odd", "central"])
    def test_fft_sums_stay_finite_at_the_largest_step(self, decoder_calls, phases):
        # step * index = 1.5e308 used to overflow the FFTs' unnormalized
        # sums; at the largest step the same indices decode to finite values
        packets = [DescriptionPacket(np.array([150_000_000, 0, 0, 0]), 0, j) for j in phases]
        with pytest.raises(ValueError, match=r"^step 1e\+300 is past sqrt\(DBL_MAX\)"):
            decode(packets, make_config(step=1e300))
        assert decoder_calls == {"rfft": 0, "draw": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(decode(packets, make_config(step=TOP_STEP))).all()
        assert decoder_calls == {"rfft": 1, "draw": len(phases)}

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("n", [2, 64, 1024])
    def test_extreme_indices_at_the_largest_step_decode_to_finite_values(self, k, n):
        # int64's extreme indices signed as the delay's interpolation kernel,
        # so that a delayed description peaks at its largest, at the largest
        # step the cell rule admits: every subset decodes to finite values,
        # and the next step up fails at QuantizerSpec
        t = np.arange(n)
        impulse = np.zeros(n)
        impulse[0] = 1.0
        kernel = np.fft.irfft(np.fft.rfft(impulse) * np.exp(-1j * np.pi * np.arange(n // 2 + 1) / n), n)
        indices = np.where(kernel[-t % n] < 0, -(2**63), 2**63 - 1)
        indices[np.flatnonzero(indices < 0)[-1:]] = -(2**63 - 1)
        packets = [DescriptionPacket(indices, 3, j) for j in range(k)]
        subsets = [list(range(j, k, s)) for s in (1, 2, 4)[: k.bit_length()] for j in range(s)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            blocks = decode_subsets(packets, make_config(step=TOP_STEP, k=k), subsets)
        assert len(blocks) == 2 * k - 1 and all(np.isfinite(b).all() for b in blocks)
        with pytest.raises(ValueError, match=r"is past sqrt\(DBL_MAX\)"):
            make_config(step=math.nextafter(TOP_STEP, math.inf), k=k)

    def test_numpy_integer_phases_decode_as_python_ones(self):
        cfg = make_config(k=4)
        packets, _ = encode(np.random.default_rng(9).standard_normal(256), cfg)
        numpy_phases = [dataclasses.replace(p, phase=np.int64(p.phase)) for p in packets]
        for phases in [(0, 1, 2, 3), (1, 3), (2,)]:
            expected = decode([packets[j] for j in phases], cfg)
            got = decode([numpy_phases[j] for j in phases], cfg)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("margin", [0, 5, np.int64(31)], ids=str)
    def test_mse_covers_the_samples_inside_the_margin(self, margin):
        rng = np.random.default_rng(24)
        y, ref = rng.standard_normal(64), rng.standard_normal(64)
        expected = np.mean((y - ref)[margin : 64 - margin] ** 2)
        assert reconstruction_mse(y, ref, margin) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "margin, message",
        [
            pytest.param(-1, "margin must be a non-negative integer", id="negative"),
            pytest.param(2.0, "margin must be a non-negative integer", id="float"),
            pytest.param(True, "margin must be a non-negative integer", id="bool"),
            pytest.param(32, "no interior samples left", id="no-interior"),
        ],
    )
    def test_mse_rejects_a_bad_margin(self, margin, message):
        y = np.zeros(64)
        with pytest.raises(ValueError, match=message):
            reconstruction_mse(y, y, margin)

    @pytest.mark.parametrize("shape", [(62,), (66,), (64, 1), (1, 64)], ids=str)
    def test_mse_rejects_a_shape_mismatch(self, shape):
        with pytest.raises(ValueError, match="shape mismatch"):
            reconstruction_mse(np.zeros(64), np.zeros(shape), 2)

    def test_packet_shape(self):
        cfg = make_config(k=4)
        packets, _ = encode(np.zeros(256), cfg)
        assert len(packets) == 4
        assert all(p.indices.shape == (256,) for p in packets)
        assert {p.phase for p in packets} == {0, 1, 2, 3}
        assert len({p.dither_seed for p in packets}) == 1


class TestEncoderMemory:
    """encode holds each oversampled signal once: the loop lets go of the
    upsampled block and the dither, and the packets view its indices."""

    @pytest.mark.parametrize("k", [2, 4])
    def test_encode_peaks_at_the_loop_results_five_arrays(self, loop_kernel, k):
        n = 1 << 16
        peak = traced_peak(encode, np.random.default_rng(31).standard_normal(n), make_config(k=k))
        assert peak <= (ENCODE_PEAK_ARRAYS * k + 0.1) * n * 8, (loop_kernel, peak / (8 * n))

    @pytest.mark.parametrize("k", [2, 4])
    def test_packets_are_read_only_views_of_the_loop_indices(self, k):
        packets, loop = encode(np.random.default_rng(32).standard_normal(256), make_config(k=k))
        assert not loop.indices.flags.writeable
        for j, pkt in enumerate(packets):
            assert np.shares_memory(pkt.indices, loop.indices)
            assert not pkt.indices.flags.writeable
            assert pkt.indices.dtype == np.int64 and np.array_equal(pkt.indices, loop.indices[j::k])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_a_packet_views_int64_indices_without_freezing_the_callers_array(self, stride):
        caller = np.arange(8, dtype=np.int64)[::stride]
        pkt = DescriptionPacket(caller, 0, 0)
        assert caller.flags.writeable and not pkt.indices.flags.writeable
        assert np.shares_memory(pkt.indices, caller) and pkt.indices is not caller
        caller[0] = 9
        assert pkt.indices[0] == 9


# ---------------------------------------------------------------------------
# shared-spectrum decoder
# ---------------------------------------------------------------------------


def _spectral_sum_reference(chosen, cfg):
    """The decoder's spectral formula for one subset: every packet's dither
    and spectrum recomputed for this subset alone, phase-twiddled with
    np.exp, averaged in the subset's order with the band-edge bin doubled,
    and inverted with one length-n irfft."""
    k, step = cfg.oversampling, cfg.quantizer.step
    n = chosen[0].indices.shape[0]
    bins = np.arange(n // 2 + 1)
    band = np.zeros(n // 2 + 1, dtype=np.complex128)
    for pkt in chosen:
        z = DitherStream(pkt.dither_seed, step, pkt.phase).draw(n)
        samples = step * pkt.indices.astype(np.float64) - z
        band += np.fft.rfft(samples) * np.exp(bins * (-2j * np.pi * (pkt.phase / k) / n))
    band /= len(chosen)
    if len(chosen) > 1:
        band[-1] *= 2.0
    return codec._multiplier(cfg, k // len(chosen)) * np.fft.irfft(band, n)


def _subsets_of(k):
    """Every uniform subset for K = k, then two in a different order."""
    subsets = [p.values[1] for p in UNIFORM_SUBSETS if p.values[0] == k]
    return [*subsets, tuple(reversed(subsets[0])), tuple(reversed(subsets[1]))]


class TestSharedDecoder:
    @pytest.mark.parametrize("override", [False, True], ids=["seeded-dither", "override-dither"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_every_block_matches_the_spectral_sum_reference_within_4_eps(self, monkeypatch, k, override):
        # the decoder sums per-description reconstructions, not spectra, so
        # it agrees with the spectral formula to rounding: at most 1.5 eps
        # of the block's peak here
        cfg = make_config(k=k)
        rng = np.random.default_rng(21)
        x = rng.standard_normal(1 << 12)
        if override:
            share_dither(monkeypatch, rng.uniform(-cfg.quantizer.step / 2, cfg.quantizer.step / 2, k << 12), k)
        packets, _ = encode(x, cfg)
        subsets = _subsets_of(k)
        blocks = decode_subsets(packets, cfg, subsets)
        assert len(blocks) == len(subsets)
        for phases, block in zip(subsets, blocks):
            chosen = [packets[j] for j in phases]
            ref = _spectral_sum_reference(chosen, cfg)
            assert np.abs(block - ref).max() <= 4 * EPS * np.abs(ref).max(), phases
            assert block.tobytes() == decode(chosen, cfg).tobytes(), phases

    def test_each_spectrum_is_formed_once(self, decoder_calls):
        cfg = make_config(k=4)
        packets, _ = encode(np.random.default_rng(22).standard_normal(256), cfg)
        decoder_calls.update(rfft=0, draw=0)
        decode_subsets(packets, cfg, [(0, 2), (2,), (0,), (3, 1), (0, 1, 2, 3)])
        # phase 0 is not delayed, so it needs no FFT
        assert decoder_calls == {"rfft": 3, "draw": 4}

    @pytest.mark.parametrize("override", [False, True], ids=["seeded-dither", "override-dither"])
    def test_phase_0_matches_the_fft_round_trip_within_a_few_eps(self, monkeypatch, override):
        # phase 0 skips rfft and irfft: its block is step*index - dither
        # itself and its edge term the alternating sum of the samples
        cfg = make_config(k=4)
        rng = np.random.default_rng(24)
        if override:
            share_dither(monkeypatch, rng.uniform(-cfg.quantizer.step / 2, cfg.quantizer.step / 2, 4 << 12), 4)
        packets, _ = encode(rng.standard_normal(1 << 12), cfg)
        block, edge = codec._reconstruction(packets[0], cfg)
        z0 = DitherStream(cfg.dither_seed, cfg.quantizer.step, 0).draw(1 << 12)
        samples = cfg.quantizer.step * packets[0].indices - z0
        spec = np.fft.rfft(samples)
        peak = np.abs(samples).max()
        assert np.abs(block - np.fft.irfft(spec, 1 << 12)).max() <= 4 * EPS * peak
        assert abs(edge - spec[-1].real) <= 4 * EPS * np.abs(samples).sum()

    def test_blocks_are_frozen_fresh_arrays(self):
        # each block owns its memory, so freezing it in place freezes no
        # reconstruction another block was summed from
        cfg = make_config(k=4)
        packets, _ = encode(np.random.default_rng(23).standard_normal(256), cfg)
        blocks = decode_subsets(packets, cfg, [(0,), (0, 2), (0, 1, 2, 3), (0,)])
        assert type(blocks) is list and len(blocks) == 4
        for block in blocks:
            assert type(block) is np.ndarray and block.dtype == np.float64 and block.shape == (256,)
            assert not block.flags.writeable and block.flags.owndata
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 1.0
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert not np.shares_memory(a, b)
        assert blocks[0].tobytes() == blocks[3].tobytes()

    def test_no_subsets_yield_nothing(self):
        cfg = make_config()
        packets, _ = encode(np.zeros(64), cfg)
        assert decode_subsets(packets, cfg, []) == []

    @pytest.mark.parametrize(
        "case, message",
        [
            ("non-uniform", "not a uniform subset of 0..3"),
            ("repeated-phase-in-subset", "not a uniform subset of 0..3"),
            ("mixed-seeds", "packets disagree on the dither seed"),
            ("odd-count", "index count must be even and nonzero, got 3"),
            ("unequal-counts", "packets disagree on the index count"),
            ("repeated-received-phase", "received packets repeat phase 1"),
            ("not-received", "phases \\[3\\] were not received"),
        ],
    )
    def test_one_bad_subset_fails_before_any_draw_or_fft(self, decoder_calls, case, message):
        cfg = make_config(k=4)
        packets, _ = encode(np.zeros(64), cfg)
        good = [(0, 2), (2,), (0,)]
        subsets = [*good, (1, 3)]
        if case == "non-uniform":
            subsets = [*good, (0, 1)]
        elif case == "repeated-phase-in-subset":
            subsets = [*good, (2, 2)]
        elif case == "mixed-seeds":
            packets[3] = dataclasses.replace(packets[3], dither_seed=packets[3].dither_seed + 1)
        elif case == "odd-count":
            packets[1] = DescriptionPacket(np.zeros(3, dtype=np.int64), cfg.dither_seed, 1)
            packets[3] = DescriptionPacket(np.zeros(3, dtype=np.int64), cfg.dither_seed, 3)
        elif case == "unequal-counts":
            packets[3] = DescriptionPacket(np.zeros(62, dtype=np.int64), cfg.dither_seed, 3)
        elif case == "repeated-received-phase":
            packets.append(packets[1])
        elif case == "not-received":
            packets, subsets = packets[:3], [*good, (3,)]
        decoder_calls.update(rfft=0, draw=0)
        with pytest.raises(ValueError, match=message):
            decode_subsets(packets, cfg, subsets)
        assert decoder_calls == {"rfft": 0, "draw": 0}


# ---------------------------------------------------------------------------
# statistical behavior
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_d4():
    lam_filt = design_yule_walker(16, 0.0635)  # ratio near 17
    cfg = make_config(filt=lam_filt, seed=21)
    rng = np.random.default_rng(20)
    x = rng.standard_normal(1 << 18)
    packets, loop = encode(x, cfg)
    return cfg, x, packets, loop


class TestCodecStatistics:
    def test_monte_carlo_matches_closed_forms(self, run_d4):
        cfg, x, packets, _ = run_d4
        sx2, se2 = 1.0, cfg.quantizer.noise_variance
        dc, ds = (
            sx2 * se2 * p / (sx2 + se2 * p)
            for p in (pattern_noise_power(cfg, 1), pattern_noise_power(cfg, 2))
        )
        mse_c = reconstruction_mse(decode(packets, cfg), x, cfg.guard)
        mse_e = reconstruction_mse(decode([packets[0]], cfg), x, cfg.guard)
        mse_o = reconstruction_mse(decode([packets[1]], cfg), x, cfg.guard)
        assert mse_c == pytest.approx(dc, rel=0.03)
        assert mse_e == pytest.approx(ds, rel=0.03)
        assert mse_o == pytest.approx(ds, rel=0.03)
        assert mse_c <= mse_e and mse_c <= mse_o

    def test_premultiplier_second_moments(self, run_d4):
        # the scaling factors are exact conditional-mean coefficients:
        # E[X u] = sx2 and E[u^2] = sx2 + se2*P for the raw reconstructions
        cfg, x, packets, _ = run_d4
        pdc, pds = filter_powers(cfg.filter)
        se2 = cfg.quantizer.noise_variance
        g = cfg.guard
        for pkt, power in ((packets[0], pds), (packets[1], pds)):
            u = (decode([pkt], cfg) / codec._multiplier(cfg, 2))[g:-g]
            assert float(np.mean(u * x[g:-g])) == pytest.approx(1.0, rel=0.01)
            assert float(np.mean(u * u)) == pytest.approx(1.0 + se2 * power, rel=0.01)
        uc = (decode(packets, cfg) / codec._multiplier(cfg, 1))[g:-g]
        assert float(np.mean(uc * x[g:-g])) == pytest.approx(1.0, rel=0.01)
        assert float(np.mean(uc * uc)) == pytest.approx(1.0 + se2 * pdc, rel=0.01)

    def test_erasure_symmetry(self, run_d4):
        cfg, x, packets, _ = run_d4
        n = 10**5
        err_e = (decode([packets[0]], cfg) - x)[cfg.guard : cfg.guard + n]
        err_o = (decode([packets[1]], cfg) - x)[cfg.guard : cfg.guard + n]
        assert ks_2samp(err_e, err_o).statistic <= 0.01

    def test_scale_equivariance(self):
        filt = design_yule_walker(8, 0.1)
        rng = np.random.default_rng(30)
        x = rng.standard_normal(1 << 15)
        scale = 3.0
        cfg1 = make_config(filt=filt, seed=77)
        cfg3 = make_config(filt=filt, seed=77, step=STEP_001 * scale)
        cfg3 = CodecConfig(
            source_variance=scale**2,
            quantizer=cfg3.quantizer,
            filter=filt,
            oversampling=2,
            dither_seed=77,
        )
        p1, _ = encode(x, cfg1)
        p3, _ = encode(scale * x, cfg3)
        for a, b in zip(p1, p3):
            assert np.array_equal(a.indices, b.indices)
        for phases in ((0, 1), (0,), (1,)):
            d1 = decode([p1[j] for j in phases], cfg1)
            d3 = decode([p3[j] for j in phases], cfg3)
            m1 = reconstruction_mse(d1, x, cfg1.guard)
            m3 = reconstruction_mse(d3, scale * x, cfg3.guard)
            assert m3 / m1 == pytest.approx(scale**2, rel=1e-6)

    def test_central_not_worse_than_side_across_deltas(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal(1 << 15)
        for lam in (0.02, 0.2, 2.0):
            cfg = make_config(filt=design_yule_walker(12, lam), seed=5)
            packets, _ = encode(x, cfg)
            mse_c = reconstruction_mse(decode(packets, cfg), x, cfg.guard)
            mse_s = reconstruction_mse(decode([packets[0]], cfg), x, cfg.guard)
            assert mse_c <= mse_s
