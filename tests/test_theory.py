"""Closed-form oracles: bounds, operating points, rate and Wiener gain, K=4."""

import math

import mpmath as mp
import numpy as np
import pytest

from mdsigma.codec import CodecConfig, pattern_noise_power
from mdsigma.ecdq import QuantizerSpec
from mdsigma.shaping import ShapingFilter
from mdsigma.theory import (
    K4Spec,
    brickwall_point,
    k4_point,
    ozarow_bounds,
    wiener_gain,
)


def shrunk_mse(power, sigma_e2, sigma_x2=1.0):
    """Wiener-shrunk distortion sx2*se2*P/(sx2 + se2*P) of noise power P."""
    return sigma_x2 * sigma_e2 * power / (sigma_x2 + sigma_e2 * power)


class TestOzarowBounds:
    def test_side_floor(self):
        with pytest.raises(ValueError, match="side distortion infeasible"):
            ozarow_bounds(1.0, 0.2499, 1.0)
        # exactly at the floor is feasible
        ozarow_bounds(1.0, 0.25, 1.0)

    def test_hand_evaluated_point(self):
        # f = d = 1/4 at the corner: (1/16) / ((1/4)(7/4)) = 1/7
        assert ozarow_bounds(1.0, 0.25, 1.0) == pytest.approx(1.0 / 7.0, abs=1e-14)

    def test_matches_brickwall_central(self):
        pt = brickwall_point(4.0, 0.01, 1.0)
        assert ozarow_bounds(pt.rate_bits, pt.ds, 1.0) == pytest.approx(0.0012484394506866417, rel=1e-10)

    def test_matches_80_digit_evaluation_to_4_ulps(self):
        # on the same float f = 2^(-2R) and d = d_s, from just above the
        # side floor to just inside the degenerate edge d = (1 + f^2)/2;
        # the forms 1 - (1 - d - t)^2, at high rates, and d^2 - f^2, near
        # the floor, cancel here
        worst = 0.0
        with mp.workdps(80):
            for rate in np.linspace(0.1, 60.0, 40):
                rate = float(rate)
                f = 2.0 ** (-2.0 * rate)
                for d in np.geomspace(f * (1.0 + 1e-12), 0.5 * (1.0 + f * f) * (1.0 - 1e-9), 25):
                    d = float(d)
                    fm, dm = mp.mpf(f), mp.mpf(d)
                    s = dm + mp.sqrt((dm - fm) * (dm + fm))
                    exact = fm * fm / (s * (2 - s))
                    worst = max(worst, float(abs(ozarow_bounds(rate, d, 1.0) / exact - 1)))
        assert worst <= 4 * 2.0**-52

    def test_degenerate_region_rejected(self):
        # large ds, high rate: Pi < Delta
        with pytest.raises(ValueError, match="degenerate region"):
            ozarow_bounds(3.0, 0.9, 1.0)

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            ozarow_bounds(0.0, 0.1, 1.0)

    @pytest.mark.parametrize(
        "args", [(math.inf, 0.1, 1.0), (1.0, math.nan, 1.0), (1.0, math.inf, 1.0), (1.0, 0.25, math.inf)]
    )
    def test_non_finite_input_rejected(self, args):
        # these used to give a NaN bound, or a zero one at an infinite rate
        with pytest.raises(ValueError, match="must be finite"):
            ozarow_bounds(*args)

    def test_high_resolution_bound_meets_brickwall_central(self):
        # 1 - (1 - d - t)^2 cancelled to 0 in float64 here, which raised
        pt = brickwall_point(4.0, 1e-20, 1.0)
        assert ozarow_bounds(pt.rate_bits, pt.ds, 1.0) == pytest.approx(pt.dc, rel=1e-12)

    def test_bound_that_underflows_rejected(self):
        # sx2*2^(-4R) below the smallest normal double; at rate 600 and
        # ds = 0 the denominator is an exact 0
        pt = brickwall_point(4.0, 1e-200, 1.0)
        with pytest.raises(ValueError, match="central bound underflows float64"):
            ozarow_bounds(pt.rate_bits, pt.ds, 1.0)
        with pytest.raises(ValueError, match="central bound underflows float64"):
            ozarow_bounds(600.0, 0.0, 1.0)


class TestBrickwallPoint:
    def test_reference_point(self):
        pt = brickwall_point(4.0, 0.01, 1.0)
        assert pt.rate_bits == pytest.approx(3.3370961340728416, abs=1e-12)
        assert pt.dc == pytest.approx(0.0012484394506866417, rel=1e-12)
        assert pt.ds == pytest.approx(0.020807833537331705, rel=1e-12)
        assert pt.pdc == pytest.approx(0.125) and pt.pds == pytest.approx(2.125)

    def test_white_delta_collapses_to_power_form(self):
        pt = brickwall_point(1.0, 0.04, 2.0)
        assert pt.dc == pytest.approx(shrunk_mse(0.5, 0.04, 2.0), rel=1e-14)
        assert pt.ds == pytest.approx(shrunk_mse(1.0, 0.04, 2.0), rel=1e-14)
        assert pt.rate_bits == pytest.approx(0.5 * math.log2((2.0 + 0.04) / 0.04), rel=1e-14)

    def test_high_resolution_distortion_product(self):
        # d_c * d_s -> (sx^4/4) * (1/(1-dc/ds)) * 2^-4R as the noise vanishes
        pt = brickwall_point(4.0, 1e-6, 1.0)
        ref = 0.25 / (1.0 - pt.dc / pt.ds) * 2.0 ** (-4.0 * pt.rate_bits)
        assert pt.dc * pt.ds / ref == pytest.approx(1.0, abs=1e-4)

    def test_multipliers(self):
        pt = brickwall_point(4.0, 0.01, 1.0)
        assert pt.alpha == pytest.approx(0.9791921664626683, rel=1e-12)
        assert pt.beta == pytest.approx(0.9987515605493134, rel=1e-12)
        assert 0 < pt.alpha <= pt.beta <= 1
        assert pt.alpha == wiener_gain(1.0, 0.01, pt.pds)
        assert pt.beta == wiener_gain(1.0, 0.01, pt.pdc)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 4.0, 8.0])
    def test_side_power_exceeds_central_by_half_delta(self, delta):
        # P_ds = (delta + 1/delta)/2 and P_dc = 1/(2 delta): the out-of-band
        # half of the two-step spectrum adds delta/2
        pt = brickwall_point(delta, 0.01, 1.0)
        assert pt.pds == pytest.approx(0.5 * (delta + 1.0 / delta), rel=1e-15)
        assert pt.pds - pt.pdc == pytest.approx(delta / 2.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            brickwall_point(0.0, 0.01, 1.0)

    @pytest.mark.parametrize(
        "args", [(math.inf, 0.01, 1.0), (4.0, math.inf, 1.0), (4.0, 0.01, math.inf), (math.nan, 0.01, 1.0)]
    )
    def test_non_finite_input_rejected(self, args):
        # these used to give R = inf and NaN distortions
        with pytest.raises(ValueError, match="must be positive and finite"):
            brickwall_point(*args)

    @pytest.mark.parametrize("args", [(4.0, 1e308, 1.0), (1e-310, 0.01, 1.0)])
    def test_point_that_overflows_rejected(self, args):
        # sigma_e2 * P_ds, or P_dc = 1/(2 delta), past DBL_MAX
        with pytest.raises(ValueError, match="operating point overflows float64"):
            brickwall_point(*args)


class TestFinitePPoint:
    # a finite-order filter's distortions are the Wiener-shrunk noise powers
    # of its reception patterns, P_dc for both descriptions, P_ds for one
    def test_brickwall_powers_give_identical_point(self):
        pt = brickwall_point(4.0, 0.01, 1.0)
        assert shrunk_mse(0.125, 0.01) == pytest.approx(pt.dc, rel=1e-12)
        assert shrunk_mse(2.125, 0.01) == pytest.approx(pt.ds, rel=1e-12)

    def test_first_order_filter_point(self):
        # the pattern powers of (1, -2/pi), 1/2 - 2/pi^2 and 1 + 4/pi^2,
        # substituted into the two rational forms
        cfg = CodecConfig(
            source_variance=1.0,
            quantizer=QuantizerSpec(math.sqrt(0.12)),
            filter=ShapingFilter((1.0, -2.0 / math.pi)),
        )
        pdc, pds = pattern_noise_power(cfg, 1), pattern_noise_power(cfg, 2)
        assert pdc == pytest.approx(0.29735763271532445, rel=1e-14)
        assert pds == pytest.approx(1.405284734569351, rel=1e-14)
        assert shrunk_mse(pdc, 0.01) == pytest.approx(0.002964760385854187, rel=1e-12)
        assert shrunk_mse(pds, 0.01) == pytest.approx(0.013858101559970132, rel=1e-12)

    def test_strictly_increasing_in_powers(self):
        # the form the harness evaluates: post-multiplier times se2*P
        def mse(power):
            return wiener_gain(1.0, 0.01, power) * 0.01 * power

        assert mse(0.25) > mse(0.2)
        assert mse(1.7) > mse(1.5)


class TestBoundAchievabilityGrid:
    @pytest.mark.parametrize("delta", [1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("sigma_e2", [10.0**-k for k in range(1, 31)])
    def test_central_distortion_meets_bound_exactly(self, delta, sigma_e2):
        pt = brickwall_point(delta, sigma_e2, 1.0)
        assert pt.dc / ozarow_bounds(pt.rate_bits, pt.ds, 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_finite_p_never_beats_brickwall(self):
        # at equal power ratio the two-step spectrum minimizes the distortion
        from mdsigma.shaping import design_yule_walker, filter_powers

        for p, lam in [(4, 0.1), (8, 0.05), (16, 0.2)]:
            filt = design_yule_walker(p, lam)
            pdc, pds = filter_powers(filt)
            gamma = pds / pdc
            delta = math.sqrt(gamma - 1.0)
            bw = brickwall_point(delta, 0.01, 1.0)
            assert shrunk_mse(pdc, 0.01) >= bw.dc - 1e-15


class TestTestChannelMap:
    def test_sum_rate_identity(self):
        # the high-resolution test-channel map (rho, sigma_N^2) -> (delta,
        # sigma_E^2), then the brick-wall rate, reproduces the two-branch sum
        # rate log2((sx2+sn2)/sn2) - log2(sqrt(1-rho^2)); exact in the limit,
        # checked deep in the high-resolution regime
        rho, sn2 = 0.4, 1e-5
        delta = math.sqrt((1.0 - rho) / (1.0 + rho))
        sigma_e2 = sn2 * math.sqrt(1.0 - rho * rho)
        pt = brickwall_point(delta, sigma_e2, 1.0)
        expected = math.log2((1.0 + sn2) / sn2) - math.log2(math.sqrt(1.0 - rho * rho))
        assert abs(2.0 * pt.rate_bits - expected) <= 1e-3


class TestK4Point:
    def test_reference_point(self):
        spec = K4Spec(delta0=0.2, delta1=1.0, sigma_e2=0.04, sigma_x2=1.0)
        assert spec.delta2 == pytest.approx(2.23606797749979, rel=1e-12)
        pt = k4_point(spec)
        assert pt.dc == pytest.approx(0.002, rel=1e-12)
        assert pt.d2 == pytest.approx(0.012, rel=1e-12)
        assert pt.d1 == pytest.approx(0.0567213595499958, rel=1e-12)
        assert pt.rate_bits == pytest.approx(2.3617256005653857, rel=1e-12)

    def test_flat_spectrum(self):
        pt = k4_point(K4Spec(delta0=1.0, delta1=1.0, sigma_e2=0.04))
        assert pt.dc == pytest.approx(0.01)
        assert pt.d2 == pytest.approx(0.02)
        assert pt.d1 == pytest.approx(0.04)

    @pytest.mark.parametrize("d0,d1", [(0.1, 0.5), (0.9, 1.1), (1.0, 1.0), (0.3, 3.0)])
    def test_ordering(self, d0, d1):
        pt = k4_point(K4Spec(delta0=d0, delta1=d1, sigma_e2=0.1))
        assert pt.dc <= pt.d2 <= pt.d1

    def test_log_spectrum_integral_zero(self):
        # the middle level delta2 makes (1/2pi) int log2 S vanish over the
        # band widths 1/4, 1/2, 1/4 of the three-step spectrum
        spec = K4Spec(delta0=0.2, delta1=1.0, sigma_e2=0.04)
        integral = 0.25 * math.log2(spec.delta0) + 0.5 * math.log2(spec.delta2) + 0.25 * math.log2(spec.delta1)
        assert integral == pytest.approx(0.0, abs=1e-14)

    def test_constraints(self):
        with pytest.raises(ValueError):
            K4Spec(delta0=1.5, delta1=0.5, sigma_e2=0.1)
        with pytest.raises(ValueError):
            K4Spec(delta0=0.9, delta1=2.0, sigma_e2=0.1)
        for d0, d1 in [(0.0, 1.0), (-1.0, 1.0), (0.2, math.inf), (math.nan, 1.0)]:
            with pytest.raises(ValueError, match="band levels must be positive"):
                K4Spec(delta0=d0, delta1=d1, sigma_e2=0.1)

    @pytest.mark.parametrize("se2,sx2", [(math.inf, 1.0), (0.04, math.inf), (math.nan, 1.0), (0.0, 1.0)])
    def test_non_finite_or_non_positive_variance_rejected(self, se2, sx2):
        # an infinite sigma_e2 gave dc = d2 = d1 = inf and a NaN rate
        with pytest.raises(ValueError, match="variances must be positive and finite"):
            K4Spec(delta0=0.2, delta1=1.0, sigma_e2=se2, sigma_x2=sx2)

    @pytest.mark.parametrize(
        "spec",
        [K4Spec(delta0=1e-300, delta1=1e300, sigma_e2=1e10), K4Spec(delta0=0.2, delta1=1.0, sigma_e2=1e-300, sigma_x2=1e300)],
        ids=["d2-overflows", "rate-overflows"],
    )
    def test_point_that_overflows_rejected(self, spec):
        with pytest.raises(ValueError, match="three-step point overflows float64"):
            k4_point(spec)
