"""Filter design: normal equations, closed-form powers, min phase, targets."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from mdsigma import _native, shaping
from mdsigma.shaping import (
    MAX_ORDER,
    ShapingFilter,
    band_power,
    design_multiband,
    design_yule_walker,
    filter_powers,
    find_lambda_for_ratio,
    min_phase_check,
)

from conftest import zeros_within
from reference import (
    QUADRATURE_POINTS,
    BrickWallSpec,
    brickwall_autocorrelation,
    quadrature_grid,
    spectrum_power,
    step_down_mpf,
    truncated_fourier_brickwall_error,
)

# hand inversion of the 1x1 and 2x2 systems with off-diagonal 2/pi
YW1_TAIL = -2.0 / np.pi
_DET2 = 1.0 - 4.0 / np.pi**2
YW2_TAIL = (-(2.0 / np.pi) / _DET2, (4.0 / np.pi**2) / _DET2)

# the K=4 three-step target: band edges and weights 1/delta0, 1/delta2,
# 1/delta1 with delta0 = 0.2, delta1 = 1 and delta2 = 1/sqrt(delta0 delta1)
K4_EDGES = (np.pi / 4, 3 * np.pi / 4, np.pi)
K4_WEIGHTS = (1 / 0.2, math.sqrt(0.2), 1.0)


# The full-period midpoint rule is exact for trigonometric polynomials, so
# 8192 points suffice for P_ds.  Partial-band integrals pick up an O(h^2)
# boundary term, so the in-band oracle uses a finer grid to resolve 1e-9.
def quadrature_pdc(filt, n=1 << 17):
    w = quadrature_grid(n)
    power = spectrum_power(filt.coeffs, w)
    return float(np.mean(power[np.abs(w) <= np.pi / 2]) * 0.5)


def quadrature_pds(filt, n=8192):
    w = quadrature_grid(n)
    return float(np.mean(spectrum_power(filt.coeffs, w)))


def yule_walker_system(p, lam):
    """(G + 2 lam I, g) of the half-band normal equations in float64:
    G_ij = sinc((i-j)/2), g_i = sinc(i/2), for i, j = 1..p."""
    i = np.arange(1, p + 1)
    gram = np.sinc((i[:, None] - i[None, :]) / 2.0)
    return gram + 2.0 * lam * np.eye(p), np.sinc(i / 2.0)


def approx_error_vs_brickwall(filt, target, n=QUADRATURE_POINTS):
    """(1/2pi) int |S_target(w) - |c(e^{jw})|^2|^2 dw by midpoint quadrature."""
    w = quadrature_grid(n)
    diff = target.power(w) - spectrum_power(filt.coeffs, w)
    return float(np.mean(diff * diff))


# ---------------------------------------------------------------------------
# ShapingFilter type
# ---------------------------------------------------------------------------


class TestShapingFilter:
    def test_monic_enforced(self):
        with pytest.raises(ValueError, match="monic"):
            ShapingFilter((0.5, 1.0))

    def test_finite_enforced(self):
        with pytest.raises(ValueError, match="finite"):
            ShapingFilter((1.0, float("nan")))

    def test_order(self):
        assert ShapingFilter((1.0, -0.5, 0.25)).order == 2

    def test_order_bounded(self):
        assert ShapingFilter((1.0,) + (0.0,) * MAX_ORDER).order == 128
        with pytest.raises(ValueError, match="exceeds MAX_ORDER"):
            ShapingFilter((1.0,) + (0.0,) * (MAX_ORDER + 1))

    @pytest.mark.parametrize(
        "design",
        [
            lambda p: design_yule_walker(p, 0.1),
            lambda p: design_multiband(p, [np.pi / 2, np.pi], [1.0, 0.1]),
            lambda p: find_lambda_for_ratio(17.0, p),
        ],
        ids=["yule_walker", "multiband", "find_lambda"],
    )
    def test_designers_reject_orders_above_the_bound_before_mpmath(self, design, monkeypatch):
        def no_precision(p):
            raise AssertionError("extended-precision work started")

        monkeypatch.setattr(shaping, "_design_dps", no_precision)
        with pytest.raises(ValueError, match="order must be in 1..128"):
            design(MAX_ORDER + 1)


# ---------------------------------------------------------------------------
# design_yule_walker
# ---------------------------------------------------------------------------


class TestYuleWalkerDesign:
    def test_order_one_closed_form(self):
        filt = design_yule_walker(1, 0.0)
        assert filt.coeffs[1] == pytest.approx(YW1_TAIL, abs=1e-10)

    def test_order_two_closed_form(self):
        filt = design_yule_walker(2, 0.0)
        assert filt.coeffs[1] == pytest.approx(YW2_TAIL[0], abs=1e-10)
        assert filt.coeffs[2] == pytest.approx(YW2_TAIL[1], abs=1e-10)

    def test_huge_lambda_forces_white(self):
        filt = design_yule_walker(4, 1e6)
        assert np.abs(np.array(filt.coeffs[1:])).max() <= 1e-5

    def test_bad_order(self):
        with pytest.raises(ValueError):
            design_yule_walker(0, 0.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, -0.1])
    def test_bad_lambda_rejected(self, lam):
        # inf used to return the white filter, NaN to fail on its coefficients
        with pytest.raises(ValueError, match="lambda ratio must be finite and >= 0"):
            design_yule_walker(8, lam)

    def test_solves_normal_equations(self):
        for p, lam in [(4, 0.0), (8, 0.1), (12, 1.0)]:
            filt = design_yule_walker(p, lam)
            gram, cross = yule_walker_system(p, lam)
            residual = gram @ np.array(filt.coeffs[1:]) + cross
            assert np.abs(residual).max() <= 1e-9

    def test_system_positive_definite(self):
        for p, lam in [(8, 0.0), (16, 0.5)]:
            gram, _ = yule_walker_system(p, lam)
            np.linalg.cholesky(gram)  # raises if not PD


# ---------------------------------------------------------------------------
# closed-form powers
# ---------------------------------------------------------------------------


class TestPowers:
    @pytest.mark.parametrize("offset", [0.0, 0.3, -1.7])
    @pytest.mark.parametrize("lag", [0, 1, 2, 5])
    def test_sinc_product_sum_identity(self, offset, lag):
        # sum_k sinc(c0 - k/2) sinc(c0 - (k - lag)/2) = 2 sinc(lag/2): the
        # identity that collapses the in-band power to the double sum
        k = np.arange(-20000, 20001)
        lhs = np.sum(np.sinc(offset - k / 2.0) * np.sinc(offset - (k - lag) / 2.0))
        assert lhs == pytest.approx(2.0 * np.sinc(lag / 2.0), abs=5e-4)

    def test_white_filter(self):
        pdc, pds = filter_powers(ShapingFilter((1.0,)))
        assert pdc == pytest.approx(0.5, abs=1e-15)
        assert pds == pytest.approx(1.0, abs=1e-15)

    def test_first_order_substitution(self):
        pdc, pds = filter_powers(ShapingFilter((1.0, -2.0 / np.pi)))
        assert pdc == pytest.approx(0.29735763271532445, abs=1e-12)
        assert pds == pytest.approx(1.405284734569351, abs=1e-12)

    @pytest.mark.parametrize("p,lam", [(1, 0.0), (4, 0.0), (8, 0.1), (16, 0.01), (32, 1.0)])
    def test_quadrature_oracle(self, p, lam):
        filt = design_yule_walker(p, lam)
        pdc, pds = filter_powers(filt)
        assert quadrature_pdc(filt) == pytest.approx(pdc, abs=1e-9)
        assert quadrature_pds(filt) == pytest.approx(pds, abs=1e-9)

    def test_band_power_splits_total(self):
        filt = design_yule_walker(8, 0.1)
        low = band_power(filt, 0.0, np.pi / 2)
        high = band_power(filt, np.pi / 2, np.pi)
        assert low == filter_powers(filt)[0]
        assert low + high == pytest.approx(float(np.sum(np.array(filt.coeffs) ** 2)), abs=1e-12)

    def test_total_power_is_the_exact_sum_of_squares(self):
        filt = design_yule_walker(32, 0.05)
        exact = sum(Fraction(c) ** 2 for c in filt.coeffs)
        assert band_power(filt, 0.0, np.pi) == float(exact)

    def test_small_in_band_power_survives_cancellation(self):
        # at lambda = 0 the in-band power is ~1e-5 while sum c_i^2 is ~3e6:
        # a float64 double sum loses six digits here, the exact lags none.
        # The reference is the extended-precision value of the design.
        filt = design_yule_walker(16, 0.0)
        assert band_power(filt, 0.0, np.pi / 2) == pytest.approx(1.062722156890765e-05, rel=1e-12)


# ---------------------------------------------------------------------------
# min phase
# ---------------------------------------------------------------------------


class TestMinPhase:
    def test_stable_first_order(self):
        rep = min_phase_check(ShapingFilter((1.0, -0.5)))
        assert rep.is_min_phase
        assert rep.max_reflection == pytest.approx(0.5, abs=1e-12)

    def test_unstable_first_order(self):
        rep = min_phase_check(ShapingFilter((1.0, -2.0)))
        assert not rep.is_min_phase
        assert rep.max_reflection == pytest.approx(2.0, abs=1e-12)

    def test_designed_filter_is_min_phase(self):
        rep = min_phase_check(design_yule_walker(8, 0.1))
        assert rep.is_min_phase

    def test_trailing_zeros_trimmed(self):
        rep = min_phase_check(ShapingFilter((1.0, -0.5, 0.0, 0.0)))
        assert rep.max_reflection == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.1, 1.0])
    def test_grid_min_phase_and_monotone(self, lam):
        prev = None
        for p in (1, 2, 4, 8, 16, 32):
            filt = design_yule_walker(p, lam)
            assert zeros_within(filt, 1.0 - 1e-6)
            pdc, _ = filter_powers(filt)
            if prev is not None:
                assert pdc <= prev + 1e-15
            prev = pdc

    # Largest zero magnitude of design_yule_walker(p, 0), from 120-digit
    # mp.polyroots; the step-down decides the same at 3p + 20 and at 1000
    # digits.  A float64 companion-matrix root finder misplaces the zeros
    # near the unit circle by up to 5.8e-2.
    #
    #   p    true max |z|
    #   38   0.999898
    #   40   0.999902
    #   41   0.999932
    #   42   0.999983
    #   43   0.999939
    #   44   1.0208
    #   48   1.1150
    @pytest.mark.parametrize(
        "p, inside", [(38, True), (40, True), (41, True), (42, True), (43, True), (44, False), (48, False)]
    )
    def test_zeros_near_the_unit_circle(self, p, inside):
        assert min_phase_check(design_yule_walker(p, 0.0)).is_min_phase is inside

    @pytest.mark.parametrize("c1, inside", [(-1.0, False), (-0.99995, True), (-1.00005, False)])
    def test_first_order_zero_at_the_unit_circle(self, c1, inside):
        assert min_phase_check(ShapingFilter((1.0, c1))).is_min_phase is inside

    @pytest.mark.parametrize(
        "make",
        # the benchmark's design grid: orders x gamma centres
        [
            pytest.param(lambda p=p, g=g: design_yule_walker(p, find_lambda_for_ratio(g, p)), id=f"{p}-{g:g}")
            for p in (8, 16, 32, 48, 64)
            for g in (4.0, 8.0, 17.0, 32.0)
        ]
        + [
            pytest.param(lambda p=p: design_multiband(p, K4_EDGES, K4_WEIGHTS), id=f"multiband-{p}")
            for p in (16, 32, 48, 64)
        ]
        # zeros next to the unit circle
        + [
            pytest.param(lambda p=p: design_yule_walker(p, 0.0), id=f"lambda0-{p}")
            for p in (38, 39, 40, 41, 42, 43, 44, 48)
        ]
        + [
            pytest.param(lambda c1=c1: ShapingFilter((1.0, c1)), id=f"first-order{c1:g}")
            for c1 in (-0.5, -1.0, -0.99995, -1.00005, -2.0)
        ]
        + [pytest.param(lambda: ShapingFilter((1.0, -0.5, 0.0, 0.0)), id="trailing-zeros")],
    )
    def test_step_down_keeps_the_bits_of_mpf_operators(self, make):
        filt = make()
        rep = min_phase_check(filt)
        oracle = step_down_mpf(filt.coeffs, shaping._design_dps(filt.order))
        assert (rep.is_min_phase, rep.max_reflection) == oracle

    def test_scaled_filter_moves_the_zeros(self):
        # c_i rho^-i has the zero 0.5/rho: inside the unit circle iff rho > 0.5
        filt = ShapingFilter((1.0, -0.5))
        assert zeros_within(filt, 0.5 + 1e-9)
        assert not zeros_within(filt, 0.5)

    def test_lower_bound_property(self):
        # two-step spectra minimize both powers at fixed ratio
        for p, lam in [(8, 0.0), (16, 0.05), (32, 0.2)]:
            pdc, pds = filter_powers(design_yule_walker(p, lam))
            gamma = pds / pdc
            assert pdc >= 0.5 / math.sqrt(gamma - 1.0) - 1e-12
            assert pds >= 0.5 * (math.sqrt(gamma - 1.0) + 1.0 / math.sqrt(gamma - 1.0)) - 1e-12


# ---------------------------------------------------------------------------
# brick-wall targets and Gibbs behavior
# ---------------------------------------------------------------------------


class TestBrickWall:
    def test_power_levels(self):
        # 1/delta in-band (|w| <= pi/2, edge included), delta beyond
        bw = BrickWallSpec(4.0)
        w = np.array([0.0, -0.3, np.pi / 2, -np.pi / 2, 1.6, -np.pi, np.pi])
        assert bw.power(w).tolist() == [0.25, 0.25, 0.25, 0.25, 4.0, 4.0, 4.0]
        assert np.all(BrickWallSpec(1.0).power(w) == 1.0)

    def test_log_spectrum_integral_zero(self):
        bw = BrickWallSpec(4.0)
        w = quadrature_grid()
        assert np.mean(np.log2(bw.power(w))) == pytest.approx(0.0, abs=1e-12)

    def test_white_target_zero_error(self):
        assert approx_error_vs_brickwall(ShapingFilter((1.0,)), BrickWallSpec(1.0)) == 0.0

    def test_autocorrelation_even_lags_vanish(self):
        bw = BrickWallSpec(4.0)
        assert brickwall_autocorrelation(bw, 0) == pytest.approx(2.125)
        assert brickwall_autocorrelation(bw, 2) == 0.0
        assert brickwall_autocorrelation(bw, 1) == pytest.approx(
            0.5 * (0.25 - 4.0) * (2.0 / np.pi)
        )

    def test_truncated_fourier_error_slope(self):
        bw = BrickWallSpec(4.0)
        orders = np.array([8, 16, 32, 64], dtype=float)
        errs = np.array([truncated_fourier_brickwall_error(bw, int(p)) for p in orders])
        assert np.all(np.diff(errs) < 0)
        slope = np.polyfit(np.log(orders), np.log(errs), 1)[0]
        assert -1.3 <= slope <= -0.7

    def test_designed_filter_beats_low_order(self):
        bw = BrickWallSpec(4.0)
        lam = find_lambda_for_ratio(17.0, 32)
        err32 = approx_error_vs_brickwall(design_yule_walker(32, lam), bw)
        err8 = approx_error_vs_brickwall(design_yule_walker(8, lam), bw)
        assert err32 <= err8


# ---------------------------------------------------------------------------
# ratio targeting
# ---------------------------------------------------------------------------


class TestLambdaForRatio:
    def test_near_white_limit(self):
        lam = find_lambda_for_ratio(2.001, 8)
        filt = design_yule_walker(8, lam)
        assert np.abs(np.array(filt.coeffs[1:])).max() <= 0.01

    def test_ratio_seventeen_hits_brickwall_powers(self):
        lam = find_lambda_for_ratio(17.0, 32)
        pdc, pds = filter_powers(design_yule_walker(32, lam))
        assert pds / pdc == pytest.approx(17.0, rel=1e-6)
        assert pdc == pytest.approx(0.125, rel=0.05)
        assert pds == pytest.approx(2.125, rel=0.05)

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            find_lambda_for_ratio(1.0, 8)

    def test_gamma_below_floor_rejected(self):
        with pytest.raises(ValueError, match="achievable range"):
            find_lambda_for_ratio(1.5, 8)

    def test_gamma_above_ceiling_rejected(self):
        with pytest.raises(ValueError, match="achievable range"):
            find_lambda_for_ratio(1e6, 2)

    @pytest.mark.parametrize("rel_tol", [0.0, 1e-17])
    def test_unreachable_tolerance_stops_when_the_bracket_collapses(self, rel_tol, monkeypatch):
        # no float lambda meets the tolerance: once lo and hi are adjacent
        # floats the bisection gives up instead of re-trying them in mpmath
        calls = []
        real = shaping._ratio_at
        monkeypatch.setattr(shaping, "_ratio_at", lambda lags, lam: calls.append(lam) or real(lags, lam))
        monkeypatch.setattr(shaping, "_REL_TOL", rel_tol)
        with pytest.raises(ValueError, match="bisection failed"):
            find_lambda_for_ratio(17.0, 64)
        assert len(set(calls)) == len(calls) <= 64

    def test_ratio_monotone_in_lambda(self):
        ratios = []
        for lam in (0.01, 0.1, 1.0, 10.0):
            pdc, pds = filter_powers(design_yule_walker(8, lam))
            ratios.append(pds / pdc)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 2.0


# ---------------------------------------------------------------------------
# multiband designs
# ---------------------------------------------------------------------------


class TestMultiband:
    def test_single_band_gives_white(self):
        filt = design_multiband(6, [np.pi], [3.0])
        assert np.abs(np.array(filt.coeffs[1:])).max() <= 1e-12

    def test_two_band_zero_weight_matches_yule_walker(self):
        mb = design_multiband(8, [np.pi / 2, np.pi], [1.0, 0.0])
        yw = design_yule_walker(8, 0.0)
        assert np.abs(np.array(mb.coeffs) - np.array(yw.coeffs)).max() <= 1e-12

    def test_three_band_powers_respond_to_weights(self):
        edges = [np.pi / 4, 3 * np.pi / 4, np.pi]
        filt = design_multiband(16, edges, [50.0, 1.0, 5.0])
        p_low = band_power(filt, 0.0, np.pi / 4)
        p_mid = band_power(filt, np.pi / 4, 3 * np.pi / 4)
        p_high = band_power(filt, 3 * np.pi / 4, np.pi)
        # heavily weighted bands end up with the least power density
        assert p_low / (0.25) < p_high / (0.25) < p_mid / (0.5)
        # quadrature oracle on band powers (fine grid: partial-band rule)
        w = quadrature_grid(1 << 17)
        power = spectrum_power(filt.coeffs, w)
        quad_low = float(np.mean(power[np.abs(w) <= np.pi / 4]) * 0.25)
        assert quad_low == pytest.approx(p_low, abs=1e-9)
        assert min_phase_check(filt).is_min_phase

    def test_k4_target_band_levels(self):
        # weights 1/level reproduce the three-step target levels as p grows
        d0, d1 = 0.2, 1.0
        d2 = 1.0 / math.sqrt(d0 * d1)
        filt = design_multiband(48, [np.pi / 4, 3 * np.pi / 4, np.pi], [1 / d0, 1 / d2, 1 / d1])
        assert band_power(filt, 0, np.pi / 4) == pytest.approx(d0 / 4, rel=0.04)
        assert band_power(filt, np.pi / 4, 3 * np.pi / 4) == pytest.approx(d2 / 2, rel=0.04)
        assert band_power(filt, 3 * np.pi / 4, np.pi) == pytest.approx(d1 / 4, rel=0.04)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            design_multiband(4, [2.0, 1.0], [1.0, 1.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="at least one positive"):
            design_multiband(4, [np.pi / 2, np.pi], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected_before_mpmath(self, bad, monkeypatch):
        # rejected before any libmp call: nothing pins how libmp treats a NaN
        def no_precision(p):
            raise AssertionError("extended-precision work started")

        monkeypatch.setattr(shaping, "_design_dps", no_precision)
        with pytest.raises(ValueError, match="band weights must be finite"):
            design_multiband(8, [np.pi / 2, np.pi], [bad, 1.0])


# ---------------------------------------------------------------------------
# float64 bisection decisions
# ---------------------------------------------------------------------------


def half_band_lags(p):
    """sinc(m/2), m = 0..p, at the design precision of order p."""
    with mp.workdps(shaping._design_dps(p)):
        return [shaping._sinc_half_mp(m) for m in range(p + 1)]


class TestFloat64Bisection:
    @pytest.mark.parametrize(
        "p,gamma",
        # the benchmark's design grid: orders x gamma centres
        [(p, g) for p in (8, 16, 32, 48, 64) for g in (4.0, 8.0, 17.0, 32.0)]
        + [
            # large lambda: the cancellation in P_dc is largest
            pytest.param(8, 2.001, id="8-near-white"),
            # small lambda: the bisection crosses the floor
            pytest.param(8, "ceiling", id="8-near-ceiling"),
            pytest.param(64, "ceiling", id="64-near-ceiling"),
            pytest.param(MAX_ORDER, 17.0, id="max-order"),
        ],
    )
    def test_same_lambda_as_all_extended_precision(self, p, gamma, monkeypatch):
        if gamma == "ceiling":  # within 1 % of the lambda = 0 ratio
            gamma = 0.995 * shaping._ratio_at(half_band_lags(p), 0.0)
        lam = find_lambda_for_ratio(gamma, p)
        # no lambda reaches an infinite floor, so every step runs in mpmath
        monkeypatch.setattr(shaping, "_F64_LAMBDA_FLOOR", math.inf)
        assert find_lambda_for_ratio(gamma, p) == lam

    def test_grid_steps_settle_in_float64(self, monkeypatch):
        # only the lambda = 0 range check runs in extended precision
        calls = []
        real = shaping._ratio_at
        monkeypatch.setattr(shaping, "_ratio_at", lambda lags, lam: calls.append(lam) or real(lags, lam))
        shaping._half_band_range.cache_clear()
        find_lambda_for_ratio(17.0, 32)
        assert calls == [0.0]

    def test_explicit_lambda_runs_no_range_check(self, monkeypatch):
        # a design at a given lambda reads the cached lags alone, not the
        # lambda = 0 range that the bisection needs
        calls = []
        real = shaping._ratio_at
        monkeypatch.setattr(shaping, "_ratio_at", lambda lags, lam: calls.append(lam) or real(lags, lam))
        shaping._half_band_lags.cache_clear()
        shaping._half_band_range.cache_clear()
        filt = design_yule_walker(32, 0.05)
        assert calls == []
        with mp.workdps(shaping._design_dps(32)):
            fresh, _ = shaping._yule_walker(half_band_lags(32), mp.mpf(repr(0.05)), shaping._levinson)
        assert filt.coeffs == tuple(float(c) for c in fresh)

    def test_second_target_at_one_order_runs_no_extended_precision(self, monkeypatch):
        # the lambda = 0 range check is made once per order
        find_lambda_for_ratio(17.0, 32)
        calls = []
        real = shaping._ratio_at
        monkeypatch.setattr(shaping, "_ratio_at", lambda lags, lam: calls.append(lam) or real(lags, lam))
        find_lambda_for_ratio(9.0, 32)
        assert calls == []

    @pytest.mark.parametrize("threshold", ["zero", "rel_tol"])
    def test_ratio_inside_the_margin_is_recomputed(self, threshold, monkeypatch):
        # every float64 ratio is moved inside its margin, across the
        # threshold from the true ratio: trusting any of them changes lambda
        # or fails the bracketing, so each step must be redone in mpmath
        gamma, p, rel_tol = 17.0, 32, shaping._REL_TOL
        expected = find_lambda_for_ratio(gamma, p)
        real_f64, real_mp = shaping._ratio_f64, shaping._ratio_at
        calls = {"f64": 0, "mp": 0}

        def misplaced(lags64, lam):
            calls["f64"] += 1
            ratio, err = real_f64(lags64, lam)
            side = 1.0 if ratio > gamma else -1.0
            half = 0.5 * err / gamma
            if threshold == "zero":
                dev = -side * half
            else:
                dev = side * (rel_tol + (half if abs(ratio / gamma - 1.0) <= rel_tol else -half))
            return gamma * (1.0 + dev), err

        def counted(lags, lam):
            calls["mp"] += 1
            return real_mp(lags, lam)

        monkeypatch.setattr(shaping, "_ratio_f64", misplaced)
        monkeypatch.setattr(shaping, "_ratio_at", counted)
        shaping._half_band_range.cache_clear()
        assert find_lambda_for_ratio(gamma, p) == expected
        assert calls["f64"] > 0
        assert calls["mp"] == calls["f64"] + 1  # plus the lambda = 0 range check

    @pytest.mark.parametrize("p", [1, 8, 32, MAX_ORDER])
    def test_float64_ratio_within_the_first_order_bound(self, p):
        # err carries a headroom of 16 over the first-order bound; the
        # observed error stays inside the bound itself
        lags = half_band_lags(p)
        lags64 = [float(v) for v in lags]
        for k in range(-6, 9):
            lam = 10.0 ** (k / 2)
            ratio, err = shaping._ratio_f64(lags64, lam)
            assert abs(ratio - shaping._ratio_at(lags, lam)) <= err / 16, lam


# ---------------------------------------------------------------------------
# the two Levinson twins
# ---------------------------------------------------------------------------


def mpf_bits(values):
    """The _mpf_ tuple of each value at the current precision."""
    return [mp.mpf(v)._mpf_ for v in values]


class TestLevinsonTwins:
    # given mpf lags, _levinson runs mpf operators, and given floats,
    # float64 arithmetic; _levinson_mp must match both bit for bit, so a
    # change to either twin's operation order fails here

    @pytest.mark.parametrize("p", [1, 8, 32, 64, MAX_ORDER])
    def test_extended_twin_matches_the_mpf_operators(self, p):
        lags = half_band_lags(p)
        with mp.workdps(shaping._design_dps(p)):
            for lam in (0.0, 1e-3, 0.05, 1.0, 1e4):
                r = [lags[0] + 2 * mp.mpf(repr(lam)), *lags[1:]]
                coeffs, energy = shaping._levinson(r, p)
                coeffs_mp, energy_mp = shaping._levinson_mp(r, p)
                assert mpf_bits(coeffs_mp) == mpf_bits(coeffs), lam
                assert energy_mp._mpf_ == energy._mpf_, lam

    @pytest.mark.parametrize("p", [1, 8, 32, 64, MAX_ORDER])
    def test_extended_twin_at_53_bits_is_the_float64_recursion(self, p):
        # no lambda = 0: the float64 system is not positive definite there
        # at large p
        lags64 = [float(v) for v in half_band_lags(p)]
        for lam in (1e-3, 0.05, 1.0, 1e4):
            r = [lags64[0] + 2 * lam, *lags64[1:]]
            coeffs, energy = shaping._levinson(r, p)
            with mp.workprec(53):
                coeffs_mp, energy_mp = shaping._levinson_mp(r, p)
                assert mpf_bits(coeffs_mp) == mpf_bits(coeffs), lam
                assert energy_mp._mpf_ == mp.mpf(energy)._mpf_, lam

    @pytest.mark.parametrize("p", [1, 2, 7, 32, 64, MAX_ORDER])
    def test_c_twin_is_the_float64_recursion(self, p):
        # levinson_f64, where the compiled library loads, gives _levinson's
        # bits, a NaN included, and raises its error on a system that is not
        # positive definite; elsewhere _levinson_f64 is _levinson itself
        if _native._compiler() is not None:
            assert _native.library() is not None, "a C compiler is found but the library did not load"
        rng = np.random.default_rng(p)
        lags64 = [float(v) for v in half_band_lags(p)]
        systems = [[lags64[0] + 2 * lam, *lags64[1:]] for lam in (1e-3, 0.05, 1.0, 1e4)]
        systems += [rng.uniform(-1.0, 1.0, p + 1).tolist() for _ in range(4)]  # mostly indefinite
        systems += [[math.nan, *lags64[1:]], [0.0, *lags64[1:]], [-0.0, *lags64[1:]]]
        for r in systems:
            try:
                want = shaping._levinson(r, p)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    shaping._levinson_f64(r, p)
                continue
            coeffs, energy = shaping._levinson_f64(r, p)
            assert [float(c).hex() for c in coeffs] == [float(c).hex() for c in want[0]]
            assert energy.hex() == want[1].hex()


# ---------------------------------------------------------------------------
# double-double designs with a proven float64 rounding
# ---------------------------------------------------------------------------


def mpmath_design(monkeypatch, design, *args):
    """The design made on the extended-precision path alone."""
    with monkeypatch.context() as m:
        m.setattr(shaping, "_dd_design", lambda *a: None)
        return design(*args)


def multiband_grid():
    """(p, edges, weights) of two to four bands, every weight positive."""
    rng = np.random.default_rng(26)
    grid = []
    for p in (2, 8, 24, 48, 64, 96):
        for _ in range(3):
            nb = int(rng.integers(2, 5))
            edges = [*(np.sort(rng.uniform(0.05, 0.95, nb - 1)) * np.pi).tolist(), np.pi]
            grid.append((p, edges, (10.0 ** rng.uniform(-2.0, 2.0, nb)).tolist()))
    return grid


def random_toeplitz(rng, p, floor, scale=1.0):
    """Lags r_0..r_p, at the current mp precision, of a symmetric Toeplitz
    matrix whose eigenvalues are at least floor: scale times the
    autocorrelation of a random FIR filter (a nonnegative spectrum), plus
    floor on the diagonal."""
    h = [mp.mpf(float(v)) for v in rng.standard_normal(int(rng.integers(1, p + 3)))]
    r = [mp.fsum(h[i] * h[i + m] for i in range(len(h) - m)) if m < len(h) else mp.mpf(0) for m in range(p + 1)]
    r = [scale * v for v in r]
    r[0] += mp.mpf(floor)
    return r


class TestDoubleDoubleDesigns:
    # every design with a positive floor is solved in double-double, and its
    # float64 rounding is returned only where a residual bound proves it
    # equal to the rounding of the extended-precision design

    def test_both_paths_agree_bitwise_on_a_grid(self, monkeypatch, mp_solves):
        # a p x log-lambda grid and a multiband grid; with the compiled
        # library none falls back to mpmath
        cases = [(design_yule_walker, (p, 10.0 ** k)) for p in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, MAX_ORDER)
                 for k in range(-3, 4)]
        cases += [(design_multiband, case) for case in multiband_grid()]
        fallbacks = 0
        for design, args in cases:
            mp_solves.clear()
            got = design(*args).coeffs
            fallbacks += bool(mp_solves)
            assert got == mpmath_design(monkeypatch, design, *args).coeffs, args
        assert fallbacks == (0 if _native.library() is not None else len(cases))

    @pytest.mark.parametrize("p", [1, 4, 16, 48, MAX_ORDER])
    def test_bound_holds_on_random_well_posed_systems(self, p):
        # |a_j - c_j| <= beta against the solve at the design precision (at
        # least 60 digits), on systems with floors from 1e-8 to 1, and on
        # systems scaled down, where the residual is small against the
        # error it bounds
        rng = np.random.default_rng(1000 + p)
        worst = 0.0
        with mp.workdps(shaping._design_dps(p)):
            for floor, scale in ((1e-8, 1.0), (1e-5, 1.0), (1e-2, 1.0), (1.0, 1.0), (1e-9, 1e-6), (1e-7, 1e-6)):
                r = random_toeplitz(rng, p, floor, scale)
                solved = shaping._dd_solution(*shaping._to_dd(r), floor, float(mp.fsum(map(abs, r))))
                if _native.library() is None:
                    assert solved is None
                    continue
                a_hi, a_lo, beta = solved
                c, _ = shaping._levinson_mp(r, p)
                for j in range(p + 1):
                    err = abs(float(c[j] - mp.mpf(a_hi[j]) - mp.mpf(a_lo[j])))
                    assert err <= beta, (floor, j)
                    worst = max(worst, err / beta)
        # the dd solve is not exact, so the check is not vacuous
        assert worst > 0.0 or _native.library() is None

    @pytest.mark.parametrize("p", [1, 8, 64, MAX_ORDER])
    def test_residual_within_its_rounding_bound(self, p):
        # each row of the double-double residual lies within 16 (p+1) u^2 s_i
        # of the exact residual of the same doubles, s_i the row's |r| |a| sum
        lib = _native.library()
        if lib is None:
            assert _native._compiler() is None
            return
        rng = np.random.default_rng(p)
        with mp.workdps(shaping._design_dps(p)):
            r_hi, r_lo = shaping._to_dd(random_toeplitz(rng, p, 1e-3))
            a_hi, a_lo = np.empty(p + 1), np.empty(p + 1)
            assert lib.levinson_dd(r_hi, r_lo, p, a_hi, a_lo) == 0
            res_hi, res_lo, abs_sum = np.empty(p), np.empty(p), np.empty(p)
            lib.toeplitz_residual_dd(r_hi, r_lo, a_hi, a_lo, p, res_hi, res_lo, abs_sum)
            r = [mp.mpf(h) + mp.mpf(lo) for h, lo in zip(r_hi, r_lo)]
            a = [mp.mpf(h) + mp.mpf(lo) for h, lo in zip(a_hi, a_lo)]
            for i in range(1, p + 1):
                exact = mp.fsum(r[abs(i - j)] * a[j] for j in range(p + 1))
                err = abs(exact - mp.mpf(res_hi[i - 1]) - mp.mpf(res_lo[i - 1]))
                assert err <= 16 * (p + 1) * mp.mpf(2) ** -106 * abs_sum[i - 1], i

    @pytest.mark.parametrize(
        "hi,lo,beta,want",
        [
            # halfway from 1 to 1 + 2^-52: on the edge, refused; a little
            # below or above, accepted while beta stays short of the edge
            (1.0, 2.0**-53, 0.0, None),
            (1.0, 2.0**-53 - 2.0**-70, 2.0**-71, 1.0),
            (1.0, 2.0**-53 - 2.0**-70, 2.0**-70, None),
            (1.0, 2.0**-53 + 2.0**-70, 2.0**-71, 1.0 + 2.0**-52),
            (1.0, 2.0**-53 + 2.0**-70, 2.0**-70, None),
            # below a power of two the gap halves: halfway from 1 - 2^-53
            # to 1 is 1 - 2^-54
            (1.0, -(2.0**-54), 0.0, None),
            (1.0, -(2.0**-54) + 2.0**-75, 2.0**-76, 1.0),
            (1.0, -(2.0**-54) - 2.0**-75, 2.0**-76, 1.0 - 2.0**-53),
            # accepted against the gap above 1, refused against the one below
            (1.0, -(2.0**-54) + 2.0**-60, 2.0**-59, None),
            # the same, mirrored
            (-1.0, -(2.0**-53) + 2.0**-70, 2.0**-71, -1.0),
            (-1.0, 2.0**-54 + 2.0**-75, 2.0**-76, -1.0 + 2.0**-53),
            (-1.0, 2.0**-54, 0.0, None),
            # zero, a subnormal and a NaN are left to mpmath
            (0.0, 0.0, 0.0, None),
            (5e-324, 0.0, 0.0, None),
            (math.nan, 0.0, 0.0, None),
        ],
    )
    def test_rounding_cell_at_a_midpoint(self, hi, lo, beta, want):
        got = shaping._nearest_double(hi, lo, beta)
        assert got == want if want is not None else got is None
        if want is not None:
            # every point of the interval rounds to it, as mpmath rounds
            with mp.workprec(300):
                for x in (mp.mpf(hi) + mp.mpf(lo) - mp.mpf(beta), mp.mpf(hi) + mp.mpf(lo) + mp.mpf(beta)):
                    assert float(x) == want

    def test_failed_bound_designs_in_mpmath(self, monkeypatch, mp_solves):
        # a bound too wide for any rounding cell sends each design to the
        # extended-precision path, which gives the same coefficients
        want = [design(*args).coeffs for design, args in self.designs()]
        monkeypatch.setattr(shaping, "_DD_LAG_REL", 1.0)
        for (design, args), coeffs in zip(self.designs(), want):
            mp_solves.clear()
            assert design(*args).coeffs == coeffs
            assert mp_solves == [args[0]]

    @pytest.mark.parametrize("p", [2, 3, 24])
    def test_last_edge_short_of_pi_lowers_the_floor(self, monkeypatch, mp_solves, p):
        # the weight function is 0 above 0.6 pi, so the floor is the smallest
        # weight times 1 - 0.4 p: positive at p = 2, gone from p = 3 on
        args = (p, [0.3 * np.pi, 0.6 * np.pi], [1.0, 2.0])
        got = design_multiband(*args).coeffs
        assert mp_solves == ([] if p == 2 and _native.library() is not None else [p])
        assert got == mpmath_design(monkeypatch, design_multiband, *args).coeffs

    def test_zero_floor_designs_in_mpmath(self, monkeypatch, mp_solves):
        # lambda = 0 and a zero band weight leave no floor to divide by
        calls = []
        real = shaping._dd_solution
        monkeypatch.setattr(shaping, "_dd_solution", lambda *a: calls.append(a) or real(*a))
        design_yule_walker(16, 0.0)
        design_multiband(16, [np.pi / 2, np.pi], [1.0, 0.0])
        assert calls == [] and mp_solves == [16, 16]

    @staticmethod
    def designs():
        return [
            (design_yule_walker, (32, 0.05)),
            (design_multiband, (48, list(K4_EDGES), list(K4_WEIGHTS))),
        ]
