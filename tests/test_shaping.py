"""Filter design: normal equations, closed-form powers, min phase, targets."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from mdsigma import _native, shaping
from mdsigma.shaping import (
    MAX_ORDER,
    MinPhaseReport,
    ShapingFilter,
    band_power,
    design_multiband,
    design_yule_walker,
    filter_powers,
    find_lambda_for_ratio,
    min_phase_check,
)
from mdsigma.theory import K4Spec

from conftest import zeros_within
from reference import (
    QUADRATURE_POINTS,
    BrickWallSpec,
    brickwall_autocorrelation,
    quadrature_grid,
    reflections_mpf,
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


def design_grid_items(seed):
    """(gammas, multiband): the 24 designs of a round of the benchmark's
    ``design_grid`` workload at ``seed``, as (p, gamma) for the Yule-Walker
    designs at p in {8, 16, 32, 48, 64} x gamma in {4, 8, 17, 32}, and as
    (p, edges, weights) for the K=4 multiband designs at p in {16, 32, 48,
    64}, each gamma and delta0 = 0.2 jittered by up to +-5 % in that order."""
    rng = np.random.default_rng(seed)
    gammas = [
        (p, g * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))) for p in (8, 16, 32, 48, 64) for g in (4.0, 8.0, 17.0, 32.0)
    ]
    multiband = []
    for p in (16, 32, 48, 64):
        d0 = 0.2 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
        d2 = 1.0 / math.sqrt(d0 * 1.0)
        multiband.append((p, K4_EDGES, (1.0 / d0, 1.0 / d2, 1.0 / 1.0)))
    return gammas, multiband


def design_grid_filters(seed):
    """The 24 filters of ``design_grid_items``' round at ``seed``."""
    gammas, multiband = design_grid_items(seed)
    return [design_yule_walker(p, find_lambda_for_ratio(g, p)) for p, g in gammas] + [
        design_multiband(*args) for args in multiband
    ]


def random_monic(rng, p, radii):
    """A real monic polynomial of order p with zeros of magnitude drawn from
    ``radii`` (low, high): complex pairs and real zeros of random sign."""
    zeros = []
    while len(zeros) < p:
        r = rng.uniform(*radii)
        if p - len(zeros) >= 2 and rng.uniform() < 0.8:
            z = r * np.exp(1j * rng.uniform(0.0, np.pi))
            zeros += [z, z.conjugate()]
        else:
            zeros.append(r * rng.choice([-1.0, 1.0]))
    return ShapingFilter(tuple(np.real(np.poly(zeros)).tolist()))


def report_bits(report):
    return type(report.is_min_phase), report.is_min_phase, type(report.max_reflection), report.max_reflection.hex()


@pytest.fixture
def mp_step_downs(monkeypatch):
    """The orders of the mpmath step-downs, as they run."""
    calls = []
    real = shaping._step_down_mp
    monkeypatch.setattr(shaping, "_step_down_mp", lambda coeffs: calls.append(len(coeffs) - 1) or real(coeffs))
    return calls


class TestCertifiedStepDown:
    # the compiled double-double step-down gives the report only where its
    # bound proves both fields equal to the mpmath step-down's

    def test_benchmark_grid_decided_without_mpmath(self, monkeypatch, mp_step_downs):
        filters = [f for seed in (1, 2, 3) for f in design_grid_filters(seed)]
        got = [report_bits(min_phase_check(f)) for f in filters]
        assert got == [report_bits(shaping._step_down_mp(f.coeffs)) for f in filters]
        assert all(bits[1] is True and bits[2] is float for bits in got)
        mp_step_downs.clear()
        [min_phase_check(f) for f in filters]
        assert mp_step_downs == ([] if _native.library() is not None else [f.order for f in filters])
        # without the library every report comes from mpmath, the same bits
        monkeypatch.setattr(_native, "library", lambda: None)
        mp_step_downs.clear()
        assert [report_bits(min_phase_check(f)) for f in filters] == got
        assert mp_step_downs == [f.order for f in filters]

    def test_random_polynomials_of_every_order(self):
        # zeros inside the unit circle at even orders, some outside at odd
        # ones; the running bound grows with the order and as |k| nears 1,
        # so from about p = 24 on many of these fall back, and every order
        # up to 20 is decided in double-double
        rng = np.random.default_rng(32)
        decided = []
        for p in range(1, MAX_ORDER + 1):
            filt = random_monic(rng, p, (0.05, 0.9) if p % 2 == 0 else (0.3, 1.2))
            fast = shaping._step_down_dd(filt.coeffs)
            want = report_bits(shaping._step_down_mp(filt.coeffs))
            assert report_bits(min_phase_check(filt)) == want, p
            if fast is not None:
                decided.append(p)
                assert report_bits(fast) == want, p
        assert decided[:20] == (list(range(1, 21)) if _native.library() is not None else [])

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1.0,),
            (1.0, 0.0),
            (1.0, 0.0, 0.0, 0.0),
            (1.0, -0.5, 0.0, 0.0),
            (1.0, 0.99995),
            (1.0, -1.0),
            (1.0, 1.00005),
            (1.0, 0.3, -1.0),
            (1.0, 0.5, 0.25, 2.0),
            (1.0, 2.0**-1074),
            (1.0, 1e300),
        ],
    )
    def test_edge_cases(self, coeffs):
        filt = ShapingFilter(coeffs)
        assert report_bits(min_phase_check(filt)) == report_bits(shaping._step_down_mp(coeffs))

    @pytest.mark.parametrize("p", [38, 42, 44])
    def test_zeros_next_to_the_unit_circle_fall_back(self, p, mp_step_downs):
        # the lambda = 0 designs: too ill-conditioned for the bound
        filt = design_yule_walker(p, 0.0)
        mp_step_downs.clear()
        rep = min_phase_check(filt)
        assert mp_step_downs == [p]
        assert report_bits(rep) == report_bits(shaping._step_down_mp(filt.coeffs))

    @pytest.mark.parametrize("p", [1, 2, 3, 8, 32, 64, MAX_ORDER])
    def test_every_reflection_within_its_bound(self, p):
        # each double-double k_i lies within its bound dk_i of the mpf
        # step-down's k_i at the design precision, at every step, on
        # polynomials with zeros well inside, near and outside the circle
        lib = _native.library()
        if lib is None:
            assert _native._compiler() is None
            return
        rng = np.random.default_rng(3200 + p)
        dps = shaping._design_dps(p)
        u_mp = math.ldexp(1.0, max(1 - mp.libmp.dps_to_prec(dps), -1000))
        steps, worst = 0, 0.0
        # the kernel takes any leading coefficient: a_0 = 3 makes even the
        # first quotient inexact
        for radii in ((0.05, 0.9), (0.9, 0.999), (0.5, 1.1), (0.99, 0.99999)):
            for lead in (1.0, 3.0):
                coeffs = np.array(random_monic(rng, p, radii).coeffs) * lead
                out = np.empty((3, p))
                n = lib.stepdown_dd(coeffs, p, u_mp, out)
                if n < 0:
                    continue
                ks = reflections_mpf(coeffs.tolist(), dps)
                assert n == len(ks)
                with mp.workdps(dps):
                    for k, (hi, lo, dk) in zip(ks, out[:, :n].T):
                        err = abs(mp.mpf(hi) + mp.mpf(lo) - k)
                        assert err <= dk, (radii, lead, steps)
                        worst = max(worst, float(err / dk))
                        steps += 1
        # the bound is met by errors that are not all zero
        assert steps >= p and worst > 0.0

    @pytest.mark.parametrize("p", [1, 8, MAX_ORDER])
    def test_first_bound_covers_its_float64_evaluation(self, p):
        # the first step starts from exact coefficients, so its bound is
        # (16u^2 + u_mp) |c_p| (1 + 2^-52) / (|c_0| (1 - 2^-52)) + 2^-900;
        # the kernel's float64 value must not fall below it evaluated exactly
        lib = _native.library()
        if lib is None:
            assert _native._compiler() is None
            return
        rng = np.random.default_rng(3300 + p)
        u_mp = math.ldexp(1.0, max(1 - mp.libmp.dps_to_prec(shaping._design_dps(p)), -1000))
        out = np.empty((3, p))
        with mp.workprec(400):
            for _ in range(20):
                coeffs = np.concatenate(([rng.uniform(0.5, 3.0)], rng.uniform(-0.4, 0.4, p)))
                assert lib.stepdown_dd(coeffs, p, u_mp, out) >= 1
                up, down = 1 + mp.mpf(2) ** -52, 1 - mp.mpf(2) ** -52
                g = abs(mp.mpf(coeffs[p])) * up / (mp.mpf(coeffs[0]) * down)
                want = (16 * mp.mpf(2) ** -106 + mp.mpf(u_mp)) * g + mp.mpf(2) ** -900
                assert mp.mpf(out[2, 0]) >= want

    @pytest.mark.parametrize(
        "k_hi, k_lo, want",
        [
            # |k| = 0.5 - 2^-55 - 2^-70 lies below the midpoint 0.5 - 2^-55
            # between 0.5 and its lower neighbour, where the gap halves
            (-0.5, 2.0**-55 + 2.0**-70, MinPhaseReport(True, 0.5 - 2.0**-54)),
            (0.5, -(2.0**-55) - 2.0**-70, MinPhaseReport(True, 0.5 - 2.0**-54)),
            (0.5, 2.0**-55 + 2.0**-70, MinPhaseReport(True, 0.5)),
            # |k_hi| = 1 stops the step-down, but |k| < 1: not decided
            (-1.0, 2.0**-60, None),
            (-2.0, 2.0**-60, MinPhaseReport(False, 2.0)),
        ],
    )
    def test_reflection_read_with_the_sign_of_its_low_part(self, monkeypatch, k_hi, k_lo, want):
        # the kernel's last k, as given: |k| is |k_hi| + k_lo sign(k_hi)
        class Kernel:
            def stepdown_dd(self, c, p, u_mp, out):
                out[:, 0] = k_hi, k_lo, 2.0**-80
                return 1

        monkeypatch.setattr(_native, "library", Kernel)
        assert shaping._step_down_dd((1.0, 0.5)) == want

    def test_step_down_stops_at_the_first_unit_reflection(self):
        # k_2 = -1 exactly: one step, where going on would divide by a
        # pivot of 0
        lib = _native.library()
        if lib is None:
            assert _native._compiler() is None
            return
        out = np.empty((3, 2))
        assert lib.stepdown_dd(np.array([1.0, 0.3, -1.0]), 2, 2.0**-200, out) == 1
        assert out[0, 0] == -1.0 and out[1, 0] == 0.0


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

    def test_target_below_two_to_the_minus_200_is_reached(self, monkeypatch):
        # a monotone stand-in ratio, 2 + 1e3 / (1 + lambda 2^300), puts the
        # target 2 + 500 at lambda = 2^-300: the bisection must halve past
        # 200 times to get there
        def ratio(lags, lam):
            return 2.0 + 1e3 / (1.0 + math.ldexp(float(lam), 300))

        monkeypatch.setattr(shaping, "_ratio_at", ratio)
        monkeypatch.setattr(shaping, "_F64_LAMBDA_FLOOR", math.inf)
        shaping._half_band_range.cache_clear()
        try:
            lam = find_lambda_for_ratio(502.0, 8)
        finally:
            shaping._half_band_range.cache_clear()
        assert abs(ratio(None, lam) / 502.0 - 1.0) <= shaping._REL_TOL
        assert lam == pytest.approx(2.0**-300, rel=1e-3)

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

    def test_sine_table_is_kept_per_order_and_edges(self):
        # designs on two sets of edges at one order, alternating, each equal
        # to the recursion run on lags whose sines are taken afresh; the
        # double-double path reads the band basis, the mpmath path the sines
        def fresh_design(p, edges, weights):
            with mp.workdps(shaping._design_dps(p)):
                pi = mp.pi
                edges_mp = [mp.mpf(repr(e)) for e in edges]
                weights_mp = [mp.mpf(repr(w)) for w in weights]
                r = []
                for d in range(p + 1):
                    acc = lo = sin_lo = mp.mpf(0)
                    for hi, w in zip(edges_mp, weights_mp):
                        if d == 0:
                            acc += w * (hi - lo) / pi
                        else:
                            sin_hi = mp.sin(hi * d)
                            acc += w * (sin_hi - sin_lo) / (pi * d)
                            sin_lo = sin_hi
                        lo = hi
                    r.append(acc)
                coeffs, _ = shaping._levinson(r, p)
            return tuple(float(c) for c in coeffs)

        cases = [(K4_EDGES, K4_WEIGHTS), ((np.pi / 3, np.pi), (4.0, 1.0))]
        for edges, weights in cases + cases:
            assert design_multiband(16, edges, weights).coeffs == fresh_design(16, edges, weights)
        table = shaping._band_basis if _native.library() is not None else shaping._band_sines
        assert table.cache_info().hits >= 2

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

    def test_float64_steps_need_neither_the_library_nor_the_recursion(self, monkeypatch):
        # a float64 step is the closed form on the order's cached spectrum,
        # so the bisection takes one path whether or not the library loads
        expected = find_lambda_for_ratio(17.0, 32)

        def unreachable(*args):
            raise AssertionError("a float64 step left the closed form")

        monkeypatch.setattr(_native, "library", unreachable)
        monkeypatch.setattr(shaping, "_levinson", unreachable)
        assert find_lambda_for_ratio(17.0, 32) == expected

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
            fresh, _ = shaping._yule_walker(half_band_lags(32), mp.mpf(repr(0.05)))
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

        def misplaced(spectrum, lam):
            calls["f64"] += 1
            ratio, err = real_f64(spectrum, lam)
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

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 32, 48, 64, 100, MAX_ORDER])
    def test_float64_ratio_within_the_first_order_bound(self, p):
        # err carries a headroom of 16 over the first-order bound; the
        # observed error of the closed form on the order's cached spectrum
        # stays inside the bound itself
        lags, spectrum, _ = shaping._half_band_range(p)
        for k in range(-6, 9):
            lam = 10.0 ** (k / 2)
            ratio, err = shaping._ratio_f64(spectrum, lam)
            assert abs(ratio - shaping._ratio_at(lags, lam)) <= err / 16, lam


# ---------------------------------------------------------------------------
# the extended-precision Levinson recursion
# ---------------------------------------------------------------------------


# designs with no eigenvalue floor, so only the extended-precision recursion
# makes them, and the sha256 of their float.hex() coefficients, joined with
# "," within a design and ";" between designs
EXTENDED_ONLY_DESIGNS = [(design_yule_walker, (p, 0.0)) for p in (1, 8, 32, 42, 44, 64, MAX_ORDER)] + [
    (design_multiband, (8, (np.pi / 2, np.pi), (0, 1))),
    (design_multiband, (48, K4_EDGES, (5, 0, 1))),
]
EXTENDED_ONLY_SHA256 = "236a8e449e86233d6e5ea274d300c6aaa07e6056a8860ef03dfae5af8db415b6"


class TestLevinsonTwins:
    def test_extended_precision_designs_keep_their_bits(self, mp_solves):
        # the double-double cross-check cannot reach these designs, so their
        # bits are pinned: a change to the extended-precision path that moves
        # any of them fails here
        designs = [design(*args) for design, args in EXTENDED_ONLY_DESIGNS]
        assert mp_solves == [args[0] for _, args in EXTENDED_ONLY_DESIGNS]
        text = ";".join(",".join(c.hex() for c in filt.coeffs) for filt in designs)
        assert hashlib.sha256(text.encode()).hexdigest() == EXTENDED_ONLY_SHA256

    def test_extended_recursion_keeps_its_mpf_bits(self):
        # rounding to float64 hides a change in the recursion's last mpf bits
        # (the energy taken as E - E k k, the inner sum added in reverse), so
        # the designs above keep their bits under it; on lags that are exact
        # doubles, at a fixed precision, every mpf operation rounds
        # correctly, and the bits of the solution are pinned themselves
        lags64 = [float(v) for v in half_band_lags(32)]
        solves = []
        with mp.workprec(200):
            for p, lam in ((8, 0.0), (32, 0.05)):
                r = [mp.mpf(lags64[0]) + 2 * mp.mpf(lam), *map(mp.mpf, lags64[1 : p + 1])]
                coeffs, energy = shaping._levinson(r, p)
                solves.append(",".join("%d*2^%d" % v.man_exp for v in [*coeffs[1:], energy]))
        digest = hashlib.sha256(";".join(solves).encode()).hexdigest()
        assert digest == "b877d121bec1131e08c39a12034085be6d635a7e1a3b04dc9639cf64f1d08500"


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
    # every design with a positive floor is solved in float64 and corrected
    # against a double-double residual, and its float64 rounding is returned
    # only where that residual's bound proves it equal to the rounding of
    # the extended-precision design

    def test_both_paths_agree_bitwise_on_a_grid(self, monkeypatch, mp_solves):
        # a p x log-lambda grid and a multiband grid; with the compiled
        # library none falls back to mpmath
        cases = [(design_yule_walker, (p, 10.0 ** k)) for p in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, MAX_ORDER)
                 for k in range(-6, 4)]
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
        # |a_j - c_j| <= beta at every iterate offered for certification,
        # the float64 solve and each correction, against the solve at the
        # design precision (at least 60 digits), on systems with floors
        # from 1e-8 to 1, and on systems scaled down, where the residual is
        # small against the error it bounds
        rng = np.random.default_rng(1000 + p)
        worst = 0.0
        with mp.workdps(shaping._design_dps(p)):
            for floor, scale in ((1e-8, 1.0), (1e-5, 1.0), (1e-2, 1.0), (1.0, 1.0), (1e-9, 1e-6), (1e-7, 1e-6)):
                r = random_toeplitz(rng, p, floor, scale)
                r_dd = shaping._to_dd(r)
                lag_err = shaping._DD_LAG_REL * shaping._toeplitz_norm(r_dd[0])
                iterates = list(shaping._dd_solutions(r_dd, floor, float(mp.fsum(map(abs, r))), lag_err))
                if _native.library() is None:
                    assert iterates == []
                    continue
                assert len(iterates) == shaping._DD_CORRECTIONS + 1, floor
                c, _ = shaping._levinson(r, p)
                for step, (a_hi, a_lo, beta) in enumerate(iterates):
                    for j in range(p + 1):
                        err = abs(float(c[j] - mp.mpf(a_hi[j]) - mp.mpf(a_lo[j])))
                        assert err <= beta, (floor, step, j)
                        worst = max(worst, err / beta)
        # no iterate is exact, so the check is not vacuous
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
            r_dd = shaping._to_dd(random_toeplitz(rng, p, 1e-3))
            r_hi, r_lo = r_dd
            # a float64 solve, given low parts below half its last place
            index = np.arange(p)
            a_hi = np.concatenate(([1.0], -np.linalg.solve(r_hi[np.abs(index[:, None] - index)], r_hi[1:])))
            a_lo = np.concatenate(([0.0], a_hi[1:] * rng.uniform(-(2.0**-54), 2.0**-54, p)))
            out = np.empty((3, p))
            lib.toeplitz_residual_dd(r_dd, np.array([a_hi, a_lo]), p, out)
            res_hi, res_lo, abs_sum = out
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
        # a lag error bound too wide for any rounding cell sends each design
        # to the extended-precision path, which gives the same coefficients
        want = [design(*args).coeffs for design, args in self.designs()]
        real = shaping._dd_design
        monkeypatch.setattr(shaping, "_dd_design", lambda r, floor, level_sum, lag_err: real(r, floor, level_sum, 1.0))
        for (design, args), coeffs in zip(self.designs(), want):
            mp_solves.clear()
            assert design(*args).coeffs == coeffs
            assert mp_solves == [args[0]]

    def test_failed_factorization_designs_in_mpmath(self, monkeypatch, mp_solves):
        # a float64 solve that fails is no error: each design runs
        # in extended precision and gives the same coefficients
        want = [mpmath_design(monkeypatch, design, *args).coeffs for design, args in self.designs()]

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
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
        real = shaping._dd_solutions
        monkeypatch.setattr(shaping, "_dd_solutions", lambda *a: calls.append(a) or real(*a))
        design_yule_walker(16, 0.0)
        design_multiband(16, [np.pi / 2, np.pi], [1.0, 0.0])
        assert calls == [] and mp_solves == [16, 16]

    @staticmethod
    def designs():
        return [
            (design_yule_walker, (32, 0.05)),
            (design_multiband, (48, list(K4_EDGES), list(K4_WEIGHTS))),
        ]


# ---------------------------------------------------------------------------
# multiband lags summed in double-double from the band basis
# ---------------------------------------------------------------------------


@pytest.fixture
def mp_lag_sums(monkeypatch):
    """The orders of the multiband lag sums made in mpmath, as they run."""
    calls = []
    real = shaping._multiband_lags_mp
    monkeypatch.setattr(shaping, "_multiband_lags_mp", lambda p, *a: calls.append(p) or real(p, *a))
    return calls


MULTIBAND_EDGE_SETS = [K4_EDGES, (np.pi / 4, np.pi / 2, 0.9 * np.pi), (np.pi / 2, np.pi), (np.pi / 3, np.pi)]


def criterion_8_weights():
    """The band weights of criterion 8's p = 48 design, as the harness reads
    them: 1/delta0, 1/delta2 and 1/delta1 of the three-step spectrum."""
    spec = K4Spec(delta0=0.2, delta1=1.0, sigma_e2=0.04)
    return (1.0 / spec.delta0, 1.0 / spec.delta2, 1.0 / spec.delta1)


class TestDoubleDoubleMultiband:
    # with the library loaded, a multiband design with every weight positive
    # sums its lags in double-double from the cached band basis; where the
    # certificate holds, neither the mpmath lag sum nor the recursion runs

    @staticmethod
    def grid():
        """(p, edges, weights): orders 1..128 on four edge sets, one with its
        last edge short of pi, and weights log-uniform in 1e-3..1e3."""
        rng = np.random.default_rng(33)
        orders = (1, 2, 3, 5, 8, 13, 16, 21, 32, 34, 48, 55, 64, 89, 100, MAX_ORDER)
        return [(p, edges, (10.0 ** rng.uniform(-3.0, 3.0, len(edges))).tolist())
                for p in orders for edges in MULTIBAND_EDGE_SETS]

    def test_grid_keeps_the_bits_of_the_mpmath_path(self, monkeypatch):
        cases = self.grid() + [args for seed in (1, 2, 3) for args in design_grid_items(seed)[1]]
        for args in cases:
            got = [c.hex() for c in design_multiband(*args).coeffs]
            assert got == [c.hex() for c in mpmath_design(monkeypatch, design_multiband, *args).coeffs], args

    def test_benchmark_and_criterion_8_designs_run_no_mpmath(self, monkeypatch, mp_solves, mp_lag_sums):
        cases = [args for seed in (1, 2, 3) for args in design_grid_items(seed)[1]]
        cases.append((48, K4_EDGES, criterion_8_weights()))
        got = [design_multiband(*args).coeffs for args in cases]
        if _native.library() is not None:
            assert mp_solves == [] and mp_lag_sums == []
        monkeypatch.setattr(_native, "library", lambda: None)
        mp_solves.clear()
        mp_lag_sums.clear()
        assert [design_multiband(*args).coeffs for args in cases] == got
        assert mp_solves == mp_lag_sums == [args[0] for args in cases]

    @pytest.mark.parametrize("p", [1, 16, 48, MAX_ORDER])
    def test_lags_within_their_bound(self, p):
        # each double-double lag lies within delta_d of the lag evaluated at
        # 3p + 40 digits, and the bound is not so loose that it is vacuous
        rng = np.random.default_rng(p)
        worst = 0.0
        for edges in MULTIBAND_EDGE_SETS:
            for weights in (criterion_8_weights()[: len(edges)], (10.0 ** rng.uniform(-3.0, 3.0, len(edges))).tolist()):
                with mp.workdps(shaping._design_dps(p)):
                    weights_mp = [mp.mpf(repr(w)) for w in weights]
                    r, delta = shaping._multiband_lags_dd(shaping._band_basis(p, edges), weights_mp)
                with mp.workdps(3 * p + 40):
                    pi = mp.pi
                    edges_mp = [mp.mpf(0), *(mp.mpf(repr(e)) for e in edges)]
                    weights_mp = [mp.mpf(repr(w)) for w in weights]
                    pairs = list(zip(edges_mp, edges_mp[1:]))
                    for d in range(p + 1):
                        if d == 0:
                            bands = [(hi - lo) / pi for lo, hi in pairs]
                        else:
                            bands = [(mp.sin(hi * d) - mp.sin(lo * d)) / (pi * d) for lo, hi in pairs]
                        exact = mp.fsum(w * b for w, b in zip(weights_mp, bands))
                        err = float(abs(mp.mpf(r[0, d]) + mp.mpf(r[1, d]) - exact))
                        assert err <= delta[d], (edges, weights, d)
                        worst = max(worst, err / delta[d])
        assert worst > 1e-3

    def test_zero_weight_sums_lags_in_mpmath(self, mp_solves, mp_lag_sums):
        # a zero weight leaves no floor, so the double-double lags are not made
        basis = shaping._band_basis.cache_info().currsize
        design_multiband(24, K4_EDGES, (5.0, 0.0, 1.0))
        assert mp_solves == mp_lag_sums == [24]
        assert shaping._band_basis.cache_info().currsize == basis


class TestImportTime:
    def test_import_builds_and_fills_nothing(self):
        # the library, the lag and sine tables, the band basis and the
        # half-band spectra are made on first use, so importing mdsigma adds
        # none of them to the start-up of a process that never designs a
        # filter
        code = (
            "import mdsigma; from mdsigma import _native, shaping; "
            "print(*(f.cache_info().currsize for f in (_native.library, shaping._band_sines,"
            " shaping._band_basis, shaping._half_band_lags, shaping._half_band_range)))"
        )
        path = [os.path.dirname(os.path.dirname(shaping.__file__)), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0", "0", "0", "0", "0"]
