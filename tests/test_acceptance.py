"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  The Monte-Carlo criteria share one seeded 2^20-sample,
4-trial run (criterion 3's configuration).  The golden tests compare the
criterion-3, -8 and -9 runs, and two ``mdsigma sweep`` CSVs, with the
files under ``tests/golden/`` (see ``golden_outputs``).
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import mdsigma
from mdsigma.codec import delta_sigma_loop
from mdsigma.ecdq import QuantizerSpec
from mdsigma.harness import ExperimentConfig, run
from mdsigma.shaping import ShapingFilter, design_yule_walker, filter_powers, find_lambda_for_ratio
from mdsigma.theory import (
    K4Spec,
    brickwall_point,
    gaussian_rate_bits,
    k4_point,
    ozarow_bounds,
    wiener_gain,
)

import golden_outputs
from conftest import zeros_within
from reference import BrickWallSpec, error_statistics, truncated_fourier_brickwall_error

MC_SEED = 20090401


def _verdict(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return ok


def _design_gap(pdc, pds, rate, se2, sx2):
    """D_c/bound - 1 for the Wiener distortions of noise powers P_dc and
    P_ds, against the two-description bound at rate R and side distortion
    D_s."""
    dc = wiener_gain(sx2, se2, pdc) * se2 * pdc
    ds = wiener_gain(sx2, se2, pds) * se2 * pds
    return dc / ozarow_bounds(rate, ds, sx2) - 1.0


@pytest.fixture(scope="module")
def warm_codec():
    # warm-up (imports, first designs and FFTs) so timed criteria measure the simulation
    cfg = ExperimentConfig(
        sigma_e2=0.01, p=2, gamma=3.0, n_samples=1 << 14, n_trials=1, master_seed=1
    )
    run(cfg)


# closed-loop Monte-Carlo configuration: sigma_x2 = 1, step = sqrt(0.12)
# (noise variance 0.01), order 32 targeting P_ds/P_dc = 17, 2^20 samples,
# 4 trials
MC_CONFIG = ExperimentConfig(
    sigma_x2=1.0,
    quant_step=math.sqrt(0.12),
    filter_kind="yule_walker_gamma",
    p=32,
    gamma=17.0,
    n_samples=1 << 20,
    n_trials=4,
    master_seed=MC_SEED,
    tol_mse_rel=0.03,
)

# criterion 8: the three-step spectrum at delta0 = 0.2, delta1 = 1, K = 4
K4_SPEC = K4Spec(delta0=0.2, delta1=1.0, sigma_e2=0.04, sigma_x2=1.0)
K4_CONFIG = ExperimentConfig(
    sigma_x2=1.0,
    sigma_e2=0.04,
    filter_kind="multiband",
    p=48,
    band_edges=(math.pi / 4, 3 * math.pi / 4, math.pi),
    band_weights=(1.0 / K4_SPEC.delta0, 1.0 / K4_SPEC.delta2, 1.0 / K4_SPEC.delta1),
    oversampling=4,
    n_samples=1 << 20,
    n_trials=1,
    master_seed=MC_SEED,
    tol_mse_rel=0.05,
)


def universality_config(dist):
    """Criterion 9's run of a non-Gaussian source at high resolution."""
    return ExperimentConfig(
        sigma_x2=1.0,
        sigma_e2=1e-3,
        filter_kind="yule_walker_gamma",
        p=32,
        gamma=17.0,
        n_samples=1 << 20,
        n_trials=2,
        master_seed=MC_SEED + 9,
        source_dist=dist,
        tol_mse_rel=0.03,
    )


@pytest.fixture(scope="module")
def mc_run(warm_codec, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "mc.csv"
    start = time.perf_counter()
    result = run(MC_CONFIG, csv_path=out)
    elapsed = time.perf_counter() - start
    return result, out, elapsed


@pytest.fixture(scope="module")
def k4_run(warm_codec):
    start = time.perf_counter()
    result = run(K4_CONFIG)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module", params=["laplace", "uniform"])
def universality_run(warm_codec, request):
    return request.param, run(universality_config(request.param))


def test_criterion_01_ozarow_achievability():
    start = time.perf_counter()
    worst = 0.0
    for delta in (1.0, 2.0, 4.0, 8.0):
        for k in range(1, 31):
            pt = brickwall_point(delta, 10.0**-k, 1.0)
            worst = max(worst, abs(pt.dc / ozarow_bounds(pt.rate_bits, pt.ds, 1.0) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _verdict(1, ok, f"central distortion meets the bound, max rel err {worst:.2e} ({elapsed:.2f} s)")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_high_resolution_distortion_product():
    start = time.perf_counter()
    pt = brickwall_point(4.0, 1e-4, 1.0)
    ref = 0.25 / (1.0 - pt.dc / pt.ds) * 2.0 ** (-4.0 * pt.rate_bits)
    ratio = pt.dc * pt.ds / ref
    elapsed = time.perf_counter() - start
    ok = 0.999 <= ratio <= 1.001 and elapsed < 1.0
    assert _verdict(2, ok, f"dc*ds product ratio {ratio:.6f} ({elapsed:.2f} s)")
    assert 0.999 <= ratio <= 1.001
    assert elapsed < 1.0


def test_criterion_03_monte_carlo_codec_vs_closed_form(mc_run):
    result, _, elapsed = mc_run
    central = result.pattern("central")
    even = result.pattern("even")
    odd = result.pattern("odd")
    rels = {
        "central": central.mse_emp / central.mse_theory - 1.0,
        "even": even.mse_emp / even.mse_theory - 1.0,
        "odd": odd.mse_emp / odd.mse_theory - 1.0,
    }
    balance = abs(even.mse_emp - odd.mse_emp) / even.mse_theory
    ok = (
        all(abs(r) <= 0.03 for r in rels.values())
        and balance <= 0.02
        and elapsed < 60.0
    )
    assert _verdict(
        3,
        ok,
        "empirical vs closed form: "
        + " ".join(f"{k} {v:+.3%}" for k, v in rels.items())
        + f", even/odd gap {balance:.3%} ({elapsed:.1f} s)",
    )
    # how far the run sits from the two-description region, not only from
    # its own closed form: the design's Wiener distortions at the closed-form
    # rate, and the Monte Carlo's central MSE against the bound at its
    # Gaussian-accounting rate and mean side MSE; reported, not gated
    se2, sx2 = result.config.noise_variance, result.config.sigma_x2
    design_gap = _design_gap(result.pdc, result.pds, result.rate_theory_bits, se2, sx2)
    side = 0.5 * (even.mse_emp + odd.mse_emp)
    mc_gap = central.mse_emp / ozarow_bounds(result.rate_gauss_emp_bits, side, sx2) - 1.0
    print(
        f"criterion 03 gap to Ozarow's bound: design {design_gap:.3e} (R = {result.rate_theory_bits:.5f} bits), "
        f"Monte Carlo {mc_gap:.3e} (R = {result.rate_gauss_emp_bits:.5f} bits)"
    )
    for r in rels.values():
        assert abs(r) <= 0.03
    assert balance <= 0.02
    assert elapsed < 60.0


def test_criterion_04_dither_error_statistics():
    q = QuantizerSpec(step=0.7)
    rng = np.random.default_rng(MC_SEED)
    n = 10**6
    s = rng.standard_normal(n)
    z = rng.uniform(-q.step / 2, q.step / 2, n)
    # the codec's own quantizer: the order-0 loop is plain dithered quantization
    err = delta_sigma_loop(s, ShapingFilter((1.0,)), z, q.step).quant_error
    rep = error_statistics(err, s, q)
    gate = 4.0 / math.sqrt(n)
    var_rel = rep.variance / q.noise_variance - 1.0
    ok = (
        abs(var_rel) <= 0.01
        and rep.uniformity_statistic <= 0.005
        and np.abs(rep.lag_autocorr).max() <= gate
        and abs(rep.input_crosscorr) <= gate
    )
    assert _verdict(
        4,
        ok,
        f"error variance {var_rel:+.3%}, KS {rep.uniformity_statistic:.4f}, "
        f"max |autocorr| {np.abs(rep.lag_autocorr).max():.2e} vs gate {gate:.2e}",
    )
    assert abs(var_rel) <= 0.01
    assert rep.uniformity_statistic <= 0.005
    assert np.abs(rep.lag_autocorr).max() <= gate
    assert abs(rep.input_crosscorr) <= gate


def test_criterion_05_yule_walker_and_min_phase():
    f1 = design_yule_walker(1, 0.0)
    err1 = abs(f1.coeffs[1] - (-2.0 / math.pi))
    det = 1.0 - 4.0 / math.pi**2
    f2 = design_yule_walker(2, 0.0)
    err2 = max(
        abs(f2.coeffs[1] - (-(2.0 / math.pi) / det)),
        abs(f2.coeffs[2] - (4.0 / math.pi**2) / det),
    )
    inside = True  # every zero within 1 - 1e-6 of the origin
    monotone = True
    for lam in (0.0, 0.01, 0.1, 1.0):
        prev = None
        for p in (1, 2, 4, 8, 16, 32):
            filt = design_yule_walker(p, lam)
            inside = inside and zeros_within(filt, 1.0 - 1e-6)
            pdc, _ = filter_powers(filt)
            if prev is not None and pdc > prev + 1e-15:
                monotone = False
            prev = pdc
    ok = err1 <= 1e-10 and err2 <= 1e-10 and inside and monotone
    assert _verdict(
        5,
        ok,
        f"low-order coeff err {max(err1, err2):.2e}, zeros within 1 - 1e-6: {inside}, "
        f"P_dc monotone in p: {monotone}",
    )
    assert err1 <= 1e-10 and err2 <= 1e-10
    assert inside
    assert monotone


def test_criterion_06_truncated_fourier_convergence():
    bw = BrickWallSpec(4.0)
    orders = np.array([8.0, 16.0, 32.0, 64.0])
    errs = np.array([truncated_fourier_brickwall_error(bw, int(p)) for p in orders])
    slope = float(np.polyfit(np.log(orders), np.log(errs), 1)[0])
    ok = bool(np.all(np.diff(errs) < 0)) and -1.3 <= slope <= -0.7
    assert _verdict(6, ok, f"spectrum-approximation MSE log-log slope {slope:.3f}")
    assert np.all(np.diff(errs) < 0)
    assert -1.3 <= slope <= -0.7


def test_criterion_07_variance_and_rate_accounting(mc_run):
    result, _, _ = mc_run
    var_rel = result.var_quantized_emp / result.var_quantized_theory - 1.0
    rate_gap = abs(result.rate_gauss_emp_bits - result.rate_theory_bits)
    ent_gap = result.index_entropy_bits - result.rate_theory_bits
    ok = abs(var_rel) <= 0.01 and rate_gap <= 0.02 and 0.1 <= ent_gap <= 0.45
    assert _verdict(
        7,
        ok,
        f"Var(quantized) {var_rel:+.4%}, rate gap {rate_gap:.4f} bits, "
        f"index-entropy excess {ent_gap:.4f} bits (space-filling 0.2546, "
        f"miller bias {result.index_entropy_miller_bits:.1e})",
    )
    assert abs(var_rel) <= 0.01
    assert rate_gap <= 0.02
    assert 0.1 <= ent_gap <= 0.45


def test_criterion_08_four_descriptions(k4_run):
    result, elapsed = k4_run
    ideal = k4_point(K4_SPEC)
    rels = {}
    rels["central"] = result.pattern("central").mse_emp / ideal.dc - 1.0
    for pat in ("pair02", "pair13"):
        rels[pat] = result.pattern(pat).mse_emp / ideal.d2 - 1.0
    for j in range(4):
        rels[f"single{j}"] = result.pattern(f"single{j}").mse_emp / ideal.d1 - 1.0
    ok = all(abs(r) <= 0.05 for r in rels.values()) and elapsed < 120.0
    assert _verdict(
        8,
        ok,
        "vs three-step targets: "
        + " ".join(f"{k} {v:+.2%}" for k, v in rels.items())
        + f" ({elapsed:.1f} s)",
    )
    for r in rels.values():
        assert abs(r) <= 0.05
    assert elapsed < 120.0


def test_criterion_09_universality(universality_run):
    dist, result = universality_run
    rels = {
        pr.pattern: pr.mse_emp / pr.mse_theory - 1.0 for pr in result.patterns
    }
    ok = all(abs(r) <= 0.03 for r in rels.values())
    assert _verdict(
        9, ok, f"{dist} source: " + " ".join(f"{k} {v:+.3%}" for k, v in rels.items())
    )
    for r in rels.values():
        assert abs(r) <= 0.03


def test_criterion_10_determinism(mc_run, tmp_path):
    _, first_csv, _ = mc_run
    repeat = tmp_path / "repeat.csv"
    run(MC_CONFIG, csv_path=repeat)
    identical = first_csv.read_bytes() == repeat.read_bytes()
    assert _verdict(10, identical, "repeated run produced byte-identical CSV")
    assert identical


# the window for the log-log slope of the gap from p = 4 to p = 128,
# around the -0.977 (gamma = 4) and -1.048 (gamma = 17) of these designs;
# the design at 1/lambda, which weighs P_dc by lambda in place of P_ds,
# reads -0.945 and -0.873
OZAROW_GAP_SLOPE = (-1.08, -0.95)


def test_criterion_11_designs_approach_ozarow_as_one_over_p():
    # the Yule-Walker design at P_ds/P_dc = gamma, with sigma_E^2 = 0.01 and
    # Wiener post-multipliers, lies above the two-description bound at its
    # own rate and side distortion by a gap that falls as 1/p
    start = time.perf_counter()
    se2, sx2 = 0.01, 1.0
    orders = (4, 8, 16, 32, 64, 128)
    gaps, slopes, off_target = {}, {}, 0.0
    for gamma in (4.0, 17.0):
        gaps[gamma] = []
        for p in orders:
            pdc, pds = filter_powers(design_yule_walker(p, find_lambda_for_ratio(gamma, p)))
            # the bisection stops within 1e-6 of gamma; rounding the design
            # to float64 moves the ratio by far less than the slack
            off_target = max(off_target, abs(pds / pdc / gamma - 1.0))
            rate = gaussian_rate_bits(sx2 + se2 * pds, se2)
            gaps[gamma].append(_design_gap(pdc, pds, rate, se2, sx2))
        slopes[gamma] = math.log(gaps[gamma][-1] / gaps[gamma][0]) / math.log(orders[-1] / orders[0])
    elapsed = time.perf_counter() - start
    lo, hi = OZAROW_GAP_SLOPE
    falling = all(g[0] > 0 and all(a > b > 0 for a, b in zip(g, g[1:])) for g in gaps.values())
    in_window = all(lo <= s <= hi for s in slopes.values())
    ok = off_target <= 1e-6 + 1e-9 and falling and in_window and elapsed < 2.0
    assert _verdict(
        11,
        ok,
        "gap to Ozarow's bound at p = 4..128: "
        + "; ".join(
            f"gamma {g:g} {vals[0]:.2e} -> {vals[-1]:.2e}, slope {slopes[g]:.3f}" for g, vals in gaps.items()
        )
        + f", ratio off gamma by {off_target:.1e} ({elapsed:.2f} s)",
    )
    assert off_target <= 1e-6 + 1e-9
    assert falling
    assert in_window
    assert elapsed < 2.0


def _golden(name, output):
    how = golden_outputs.check(name, output)
    print(f"golden {name}: compared {how}")


def test_golden_criterion_03(mc_run):
    _, csv_path, _ = mc_run
    _golden("criterion_03.csv", csv_path.read_bytes())


def test_golden_criterion_08(k4_run):
    result, _ = k4_run
    _golden("criterion_08.csv", result.to_csv().encode("utf-8"))


def test_golden_criterion_09(universality_run):
    dist, result = universality_run
    _golden(f"criterion_09_{dist}.csv", result.to_csv().encode("utf-8"))


@pytest.mark.parametrize("name", sorted(golden_outputs.SWEEPS))
def test_golden_sweep(name):
    _golden(name, golden_outputs.sweep_csv(golden_outputs.SWEEPS[name]))


def test_golden_check_off_platform_compares_cells_to_1e_12(monkeypatch):
    # where the platform lines differ, a cell may move by an ulp but not
    # by 1e-11 relative
    name = "sweep_deltas.csv"
    body = golden_outputs.sweep_csv(golden_outputs.SWEEPS[name]).decode("utf-8")
    monkeypatch.setattr(golden_outputs, "platform_lines", lambda: ["# numpy: elsewhere\n"])
    header, first, *rest = body.splitlines(keepends=True)
    cells = first.rstrip("\n").split(",")
    bound = float(cells[-1])

    def with_bound(value):
        return "".join([header, ",".join([*cells[:-1], format(value, ".17g")]) + "\n", *rest]).encode("utf-8")

    assert golden_outputs.check(name, body.encode("utf-8")).startswith("each numeric cell to 1e-12 relative")
    golden_outputs.check(name, with_bound(math.nextafter(bound, math.inf)))
    with pytest.raises(AssertionError, match="line 2 column 10"):
        golden_outputs.check(name, with_bound(bound * (1.0 + 1e-11)))


def test_numeric_probe_sees_the_vector_code_numpy_picks():
    # numpy's float64 exp and log have AVX-512 loops only: with them
    # switched off they give other bits, so the probe differs and the
    # golden files are compared cell by cell.  Where numpy reports no
    # X86_V4 (an AVX2-only CPU, or numpy before the X86_V* names) there is
    # nothing that moves a bit to switch off
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("X86_V4"):
        return
    path = [os.path.dirname(golden_outputs.__file__), os.path.dirname(os.path.dirname(mdsigma.__file__))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"}
    code = "import golden_outputs; print(golden_outputs.numeric_probe())"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.strip()) == 64
    assert run.stdout.strip() != golden_outputs.numeric_probe()
