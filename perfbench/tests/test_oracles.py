"""Each oracle accepts the library's real output and rejects a perturbed one.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import math
import time

import numpy as np
import pytest

import mdsigma
import oracles
import tracing
import workloads
from mdsigma import shaping


class SmallK2(workloads.McK2P32):
    n_samples = 1 << 17


class SmallK4(workloads.McK4P48):
    n_samples = 1 << 17


@pytest.fixture(scope="module")
def k2_round(tmp_path_factory):
    work = SmallK2(mdsigma, 7, str(tmp_path_factory.mktemp("k2")))
    rnd = work.run_round()
    with open(work.csv_path, "rb") as fh:
        return work, rnd, fh.read()


@pytest.fixture(scope="module")
def k4_round(tmp_path_factory):
    work = SmallK4(mdsigma, 7, str(tmp_path_factory.mktemp("k4")))
    rnd = work.run_round()
    with open(work.csv_path, "rb") as fh:
        return work, rnd, fh.read()


def _problems(found):
    return [p for problems in found.values() for p in problems]


def _rows_with(data, pattern, column, scale):
    rows = oracles.parse_csv(data.decode())
    for row in rows:
        if row["pattern"] == pattern:
            row[column] *= scale
    return rows


# ---------------------------------------------------------------------------
# Band powers
# ---------------------------------------------------------------------------


def test_band_power_matches_dense_quadrature():
    c = np.concatenate([[1.0], np.random.default_rng(3).normal(0.0, 0.4, 12)])
    n = 1 << 18
    w = (np.arange(n) + 0.5) * (math.pi / n)  # midpoints on (0, pi)
    spec = np.abs(np.polyval(c[::-1], np.exp(-1j * w))) ** 2
    for lo, hi in ((0.0, math.pi / 2), (math.pi / 4, 3 * math.pi / 4), (0.0, math.pi)):
        inside = (w >= lo) & (w < hi)
        # (1/2pi) * 2 * integral over (lo, hi), midpoint rule
        quad = float(np.sum(spec[inside]) / n)
        assert oracles.band_power(c, lo, hi) == pytest.approx(quad, rel=1e-8)
    assert oracles.band_power(c, 0.0, math.pi) == pytest.approx(float(np.sum(c * c)), rel=1e-12)


def test_three_step_targets_are_the_band_sums():
    t = oracles.three_step_targets(0.2, 1.0, 0.04)
    delta2 = 1.0 / math.sqrt(0.2)
    assert t["central"] == pytest.approx(0.04 * 0.2 / 4)
    assert t["pair"] == pytest.approx(0.04 * (0.2 + 1.0) / 4)
    assert t["single"] == pytest.approx(0.04 * (0.2 / 4 + delta2 / 2 + 1.0 / 4))


# ---------------------------------------------------------------------------
# Codec runs
# ---------------------------------------------------------------------------


def test_real_rounds_pass_every_oracle(k2_round, k4_round):
    for _, rnd, _ in (k2_round, k4_round):
        assert rnd.operations
        assert all(not op.failed for op in rnd.operations), [op.problems for op in rnd.operations]


@pytest.mark.parametrize("fixture, pattern, scale", [
    ("k2_round", "central", 1.05),
    ("k2_round", "odd", 1.05),
    ("k4_round", "pair13", 1.06),
    ("k4_round", "central", 0.94),
])
def test_mse_oracle_rejects_a_scaled_mse(request, fixture, pattern, scale):
    work, _, data = request.getfixturevalue(fixture)
    cfg = work.config
    args = (work.coeffs, cfg.oversampling, cfg.sigma_x2, cfg.noise_variance,
            cfg.multiplier_mode == "wiener", work.targets())
    assert not _problems(oracles.check_mse(oracles.parse_csv(data.decode()), *args))
    found = oracles.check_mse(_rows_with(data, pattern, "mse_emp", scale), *args)
    assert [key[1] for key, problems in found.items() if problems] == [pattern]


def test_mse_oracle_checks_the_three_step_targets(k4_round):
    work, _, data = k4_round
    cfg = work.config
    rows = oracles.parse_csv(data.decode())
    # a closed form that agrees with the run but a target 10 % off
    targets = {k: v * 1.1 for k, v in work.targets().items()}
    found = oracles.check_mse(rows, work.coeffs, 4, cfg.sigma_x2, cfg.noise_variance, False, targets)
    assert all("three-step" in " ".join(p) for p in found.values())


@pytest.mark.parametrize("fixture, pattern", [("k2_round", "even"), ("k4_round", "single2")])
def test_symmetry_oracle_rejects_an_unbalanced_description(request, fixture, pattern):
    work, _, data = request.getfixturevalue(fixture)
    cfg = work.config
    args = (work.coeffs, cfg.oversampling, cfg.sigma_x2, cfg.noise_variance,
            cfg.multiplier_mode == "wiener")
    assert not _problems(oracles.check_symmetry(oracles.parse_csv(data.decode()), *args))
    # 2.5 % apart: inside the MSE tolerance, outside the symmetry one
    assert _problems(oracles.check_symmetry(_rows_with(data, pattern, "mse_emp", 1.025), *args))


def test_rate_oracle_rejects_variance_and_entropy_off(k2_round):
    work, _, data = k2_round
    cfg = work.config
    args = (work.coeffs, cfg.sigma_x2, cfg.noise_variance)
    assert not oracles.check_rates(oracles.parse_csv(data.decode()), *args)
    # Var(quantized) 2 % high is 0.5*log2(1.02) bits of Gaussian rate
    rows = oracles.parse_csv(data.decode())
    for row in rows:
        row["rate_gauss_emp_bits"] += 0.5 * math.log2(1.02)
    assert any("Var(quantized)" in p for p in oracles.check_rates(rows, *args))
    for shift in (-0.2, 0.25):
        rows = oracles.parse_csv(data.decode())
        for row in rows:
            row["index_entropy_bits"] += shift
        assert any("entropy" in p for p in oracles.check_rates(rows, *args))


def test_determinism_check_rejects_one_flipped_csv_byte(k2_round):
    work, _, data = k2_round
    assert all(not op.problems for op in work.check(data))
    lines = data.split(b"\n")
    fields = lines[-2].split(b",")
    mse = fields[-2]  # the last row's mse_emp
    fields[-2] = mse[:-1] + (b"1" if mse[-1:] != b"1" else b"2")
    lines[-2] = b",".join(fields)
    flipped = b"\n".join(lines)
    assert len(flipped) == len(data) and flipped != data
    ops = work.check(flipped)
    assert all(any("differs" in p for p in op.problems) for op in ops)


def test_codec_check_rejects_a_missing_row_and_garbage(k2_round):
    work, _, data = k2_round
    lines = data.split(b"\n")
    for bad in (b"\n".join(lines[:-2] + [b""]), b"not,a\ncsv,file\n"):
        ops = work.check(bad)
        assert ops and all(op.problems for op in ops)


# ---------------------------------------------------------------------------
# Feedback loop
# ---------------------------------------------------------------------------


def _loop_result():
    rng = np.random.default_rng(11)
    filt = shaping.design_yule_walker(8, 0.1)
    a = rng.standard_normal(1 << 14)
    step = 0.35
    z = rng.uniform(-step / 2, step / 2, a.shape[0])
    return mdsigma.delta_sigma_loop(a, filt, z, step), step


def test_loop_oracle_accepts_the_loop_and_rejects_perturbations():
    result, step = _loop_result()
    assert oracles.check_loop(result, step) == []
    e = result.quant_error.copy()
    e[100] += step
    bad = mdsigma.codec.LoopResult(result.indices, result.quantized, e, result.loop_input, result.feedback)
    assert oracles.check_loop(bad, step)
    q = result.quantized.copy()
    q[200] = np.nextafter(q[200], np.inf)
    bad = mdsigma.codec.LoopResult(result.indices, q, result.quant_error, result.loop_input, result.feedback)
    assert oracles.check_loop(bad, step) == ["quantized != loop_input + quant_error"]


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------


def _reflect_largest_root(c):
    """A monic filter with c's largest zero (and its conjugate) moved to
    the mirror position outside the unit circle."""
    roots = np.roots(c)
    z = roots[int(np.argmax(np.abs(roots)))]
    mirrored = [1.0 / np.conj(r) if min(abs(r - z), abs(r - np.conj(z))) < 1e-12 else r for r in roots]
    return np.real(np.poly(mirrored))


def test_yule_walker_oracle():
    gamma, p = 9.0, 16
    lam = shaping.find_lambda_for_ratio(gamma, p)
    c = np.asarray(shaping.design_yule_walker(p, lam).coeffs)
    assert oracles.check_yule_walker(c, gamma, lam) == []
    # the design of a neighbouring gamma misses this one
    assert oracles.check_yule_walker(c, gamma * 1.001, lam)
    # stationarity at another lambda fails
    assert any("normal-equation" in s for s in oracles.check_yule_walker(c, gamma, lam * 1.01))
    scaled = c * 1.0000001
    assert any("monic" in s for s in oracles.check_yule_walker(scaled, gamma, lam))


def test_min_phase_oracle_rejects_a_root_outside():
    c = np.asarray(shaping.design_yule_walker(12, 0.05).coeffs)
    assert oracles.check_min_phase(c) == []
    outside = _reflect_largest_root(c)
    assert abs(np.abs(np.roots(outside)).max()) > 1.0
    problems = oracles.check_min_phase(outside)
    assert any("outside" in s for s in problems)
    assert any("log-spectrum" in s for s in problems)


def test_multiband_oracle():
    edges = (math.pi / 4, 3 * math.pi / 4, math.pi)
    weights = (5.0, math.sqrt(0.2), 1.0)
    c = np.asarray(shaping.design_multiband(24, edges, weights).coeffs)
    assert oracles.check_multiband(c, edges, weights) == []
    assert oracles.check_multiband(c, edges, (5.0, math.sqrt(0.2), 1.1))
    bumped = c.copy()
    bumped[5] += 1e-6
    assert oracles.check_multiband(bumped, edges, weights)


def test_design_grid_round_passes(tmp_path):
    grid = workloads.DesignGrid(mdsigma, 3, str(tmp_path))
    grid.items = [it for it in grid.items if it[1] <= 16]
    rnd = grid.run_round()
    assert len(rnd.operations) == len(grid.items)
    assert all(not op.failed for op in rnd.operations)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def test_tracer_restores_the_library_and_accounts_for_the_round():
    original = (mdsigma.codec.encode, mdsigma.harness.encode, mdsigma.ecdq.DitherStream.draw)
    cfg = mdsigma.ExperimentConfig(sigma_e2=0.01, p=4, gamma=3.0, n_samples=1 << 14, n_trials=1)
    tracer = tracing.Tracer(mdsigma)
    tracer.start_round(0)
    tracer.install()
    try:
        assert mdsigma.harness.encode is not original[1]
        t0 = time.perf_counter()
        mdsigma.harness.run(cfg)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert (mdsigma.codec.encode, mdsigma.harness.encode, mdsigma.ecdq.DitherStream.draw) == original
    names = {s.name for s in tracer.spans}
    assert {"harness.run", "codec.encode", "codec.delta_sigma_loop", "ecdq.DitherStream.draw",
            "shaping.find_lambda_for_ratio", "dsp.ideal_upsample"} <= names
    assert tracer.spans[0].name == "harness.run" and tracer.spans[0].parent == -1
    m = tracer.layer_metrics(0, wall)
    assert m["codec.loop_ns_per_sample"] > 0 and m["codec.trace_mb"] > 0
    assert m["shaping.find_lambda_s"] > 0 and m["shaping.design_s"] > 0
    assert m["harness.self_s"] > 0
    assert tracer.counters[0].loop_problems == []
