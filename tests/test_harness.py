"""Harness: config ingestion, runs, sweeps, entropy estimation, CSV contract."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdsigma import shaping
from mdsigma.codec import encode, reconstruction_mse
from mdsigma.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _codec_config,
    _decode_pattern,
    _draw_source,
    _pattern_theory_mse,
    build_filter,
    estimate_index_entropy,
    parse_config_text,
    run,
    sweep,
    universality_check,
)

SMALL = dict(n_samples=1 << 15, n_trials=2, p=8, gamma=6.0, sigma_e2=0.01, master_seed=99)


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------


class TestConfigParsing:
    def test_round_trip(self):
        text = """
        # comment line
        sigma_x2 = 1.0
        sigma_e2 = 0.01          # trailing comment
        filter = yule_walker_gamma
        p = 16
        gamma = 17
        n_samples = 32768
        n_trials = 2
        master_seed = 12345
        source_dist = laplace
        erasure_patterns = central,odd
        """
        cfg = parse_config_text(text)
        assert cfg.p == 16 and cfg.gamma == 17.0
        assert cfg.source_dist == "laplace"
        assert cfg.erasure_patterns == ("central", "odd")

    def test_unknown_key_is_line_precise(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'frobnicate'"):
            parse_config_text("sigma_e2 = 0.01\nfrobnicate = 3\n")

    def test_bad_value_is_line_precise(self):
        with pytest.raises(ConfigError, match="line 1: bad value"):
            parse_config_text("p = banana\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("just some words\n")

    def test_small_blocks_rejected(self):
        with pytest.raises(ConfigError, match="2\\^14"):
            ExperimentConfig(sigma_e2=0.01, n_samples=4096)

    def test_bad_pattern_rejected(self):
        with pytest.raises(ConfigError, match="invalid for K=2"):
            ExperimentConfig(sigma_e2=0.01, erasure_patterns=("pair02",))

    def test_duplicate_pattern_rejected(self):
        # a repeated pattern would append two trials' MSEs per trial
        with pytest.raises(ConfigError, match="duplicate erasure pattern"):
            ExperimentConfig(sigma_e2=0.01, erasure_patterns=("central", "central", "even"))
        with pytest.raises(ConfigError, match="duplicate erasure pattern"):
            parse_config_text("sigma_e2 = 0.01\nerasure_patterns = odd, odd\n")

    def test_every_field_is_a_file_key(self):
        # the field annotations are the schema: each field reads as its own
        # key, except filter_kind, which the file spells ``filter``
        text = """
        sigma_x2 = 2.0
        quant_step = 0.5
        filter = explicit
        p = 3
        lambda_ratio = 0.25
        gamma = 5
        coeffs = 1, -0.5, 0.25
        band_edges = 0.5, 1.5
        band_weights = 2, 3
        oversampling = 4
        n_samples = 16384
        n_trials = 3
        master_seed = 7
        source_dist = uniform
        erasure_patterns = central, single2
        post_multipliers = wiener
        tol_mse_rel = 0.1
        """
        cfg = parse_config_text(text)
        assert cfg == ExperimentConfig(
            sigma_x2=2.0, quant_step=0.5, filter_kind="explicit", p=3, lambda_ratio=0.25,
            gamma=5.0, coeffs=(1.0, -0.5, 0.25), band_edges=(0.5, 1.5), band_weights=(2.0, 3.0),
            oversampling=4, n_samples=16384, n_trials=3, master_seed=7, source_dist="uniform",
            erasure_patterns=("central", "single2"), post_multipliers="wiener", tol_mse_rel=0.1,
        )
        assert type(cfg.p) is int and type(cfg.gamma) is float
        with pytest.raises(ConfigError, match="line 2: unknown key 'filter_kind'"):
            parse_config_text("sigma_e2 = 0.01\nfilter_kind = explicit\n")

    def test_step_and_sigma_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig(sigma_e2=0.01, quant_step=0.5)
        with pytest.raises(ConfigError, match="exactly one"):
            ExperimentConfig()

    def test_filter_kinds(self):
        cfg = ExperimentConfig(sigma_e2=0.01, filter_kind="explicit", coeffs=(1.0, -0.5))
        assert build_filter(cfg).coeffs == (1.0, -0.5)
        cfg = ExperimentConfig(sigma_e2=0.01, filter_kind="yule_walker", p=4, lambda_ratio=0.3)
        assert build_filter(cfg).order == 4


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_result():
    return run(ExperimentConfig(**SMALL))


class TestRun:
    def test_patterns_and_flags(self, small_result):
        names = [p.pattern for p in small_result.patterns]
        assert names == ["central", "even", "odd"]
        assert small_result.all_passed

    def test_empirical_tracks_theory(self, small_result):
        for pr in small_result.patterns:
            assert pr.mse_emp == pytest.approx(pr.mse_theory, rel=0.03)

    def test_stderr_is_meaningful(self, small_result):
        for pr in small_result.patterns:
            assert pr.stderr <= pr.mse_theory / 20.0

    def test_rate_accounting_fields(self, small_result):
        assert small_result.rate_gauss_emp_bits == pytest.approx(
            small_result.rate_theory_bits, abs=0.02
        )
        gap = small_result.index_entropy_bits - small_result.rate_theory_bits
        assert 0.1 <= gap <= 0.45

    def test_csv_deterministic(self, tmp_path):
        cfg = ExperimentConfig(**SMALL)
        a = run(cfg, csv_path=tmp_path / "a.csv")
        b = run(cfg, csv_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert a.pattern("central").mse_emp == b.pattern("central").mse_emp

    def test_csv_schema(self, small_result):
        text = small_result.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        # trials x patterns rows
        assert len(lines) - 1 == 2 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "central"

    def test_seed_changes_output(self):
        cfg_a = ExperimentConfig(**SMALL)
        cfg_b = ExperimentConfig(**{**SMALL, "master_seed": 100})
        assert run(cfg_a).pattern("odd").mse_emp != run(cfg_b).pattern("odd").mse_emp

    def test_requested_pattern_flagged_in_rows(self):
        # the odd pattern routes through the phase-corrected side decoder and
        # its rows carry the pattern name
        cfg = ExperimentConfig(**{**SMALL, "erasure_patterns": ("odd",), "n_trials": 1})
        res = run(cfg)
        assert [p.pattern for p in res.patterns] == ["odd"]
        rows = res.csv_rows()
        assert all(r[1] == "odd" for r in rows)
        assert res.pattern("odd").mse_emp == pytest.approx(
            res.pattern("odd").mse_theory, rel=0.05
        )

    def test_k4_run(self):
        cfg = ExperimentConfig(
            sigma_e2=0.04,
            filter_kind="multiband",
            p=24,
            band_edges=(np.pi / 4, 3 * np.pi / 4, np.pi),
            band_weights=(5.0, 1.0 / 2.2360679774997896, 1.0),
            oversampling=4,
            n_samples=1 << 15,
            n_trials=1,
            master_seed=4,
            tol_mse_rel=0.10,
        )
        res = run(cfg)
        names = [p.pattern for p in res.patterns]
        assert names == ["central", "pair02", "pair13", "single0", "single1", "single2", "single3"]
        assert res.all_passed


@pytest.fixture(scope="module")
def three_trials():
    config = ExperimentConfig(**{**SMALL, "n_samples": 1 << 14, "n_trials": 3})
    return config, build_filter(config), run(config)


@settings(max_examples=6, deadline=None)
@given(order=st.permutations(range(3)))
def test_trial_results_do_not_depend_on_execution_order(three_trials, order):
    # each trial is a pure function of (config, master_seed, trial index):
    # running them in any order reproduces run()'s per-trial MSEs bit for bit
    config, filt, result = three_trials
    for t in order:
        cfg = _codec_config(config, filt, t)
        x = _draw_source(config, t)
        packets, _ = encode(x, cfg)
        for pat in config.patterns:
            mse = reconstruction_mse(_decode_pattern(pat, packets, cfg), x)
            assert mse == result.pattern(pat).mse_trials[t], (t, pat)


def test_pattern_noise_power_is_evaluated_once(monkeypatch):
    # the Wiener multiplier and the theory MSE read one memoized band power:
    # once a pattern has been decoded, no further extended-precision work runs
    config = ExperimentConfig(**{**SMALL, "n_samples": 1 << 14, "n_trials": 1, "p": 5})
    cfg = _codec_config(config, build_filter(config), 0)
    x = _draw_source(config, 0)
    packets, _ = encode(x, cfg)
    first = _decode_pattern("odd", packets, cfg)

    def no_extended_precision(p):
        raise AssertionError("band power evaluated again")

    monkeypatch.setattr(shaping, "_design_dps", no_extended_precision)
    again = _decode_pattern("odd", packets, cfg)
    assert np.array_equal(again.samples, first.samples)
    assert _pattern_theory_mse(config, cfg, "odd") > 0.0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class TestSweep:
    def test_monotone_tradeoff_and_bound(self, tmp_path):
        rows = sweep([1.0, 2.0, 4.0, 8.0], sigma_e2=1e-3, csv_path=tmp_path / "s.csv")
        dc = [r[4] for r in rows]
        ds = [r[5] for r in rows]
        bound = [r[9] for r in rows]
        assert all(a > b for a, b in zip(dc, dc[1:]))
        assert all(a < b for a, b in zip(ds, ds[1:]))
        for d, lim in zip(dc, bound):
            assert d >= lim - 1e-12
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header.startswith("delta,sigma_e2")

    @pytest.mark.parametrize("sigma_e2", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_no_point_below_bound_across_resolutions(self, sigma_e2):
        for row in sweep([1.0, 1.5, 2.0, 4.0, 8.0, 16.0], sigma_e2=sigma_e2):
            assert row[4] >= row[9] - 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            sweep([], sigma_e2=1e-3)

    def test_rate_grid(self):
        from mdsigma.harness import sweep_rates

        rows = sweep_rates([2.0, 3.0, 4.0], delta=4.0)
        for target, row in zip((2.0, 3.0, 4.0), rows):
            assert row[3] == pytest.approx(target, abs=1e-12)
        with pytest.raises(ValueError, match="infeasible"):
            sweep_rates([0.5], delta=4.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_rate_grid_rejects_non_positive_delta(self, delta):
        from mdsigma.harness import sweep_rates

        with pytest.raises(ValueError, match="delta must be positive"):
            sweep_rates([2.0], delta=delta)


# ---------------------------------------------------------------------------
# index entropy
# ---------------------------------------------------------------------------


class TestIndexEntropy:
    def test_constant_indices(self):
        est = estimate_index_entropy(np.zeros(10**5, dtype=np.int64))
        assert est.bits == 0.0
        assert est.n_symbols == 1

    def test_coarse_quantizer_is_nearly_free(self):
        # cell width 100x the source scale: almost surely index 0
        from mdsigma.ecdq import QuantizerSpec, quantize_dithered

        rng = np.random.default_rng(8)
        q = QuantizerSpec(step=100.0)
        s = rng.standard_normal(10**5)
        z = rng.uniform(-50.0, 50.0, 10**5)
        idx, _ = quantize_dithered(s, z, q)
        assert estimate_index_entropy(idx).bits <= 0.1

    def test_needs_bulk(self):
        with pytest.raises(ValueError, match="10\\^5"):
            estimate_index_entropy(np.zeros(100, dtype=np.int64))

    def test_miller_term_reported(self):
        rng = np.random.default_rng(9)
        est = estimate_index_entropy(rng.integers(0, 16, 10**5))
        assert est.miller_correction_bits == pytest.approx(15 / (2 * 10**5 * np.log(2)))
        assert est.bits == pytest.approx(4.0, abs=0.01)


# ---------------------------------------------------------------------------
# universality
# ---------------------------------------------------------------------------


class TestUniversality:
    def test_requires_high_resolution(self):
        cfg = ExperimentConfig(**{**SMALL, "source_dist": "laplace"})
        with pytest.raises(ValueError, match="1e-3"):
            universality_check(cfg)

    def test_laplace_small(self):
        cfg = ExperimentConfig(
            sigma_e2=1e-3,
            p=8,
            gamma=6.0,
            n_samples=1 << 16,
            n_trials=1,
            master_seed=17,
            source_dist="laplace",
            tol_mse_rel=0.05,
        )
        res = universality_check(cfg)
        assert res.all_passed

    def test_gaussian_degenerates_to_run(self):
        cfg = ExperimentConfig(
            sigma_e2=1e-3, p=8, gamma=6.0, n_samples=1 << 14, n_trials=1, master_seed=18
        )
        a = universality_check(cfg)
        b = run(cfg)
        assert a.pattern("central").mse_emp == b.pattern("central").mse_emp
