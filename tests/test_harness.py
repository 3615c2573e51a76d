"""Harness: config ingestion, runs, sweeps, entropy estimation, CSV contract."""

import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdsigma import codec, harness, shaping
from mdsigma.codec import decode, encode, pattern_noise_power, reconstruction_mse
from mdsigma.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _PATTERN_PHASES,
    _codec_config,
    _draw_source,
    _pattern_theory_mse,
    build_filter,
    estimate_index_entropy,
    read_config_text,
    run,
    sweep,
    universality_check,
)
from mdsigma.theory import wiener_gain

from conftest import ENCODE_PEAK_ARRAYS, traced_peak

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
        cfg = ExperimentConfig(**read_config_text(text))
        assert cfg.p == 16 and cfg.gamma == 17.0
        assert cfg.source_dist == "laplace"
        assert cfg.erasure_patterns == ("central", "odd")

    def test_unknown_key_is_line_precise(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'frobnicate'"):
            read_config_text("sigma_e2 = 0.01\nfrobnicate = 3\n")

    def test_bad_value_is_line_precise(self):
        with pytest.raises(ConfigError, match="line 1: bad value"):
            read_config_text("p = banana\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            read_config_text("just some words\n")

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
            ExperimentConfig(**read_config_text("sigma_e2 = 0.01\nerasure_patterns = odd, odd\n"))

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
        tol_mse_rel = 0.1
        """
        cfg = ExperimentConfig(**read_config_text(text))
        assert cfg == ExperimentConfig(
            sigma_x2=2.0, quant_step=0.5, filter_kind="explicit", p=3, lambda_ratio=0.25,
            gamma=5.0, coeffs=(1.0, -0.5, 0.25), band_edges=(0.5, 1.5), band_weights=(2.0, 3.0),
            oversampling=4, n_samples=16384, n_trials=3, master_seed=7, source_dist="uniform",
            erasure_patterns=("central", "single2"), tol_mse_rel=0.1,
        )
        assert type(cfg.p) is int and type(cfg.gamma) is float
        with pytest.raises(ConfigError, match="line 2: unknown key 'filter_kind'"):
            read_config_text("sigma_e2 = 0.01\nfilter_kind = explicit\n")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("sigma_x2", 0.0),
            ("sigma_x2", math.inf),
            ("sigma_e2", -1.0),
            ("sigma_e2", 0.0),
            ("sigma_e2", math.nan),
            ("quant_step", -0.5),
            ("quant_step", math.inf),
        ],
    )
    def test_non_positive_or_non_finite_scales_rejected(self, field, value):
        # quant_step is refused by QuantizerSpec's rule, named after the field
        noise = {} if field in ("sigma_e2", "quant_step") else {"sigma_e2": 0.01}
        with pytest.raises(ConfigError, match=f"{field} .*must be positive and finite"):
            ExperimentConfig(**noise, **{field: value})

    def test_noise_variance_whose_step_overflows_rejected(self):
        # 1e308 is finite, but sqrt(12*sigma_e2) is not
        with pytest.raises(ConfigError, match=r"^sqrt\(12\*sigma_e2\) = inf: step must be positive and finite$"):
            ExperimentConfig(sigma_e2=1e308, p=2, gamma=3.0)
        assert math.isfinite(ExperimentConfig(sigma_e2=1e307).step)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        with pytest.raises(ConfigError, match="tol_mse_rel must be >= 0"):
            ExperimentConfig(sigma_e2=0.01, tol_mse_rel=tol)
        assert ExperimentConfig(sigma_e2=0.01, tol_mse_rel=0.0).tol_mse_rel == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p", 8.0),
            ("p", True),
            ("oversampling", 2.0),
            ("n_samples", 16384.0),
            ("n_trials", 1.5),
            ("n_trials", True),
            ("master_seed", False),
            ("master_seed", "99"),
        ],
    )
    def test_integer_fields_reject_bools_and_non_integers(self, monkeypatch, field, value):
        # rejected when the config is built, before any filter is designed
        def no_design(*args):
            raise AssertionError("a filter was designed")

        monkeypatch.setattr(harness, "find_lambda_for_ratio", no_design)
        monkeypatch.setattr(harness, "design_yule_walker", no_design)
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            run(ExperimentConfig(**{**SMALL, field: value}))

    def test_integer_fields_take_numpy_integers(self):
        ints = dict(p=8, oversampling=2, n_samples=1 << 14, n_trials=1, master_seed=99)
        numpy_ints = dict(
            p=np.int64(8), oversampling=np.int8(2), n_samples=np.int32(1 << 14), n_trials=np.uint16(1),
            master_seed=np.uint64(99),
        )
        assert harness._INT_FIELDS == tuple(ints)
        config = ExperimentConfig(**{**SMALL, **numpy_ints})
        assert config == ExperimentConfig(**{**SMALL, **ints})
        assert all(type(getattr(config, name)) is int for name in ints)
        assert run(config).to_csv() == run(ExperimentConfig(**{**SMALL, **ints})).to_csv()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gamma", "17"),
            ("lambda_ratio", "0.1"),
            ("sigma_x2", True),
            ("sigma_e2", np.True_),
            ("tol_mse_rel", None),
            ("gamma", 1j),
            ("coeffs entry", (1.0, "-0.5")),
            ("band_weights entry", (1.0, False)),
        ],
    )
    def test_float_fields_reject_bools_and_non_reals(self, monkeypatch, field, value):
        # rejected when the config is built, before any filter is designed
        def no_design(*args):
            raise AssertionError("a filter was designed")

        monkeypatch.setattr(harness, "find_lambda_for_ratio", no_design)
        monkeypatch.setattr(harness, "design_yule_walker", no_design)
        name = field.split()[0]
        bad = value[-1] if isinstance(value, tuple) else value
        kind = {"filter_kind": "yule_walker"} if name == "lambda_ratio" else {}
        with pytest.raises(ConfigError, match=f"{field} must be a real number, got {bad!r}"):
            run(ExperimentConfig(**{**SMALL, **kind, name: value}))

    def test_a_float_tuple_field_must_be_a_sequence(self):
        with pytest.raises(ConfigError, match="coeffs must be a sequence of real numbers, got '1, 2'"):
            ExperimentConfig(**{**SMALL, "coeffs": "1, 2"})

    @pytest.mark.parametrize("value", ["central", b"odd", 5, None], ids=repr)
    def test_erasure_patterns_must_be_a_sequence_of_strings(self, value):
        with pytest.raises(ConfigError, match=re.escape(f"erasure_patterns must be a sequence of strings, got {value!r}")):
            ExperimentConfig(sigma_e2=0.01, erasure_patterns=value)

    def test_erasure_patterns_are_kept_as_a_tuple_of_strings(self):
        config = ExperimentConfig(sigma_e2=0.01, erasure_patterns=["central", "odd"])
        assert config.erasure_patterns == ("central", "odd") and hash(config) == hash(
            ExperimentConfig(sigma_e2=0.01, erasure_patterns=("central", "odd"))
        )
        for entry in (5, np.array(["central"])):  # the array would compare equal to "central"
            with pytest.raises(ConfigError, match="invalid for K=2"):
                ExperimentConfig(sigma_e2=0.01, erasure_patterns=[entry])

    def test_float_fields_take_numpy_numbers_as_python_floats(self):
        floats = dict(sigma_x2=2.0, sigma_e2=0.25, lambda_ratio=0.5, gamma=6.0, tol_mse_rel=0.125, coeffs=(1.0, -0.5))
        numpy_floats = dict(
            sigma_x2=np.float32(2.0), sigma_e2=np.float64(0.25), lambda_ratio=np.float16(0.5), gamma=np.int64(6),
            tol_mse_rel=np.float32(0.125), coeffs=[np.float64(1.0), np.float32(-0.5)],
        )
        assert harness._FLOAT_FIELDS == dict(
            sigma_x2=False, sigma_e2=True, quant_step=True, lambda_ratio=False, gamma=False, tol_mse_rel=False
        )
        assert harness._TUPLE_FIELDS == dict(coeffs=float, band_edges=float, band_weights=float, erasure_patterns=str)
        config = ExperimentConfig(**{**SMALL, **numpy_floats})
        assert config == ExperimentConfig(**{**SMALL, **floats})
        assert all(type(getattr(config, name)) is float for name in floats if name != "coeffs")
        assert all(type(c) is float for c in config.coeffs) and config.quant_step is None

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


def test_a_trial_whose_statistics_overflow_raises_value_error_in_any_thread():
    # the cell rule admits sigma_e2 = 1e306 (step^2/12 is finite), but the
    # variance of the loop's output overflows float64 in its reduction: a
    # ValueError naming both scales, from run and from a trial run on a
    # thread of its own, which inherits no numpy error state from its caller
    config = ExperimentConfig(sigma_e2=1e306, p=2, gamma=3.0, n_samples=1 << 14, n_trials=1)
    message = r"^statistics overflow encountered in \w+ at sigma_x2=1\.0, sigma_e2=1(\.0*\d*)?e\+306$"
    with pytest.raises(ValueError, match=message) as info:
        run(config)
    assert isinstance(info.value.__context__, FloatingPointError)
    with ThreadPoolExecutor(1) as pool:
        trial = pool.submit(harness._trial, config, build_filter(config), [(0, 1)], 0)
        with pytest.raises(ValueError, match=message):
            trial.result()


@pytest.fixture(scope="module")
def three_trials():
    config = ExperimentConfig(**{**SMALL, "n_samples": 1 << 14, "n_trials": 3})
    return config, build_filter(config), run(config)


@settings(max_examples=6, deadline=None)
@given(order=st.permutations(range(3)))
def test_trial_results_do_not_depend_on_execution_order(three_trials, order):
    # each trial is a pure function of (config, master_seed, trial index):
    # running them in any order, and decoding each pattern on its own,
    # reproduces run()'s per-trial MSEs from shared spectra bit for bit
    config, filt, result = three_trials
    for t in order:
        cfg = _codec_config(config, filt, t)
        x = _draw_source(config, t)
        packets, _ = encode(x, cfg)
        for pat in config.patterns:
            phases = _PATTERN_PHASES[config.oversampling][pat]
            mse = reconstruction_mse(decode([packets[j] for j in phases], cfg), x, cfg.guard)
            assert mse == result.pattern(pat).mse_trials[t], (t, pat)


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("order", [[3, 2, 1, 0], [2, 0, 3, 1]], ids=["reversed", "shuffled"])
def test_the_csv_does_not_depend_on_trial_order(monkeypatch, tmp_path, k, order):
    # each trial's summary is a pure function of (config, filter, trial):
    # computed in another order and reduced in trial order, the summaries
    # give run()'s CSV byte for byte, index entropy included
    config = ExperimentConfig(**{**SMALL, "n_trials": 4, "oversampling": k})
    run(config, csv_path=tmp_path / "run.csv")
    filt = build_filter(config)
    subsets = [_PATTERN_PHASES[k][pat] for pat in config.patterns]
    summaries = {t: harness._trial(config, filt, subsets, t) for t in order}
    monkeypatch.setattr(harness, "_trial", lambda config, filt, subsets, trial: summaries.pop(trial))
    result = run(config, csv_path=tmp_path / "reordered.csv")
    assert not summaries and math.isfinite(result.index_entropy_bits)
    assert (tmp_path / "reordered.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()


@pytest.mark.parametrize("k", [2, 4])
def test_peak_memory_does_not_grow_with_trials(k):
    # a trial's index arrays die with it, so eight trials peak as high as one
    def traced_peak(n_trials):
        tracemalloc.start()
        try:
            run(ExperimentConfig(**{**SMALL, "n_samples": 1 << 16, "n_trials": n_trials, "oversampling": k}))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(ExperimentConfig(**{**SMALL, "n_samples": 1 << 16, "n_trials": 1, "oversampling": k}))  # warm
    one, eight = traced_peak(1), traced_peak(8)
    assert eight <= 1.05 * one, (one, eight)


@pytest.mark.parametrize("k", [2, 4])
def test_a_trial_peaks_at_the_loops_five_arrays_and_its_source(loop_kernel, k):
    # the source and the loop's five oversampled arrays, no packet copies and
    # no temporary for the variance or the histogram
    n = 1 << 16
    config = ExperimentConfig(**{**SMALL, "n_samples": n, "n_trials": 1, "oversampling": k})
    subsets = [_PATTERN_PHASES[k][pat] for pat in config.patterns]
    peak = traced_peak(harness._trial, config, build_filter(config), subsets, 0)
    assert peak <= (ENCODE_PEAK_ARRAYS * k + 1.5) * n * 8, (loop_kernel, peak / (8 * n))


@pytest.mark.parametrize("guard", [0, 4, 32, 192])
def test_the_in_place_variance_is_np_var_bit_for_bit(guard):
    rng = np.random.default_rng(guard)
    for n in (guard + 1, guard + 7, 1000, 1 << 15):
        for scale, offset in ((1.0, 0.0), (1e-3, 5.0), (30.0, -1e4)):
            block = scale * rng.standard_normal(n) + offset
            want = float(np.var(block[guard:]))
            assert harness._variance_in_place(block[guard:]).hex() == want.hex(), (n, scale, offset)


@pytest.mark.parametrize(
    "k, patterns, received, transformed",
    [
        pytest.param(2, (), 2, 1, id="k2-all-patterns"),
        pytest.param(4, (), 4, 3, id="k4-all-patterns"),
        pytest.param(4, ("central",), 4, 3, id="k4-central"),
        pytest.param(4, ("single2", "pair02", "single0"), 2, 1, id="k4-even-phases"),
    ],
)
def test_a_trial_forms_each_description_spectrum_once(decoder_calls, k, patterns, received, transformed):
    # K draws to encode; one draw per description any pattern receives and
    # one rfft per delayed one (phase 0 needs none), however many patterns
    # receive it
    config = ExperimentConfig(
        **{**SMALL, "n_samples": 1 << 14, "n_trials": 1, "oversampling": k, "erasure_patterns": patterns}
    )
    run(config)
    assert decoder_calls == {"rfft": transformed, "draw": k + received}


@pytest.mark.parametrize(
    "patterns", [(), ("central",), ("single3", "pair02", "central")], ids=["all", "central", "three"]
)
def test_a_k4_trial_runs_no_fft_longer_than_the_block(monkeypatch, patterns):
    # encoding: one rfft of the source and one irfft per delayed phase;
    # decoding: one rfft and one irfft per delayed description, however
    # many patterns receive it, and none for phase 0
    n, k = 1 << 14, 4
    calls = []
    rfft, irfft, encode_ = np.fft.rfft, np.fft.irfft, harness.encode

    def counted_rfft(a, *args, **kwargs):
        calls.append(("rfft", np.shape(a)[-1]))
        return rfft(a, *args, **kwargs)

    def counted_irfft(*args, **kwargs):
        out = irfft(*args, **kwargs)
        calls.append(("irfft", out.shape[-1]))
        return out

    def marked_encode(*args, **kwargs):
        out = encode_(*args, **kwargs)
        calls.append(("encoded", n))
        return out

    monkeypatch.setattr(np.fft, "rfft", counted_rfft)
    monkeypatch.setattr(np.fft, "irfft", counted_irfft)
    monkeypatch.setattr(harness, "encode", marked_encode)
    config = ExperimentConfig(
        **{**SMALL, "n_samples": n, "n_trials": 1, "oversampling": k, "erasure_patterns": patterns}
    )
    run(config)
    split = calls.index(("encoded", n))
    assert calls[:split] == [("rfft", n)] + [("irfft", n)] * (k - 1)
    assert sorted(calls[split + 1 :]) == [("irfft", n)] * (k - 1) + [("rfft", n)] * (k - 1)


@pytest.mark.parametrize("k", [2, 4])
def test_the_post_multiplier_has_one_owner(k):
    # the codec scales by the Wiener gain at K=2 and not at all at K=4, and
    # ExperimentConfig.multiplier_mode names "wiener" exactly where it scales
    config = ExperimentConfig(**{**SMALL, "oversampling": k})
    cfg = _codec_config(config, build_filter(config), 0)
    for s in {2: (1, 2), 4: (1, 2, 4)}[k]:
        mult = codec._multiplier(cfg, s)
        if k == 2:
            assert mult == wiener_gain(config.sigma_x2, config.noise_variance, pattern_noise_power(cfg, s)), s
        else:
            assert mult == 1.0, s
        assert (config.multiplier_mode == "wiener") == (mult != 1.0), s


def test_pattern_noise_power_is_evaluated_once(monkeypatch):
    # the Wiener multiplier and the theory MSE read one memoized band power:
    # once a pattern has been decoded, no further extended-precision work runs
    config = ExperimentConfig(**{**SMALL, "n_samples": 1 << 14, "n_trials": 1, "p": 5})
    cfg = _codec_config(config, build_filter(config), 0)
    x = _draw_source(config, 0)
    packets, _ = encode(x, cfg)
    first = decode([packets[1]], cfg)

    def no_extended_precision(p):
        raise AssertionError("band power evaluated again")

    monkeypatch.setattr(shaping, "_design_dps", no_extended_precision)
    again = decode([packets[1]], cfg)
    assert np.array_equal(again, first)
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


def histogram(indices):
    return np.unique(indices, return_counts=True)[1]


class TestIndexEntropy:
    def test_constant_indices(self):
        est = estimate_index_entropy(np.array([10**5]))
        assert est.bits == 0.0
        assert est.n_symbols == 1

    def test_coarse_quantizer_is_nearly_free(self):
        # cell width 100x the source scale: almost surely index 0.  The
        # order-0 loop is plain dithered quantization
        from mdsigma.codec import delta_sigma_loop
        from mdsigma.shaping import ShapingFilter

        rng = np.random.default_rng(8)
        s = rng.standard_normal(10**5)
        z = rng.uniform(-50.0, 50.0, 10**5)
        idx = delta_sigma_loop(s, ShapingFilter((1.0,)), z, 100.0).indices
        assert estimate_index_entropy(histogram(idx)).bits <= 0.1

    def test_needs_bulk(self):
        with pytest.raises(ValueError, match="10\\^5"):
            estimate_index_entropy(np.array([100]))

    @pytest.mark.parametrize("n, enough", [(49_998, False), (50_000, True)])
    def test_a_run_estimates_from_the_same_floor(self, n, enough):
        # one K=2 trial pools 2n indices: the run reports NaN exactly where
        # the estimate would raise
        config = ExperimentConfig(**{**SMALL, "n_samples": n, "n_trials": 1})
        assert math.isfinite(run(config).index_entropy_bits) == enough
        if enough:
            estimate_index_entropy(np.array([2 * n]))
        else:
            with pytest.raises(ValueError, match=f"need at least 10\\^5 indices, got {2 * n}"):
                estimate_index_entropy(np.array([2 * n]))

    def test_miller_term_reported(self):
        rng = np.random.default_rng(9)
        est = estimate_index_entropy(histogram(rng.integers(0, 16, 10**5)))
        assert est.miller_correction_bits == pytest.approx(15 / (2 * 10**5 * np.log(2)))
        assert est.bits == pytest.approx(4.0, abs=0.01)

    def test_empty_bins_are_skipped(self):
        counts = histogram(np.random.default_rng(10).integers(0, 16, 10**5))
        padded = np.zeros(3 * counts.shape[0], dtype=np.uint32)
        padded[1::3] = counts
        assert estimate_index_entropy(padded) == estimate_index_entropy(counts)
        assert estimate_index_entropy(padded).n_symbols == 16

    @pytest.mark.parametrize(
        "counts",
        [
            np.full((2, 2), 10**5),
            np.array([10.0**5]),
            np.array([True, True]),
            np.array([10**5 + 1, -1]),
            np.array(["100000"]),
        ],
        ids=["2-d", "float", "bool", "negative", "str"],
    )
    def test_takes_only_a_histogram(self, counts):
        with pytest.raises(ValueError, match="counts must be a 1-D array of non-negative integers"):
            estimate_index_entropy(counts)

    def test_a_run_sums_its_trials_histograms(self, small_result):
        # the trials' histograms summed bin by bin are np.unique's counts over
        # every index of the run, so the estimate keeps its bits
        config = small_result.config
        filt = build_filter(config)
        indices = []
        for t in range(config.n_trials):
            packets, _ = encode(_draw_source(config, t), _codec_config(config, filt, t))
            indices += [pkt.indices for pkt in packets]
        est = estimate_index_entropy(histogram(np.concatenate(indices)))
        assert est.bits == small_result.index_entropy_bits
        assert est.miller_correction_bits == small_result.index_entropy_miller_bits


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
