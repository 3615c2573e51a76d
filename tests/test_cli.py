"""Command-line interface: exit codes, output files, flag plumbing."""

import math

import pytest

from mdsigma import _native, cli, codec, harness
from mdsigma.cli import main


class _Ran(Exception):
    pass


@pytest.fixture
def ran_config(monkeypatch):
    """Stop a simulation subcommand at ``run`` and hand back its config."""
    seen = []

    def fake_run(config, csv_path=None):
        seen.append(config)
        raise _Ran

    monkeypatch.setattr(cli, "run", fake_run)

    def config_of(argv):
        with pytest.raises(_Ran):
            main(argv)
        return seen[-1]

    return config_of


def test_design_filter_reports_powers(capsys):
    assert main(["design-filter", "--p", "4", "--lambda-ratio", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "pdc=" in out and "min-phase=True" in out


@pytest.mark.parametrize("p, verdict", [(38, "True"), (42, "True"), (44, "False")])
def test_design_filter_decides_min_phase_near_the_unit_circle(p, verdict, capsys):
    # the largest zero of the lambda = 0 design lies just inside the unit
    # circle (|z| > 0.9998) at p = 38 and 42, and outside it at p = 44
    assert main(["design-filter", "--p", str(p), "--lambda-ratio", "0"]) == 0
    out = capsys.readouterr().out
    assert f"min-phase={verdict} max-reflection=" in out


def test_design_filter_gamma_mode(capsys):
    assert main(["design-filter", "--p", "8", "--gamma", "6"]) == 0
    assert "gamma=6" in capsys.readouterr().out


def test_design_filter_writes_its_coefficients_csv(tmp_path, capsys):
    out = tmp_path / "filter.csv"
    assert main(["design-filter", "--p", "8", "--gamma", "6", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"i,c_i\n0,1\n1,-0.53690565973704896\n2,0.16225406211849669\n3,0.14095762558035177\n"
        b"4,-0.10917511783653606\n5,-0.062778969892011399\n6,0.084573681561364883\n"
        b"7,0.024190631640489627\n8,-0.065750123576359246\n"
    )


@pytest.mark.parametrize("sigma_e2", ["0.01", "1e-12", "1e-20"])
def test_theory_point_achievability(sigma_e2, capsys):
    # the brick-wall point meets the bound; the gap printed at 1e-12 was
    # -2.2e-5 of rounding, and at 1e-20 the bound did not evaluate
    assert main(["theory-point", "--delta", "4", "--sigma-e2", sigma_e2]) == 0
    out = capsys.readouterr().out
    assert abs(float(out.split("achievability gap=")[1])) < 1e-12


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--deltas", "1,2,4,8", "--sigma-e2", "1e-3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("delta,")
    assert len(lines) == 5


def test_sweep_gives_the_side_floor_where_the_central_bound_underflows(tmp_path, capsys):
    # sx2*2^(-4R) is below the smallest normal double at R = 332 bits; the
    # floor sx2*2^(-2R), about 1e-200, was written as nan with the bound
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--deltas", "4", "--sigma-e2", "1e-200", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["ozarow_ds_floor"]) == pytest.approx(1e-200, rel=1e-12)
    assert cells["ozarow_dc_bound"] == "nan"


def test_simulate_small_run(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(
        [
            "simulate",
            "--p", "8",
            "--gamma", "6",
            "--sigma-e2", "0.01",
            "--n-samples", str(1 << 15),
            "--trials", "1",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().startswith("trial,pattern")
    assert "[pass]" in capsys.readouterr().out


def test_simulate_accepts_step_flag():
    rc = main(
        [
            "simulate",
            "--p", "8",
            "--gamma", "6",
            "--step", "0.34641016151377546",
            "--n-samples", str(1 << 15),
            "--trials", "1",
            "--seed", "5",
        ]
    )
    assert rc == 0


def test_simulate_reads_config_file(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "sigma_e2 = 0.01\nfilter = yule_walker_gamma\np = 8\ngamma = 6\n"
        "n_samples = 32768\nn_trials = 1\nmaster_seed = 5\n"
    )
    assert main(["simulate", "--config", str(cfgfile)]) == 0


def test_simulate_reports_the_order_of_an_explicit_filter(tmp_path, capsys):
    # an explicit filter ignores p; stdout and the CSV give its own order
    out = tmp_path / "run.csv"
    cfgfile = _write(tmp_path, "filter = explicit\ncoeffs = 1, -0.5\n")
    assert main(["simulate", "--config", cfgfile, "--n-samples", "16384", "--trials", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("filter p=1 K=2 ")
    header, *rows = out.read_text().splitlines()
    column = header.split(",").index("p")
    assert {row.split(",")[column] for row in rows} == {"1"}


def test_post_multipliers_in_the_file_is_an_unknown_key_before_any_design(tmp_path, monkeypatch, capsys):
    def design_must_not_start(config):
        raise AssertionError("a filter was designed for an invalid configuration")

    monkeypatch.setattr(harness, "build_filter", design_must_not_start)
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("post_multipliers = foo\n")
    assert main(["simulate", "--config", str(cfgfile), "--p", "2", "--n-samples", "16384", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1: unknown key 'post_multipliers'" in err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nonsense = 1\n")
    assert main(["simulate", "--config", str(cfgfile)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_tight_tolerance_fails_with_code_2(capsys):
    rc = main(
        [
            "simulate",
            "--p", "8",
            "--gamma", "6",
            "--sigma-e2", "0.01",
            "--n-samples", str(1 << 15),
            "--trials", "1",
            "--seed", "5",
            "--tol", "1e-6",
        ]
    )
    assert rc == 2
    assert "[FAIL]" in capsys.readouterr().out


def test_usage_error_exit_code():
    assert main(["simulate", "--p", "not-a-number"]) == 1


def test_band_edges_without_weights_is_usage_error(capsys):
    assert main(["design-filter", "--p", "8", "--band-edges", "0.25,0.75,1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("weights", ["1", ""], ids=["one-weight", "no-weights"])
def test_empty_band_edges_are_a_usage_error(weights, capsys):
    # an empty list is given, not absent: it must not fall through to the
    # lambda = 0 Yule-Walker design
    assert main(["design-filter", "--p", "4", "--band-edges", "", "--band-weights", weights]) == 1
    out = capsys.readouterr()
    assert out.err == "error: need one weight per band edge\n" and out.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["design-filter", "--p", "8", "--band-weights", "1,2"],
        ["design-filter", "--p", "8", "--gamma", "5", "--lambda-ratio", "0.3"],
        ["design-filter", "--p", "8", "--gamma", "5", "--band-edges", "0.5,1", "--band-weights", "1,2"],
        ["simulate", "--p", "8", "--gamma", "5", "--lambda-ratio", "0.3", "--n-samples", "16384"],
    ],
    ids=["weights-without-edges", "gamma-and-lambda", "gamma-and-edges", "simulate-gamma-and-lambda"],
)
def test_conflicting_filter_flags_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--gamma", "5"], ["--lambda-ratio", "0.1"]], ids=["gamma", "lambda-ratio"])
def test_simulate_k4_rejects_half_band_shape_flags(flag, capsys):
    # the K=4 filter is the three-step multiband design; a half-band shape
    # flag must not replace it or be silently ignored
    argv = ["simulate-k4", "--p", "16", "--n-samples", "16384", "--trials", "1", *flag]
    assert main(argv) == 1
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


def test_order_above_the_bound_is_usage_error(capsys):
    assert main(["simulate", "--p", "129", "--gamma", "17", "--n-samples", "16384", "--trials", "1"]) == 1
    assert "order must be in 1..128" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_lambda_ratio_is_usage_error(value, capsys):
    assert main(["design-filter", "--p", "8", "--lambda-ratio", value]) == 1
    assert "lambda ratio must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_band_weight_is_usage_error(value, capsys):
    argv = ["design-filter", "--p", "8", "--band-edges", "0.5,1", "--band-weights", f"{value},1"]
    assert main(argv) == 1
    assert "band weights must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["design-filter", "simulate"])
def test_overflowing_band_weight_sum_is_usage_error(command, tmp_path, capsys):
    # each weight is finite but their sum is not; this was an OverflowError
    # traceback from the design's level sum
    if command == "design-filter":
        argv = ["design-filter", "--p", "8", "--band-edges", "0.5,1", "--band-weights", "1e308,1e308"]
    else:
        text = f"filter = multiband\nband_edges = {math.pi / 2}, {math.pi}\nband_weights = 1e308, 1e308\n"
        argv = ["simulate", "--config", _write(tmp_path, text), "--p", "8", "--n-samples", "16384", "--trials", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: band weights must have a finite sum") and "Traceback" not in captured.err


def test_simulate_k4_small(capsys):
    rc = main(
        [
            "simulate-k4",
            "--delta0", "0.2",
            "--delta1", "1.0",
            "--sigma-e2", "0.04",
            "--p", "24",
            "--n-samples", str(1 << 15),
            "--trials", "1",
            "--seed", "3",
            "--tol", "0.1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "three-step targets" in out
    assert "single3" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--p", "8", "--gamma", "6", "--n-samples", str(1 << 14), "--trials", "1", "--seed", "5"],
        ["simulate-k4", "--p", "24", "--sigma-e2", "0.04", "--n-samples", str(1 << 14), "--trials", "1",
         "--seed", "3", "--tol", "0.1"],
    ],
    ids=["simulate", "simulate-k4"],
)
def test_simulation_names_its_loop_backend_and_writes_the_same_csv_on_either(argv, tmp_path, monkeypatch, capsys):
    backend = codec.loop_backend()
    main([*argv, "--out", str(tmp_path / "default.csv")])
    default_out = capsys.readouterr().out
    # no compiled library: the generated loop kernel, and designs in mpmath
    monkeypatch.setattr(_native, "library", lambda: None)
    main([*argv, "--out", str(tmp_path / "python.csv")])
    python_out = capsys.readouterr().out
    for out, name in ((default_out, backend), (python_out, "python")):
        assert [ln for ln in out.splitlines() if ln.startswith("loop-backend=")] == [f"loop-backend={name}"]
    same = default_out.replace(f"loop-backend={backend}", "loop-backend=python").replace("default.csv", "python.csv")
    assert same == python_out
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


def test_universality_rejects_low_resolution(capsys):
    rc = main(
        ["universality", "--source", "laplace", "--sigma-e2", "0.01", "--p", "8", "--gamma", "6"]
    )
    assert rc == 1
    assert "1e-3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one merge order: subcommand defaults, file, flags, fixed keys
# ---------------------------------------------------------------------------


def _write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "file_filter,flag,kind,field,value",
    [
        ("filter = yule_walker\nlambda_ratio = 0.3\n", ["--gamma", "5"], "yule_walker_gamma", "gamma", 5.0),
        ("filter = explicit\ncoeffs = 1, 0.5\n", ["--lambda-ratio", "0.2"], "yule_walker", "lambda_ratio", 0.2),
    ],
    ids=["gamma-over-yule-walker", "lambda-over-explicit"],
)
def test_shape_flag_overrides_the_file_filter(tmp_path, ran_config, file_filter, flag, kind, field, value):
    cfg = ran_config(["simulate", "--config", _write(tmp_path, "sigma_e2 = 0.01\n" + file_filter), *flag])
    assert cfg.filter_kind == kind and getattr(cfg, field) == value


def test_file_without_noise_takes_the_noise_flag(tmp_path, capsys):
    cfgfile = _write(
        tmp_path, "filter = yule_walker_gamma\np = 8\ngamma = 6\nn_samples = 32768\nn_trials = 1\nmaster_seed = 5\n"
    )
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfgfile, "--sigma-e2", "0.01", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()[:2]
    assert float(dict(zip(header.split(","), row.split(",")))["sigma_e2"]) == pytest.approx(0.01)


def test_file_without_noise_defaults_to_0_01(tmp_path, ran_config):
    cfgfile = _write(tmp_path, "p = 16\n")
    for argv in (["simulate", "--config", cfgfile], ["simulate-k4", "--config", cfgfile]):
        cfg = ran_config(argv)
        assert cfg.sigma_e2 == 0.01 and cfg.quant_step is None


@pytest.mark.parametrize(
    "flag,sigma_e2,quant_step",
    [(["--sigma-e2", "0.01"], 0.01, None), (["--step", "0.25"], None, 0.25)],
    ids=["sigma-e2", "step"],
)
def test_noise_flag_replaces_both_file_noise_keys(tmp_path, ran_config, flag, sigma_e2, quant_step):
    for key in ("quant_step = 0.5", "sigma_e2 = 0.04"):
        cfg = ran_config(["simulate", "--config", _write(tmp_path, key + "\n"), *flag])
        assert (cfg.sigma_e2, cfg.quant_step) == (sigma_e2, quant_step)


def test_simulate_k4_reads_tolerance_from_the_file(tmp_path, ran_config):
    cfgfile = _write(tmp_path, "sigma_e2 = 0.04\ntol_mse_rel = 0.2\n")
    assert ran_config(["simulate-k4", "--config", cfgfile]).tol_mse_rel == 0.2
    assert ran_config(["simulate-k4", "--config", cfgfile, "--tol", "0.3"]).tol_mse_rel == 0.3
    assert ran_config(["simulate-k4"]).tol_mse_rel == 0.05
    assert ran_config(["simulate"]).tol_mse_rel == 0.03


def test_simulate_k4_fixes_its_shape_over_the_file(tmp_path, ran_config):
    cfgfile = _write(tmp_path, "sigma_e2 = 0.04\nfilter = yule_walker\noversampling = 2\nband_edges = 1\n")
    cfg = ran_config(["simulate-k4", "--config", cfgfile, "--delta0", "0.25", "--delta1", "1.0"])
    assert (cfg.filter_kind, cfg.oversampling) == ("multiband", 4)
    assert cfg.band_edges == (math.pi / 4, 3 * math.pi / 4, math.pi)
    assert cfg.band_weights == (4.0, 0.5, 1.0)


def test_flags_set_their_fields(ran_config):
    cfg = ran_config(
        ["simulate", "--sigma-x2", "2", "--step", "0.5", "--p", "8", "--n-samples", "16384",
         "--trials", "3", "--seed", "7", "--source", "laplace", "--tol", "0.2"]
    )
    assert (cfg.sigma_x2, cfg.quant_step, cfg.sigma_e2, cfg.p, cfg.n_samples) == (2.0, 0.5, None, 8, 16384)
    assert (cfg.n_trials, cfg.master_seed, cfg.source_dist, cfg.tol_mse_rel) == (3, 7, "laplace", 0.2)


@pytest.mark.parametrize("command", ["simulate", "simulate-k4", "universality"])
def test_sigma_e2_and_step_exclude_each_other(command, capsys):
    assert main([command, "--sigma-e2", "0.01", "--step", "0.3", "--p", "8"]) == 1
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["theory-point", "--delta", "inf", "--sigma-e2", "0.01"], "all parameters must be positive and finite"),
        (["theory-point", "--delta", "4", "--sigma-e2", "0.01", "--sigma-x2", "inf"],
         "all parameters must be positive and finite"),
        (["theory-point", "--delta", "4", "--sigma-e2", "1e308"], "operating point overflows float64"),
        (["theory-point", "--delta", "4", "--sigma-e2", "1e-200"], "central bound underflows float64"),
        (["sweep", "--rates", "600", "--delta", "4"], "rate 600.0 overflows float64"),
        (["sweep", "--deltas", "4", "--sigma-e2", "1e308"], "operating point overflows float64"),
    ],
    ids=["theory-delta-inf", "theory-sigma-x2-inf", "theory-sigma-e2-overflow", "theory-bound-underflow",
         "sweep-rate-overflow", "sweep-sigma-e2-overflow"],
)
def test_non_finite_or_overflowing_closed_form_is_usage_error(argv, message, capsys):
    # these printed R=inf and NaN distortions with exit 0, or, for the rate
    # 600, an OverflowError traceback
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("delta", ["0", "-1"])
def test_sweep_rates_rejects_non_positive_delta(delta, capsys):
    assert main(["sweep", "--rates", "1", "--delta", delta]) == 1
    assert capsys.readouterr().err.startswith("error: delta must be positive")


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("simulate", ["--tol", "-1"], "tol_mse_rel must be >= 0"),
        ("simulate", ["--tol", "nan"], "tol_mse_rel must be >= 0"),
        ("simulate", ["--sigma-e2", "-1"], "sigma_e2 must be positive and finite"),
        ("simulate", ["--sigma-e2", "0"], "sigma_e2 must be positive and finite"),
        ("simulate", ["--step", "inf"], "quant_step = inf: step must be positive and finite"),
        ("simulate", ["--step", "1e160"], "quant_step = 1e+160: step 1e+160 is past sqrt(DBL_MAX)"),
        ("simulate", ["--sigma-x2", "0"], "sigma_x2 must be positive and finite"),
        ("simulate-k4", ["--sigma-e2", "-1"], "sigma_e2 must be positive and finite"),
        ("universality", ["--tol", "-0.5"], "tol_mse_rel must be >= 0"),
        ("simulate-k4", ["--delta0", "0"], "band levels must be positive"),
        ("simulate-k4", ["--delta0", "-1"], "band levels must be positive"),
        ("simulate-k4", ["--delta1", "inf"], "band levels must be positive"),
        ("simulate", ["--seed", "-1", "--gamma", "3"], "master_seed must be >= 0"),
        ("simulate", ["--sigma-e2", "1e308", "--gamma", "3"], "sqrt(12*sigma_e2) = inf: step must be positive and finite"),
        ("simulate-k4", ["--sigma-e2", "1e10", "--delta0", "1e-300", "--delta1", "1e300"],
         "three-step point overflows float64"),
    ],
    ids=[
        "tol-negative", "tol-nan", "sigma-e2-negative", "sigma-e2-zero", "step-inf", "step-past-cell-rule",
        "sigma-x2-zero", "k4-sigma-e2-negative", "universality-tol-negative",
        "k4-delta0-zero", "k4-delta0-negative", "k4-delta1-inf", "seed-negative",
        "sigma-e2-step-overflow", "k4-point-overflow",
    ],
)
def test_bad_scale_or_tolerance_is_usage_error_before_any_work(monkeypatch, capsys, command, flags, message):
    def run_must_not_start(*args, **kwargs):
        raise AssertionError("the run started on an invalid configuration")

    monkeypatch.setattr(cli, "run", run_must_not_start)
    monkeypatch.setattr(cli, "universality_check", run_must_not_start)
    argv = [command, "--p", "2", "--n-samples", "16384", "--trials", "1", *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["simulate", "--trials", "0"], None, "n_trials must be >= 1"),
        (["simulate", "--n-samples", "16385"], None, "n_samples must be even"),
        (["simulate"], "oversampling = 3", "K must be 2 or 4"),
        (["simulate"], "filter = foo", "unknown filter 'foo'"),
        (["simulate"], "source_dist = cauchy", "unknown source_dist 'cauchy'"),
        (["simulate"], "filter = explicit", "explicit filter needs coeffs"),
        (["simulate"], "filter = multiband", "multiband filter needs band_edges and band_weights"),
        (["sweep"], None, "provide either --rates or both --deltas and --sigma-e2"),
    ],
    ids=["no-trials", "odd-block", "k3", "unknown-filter", "unknown-source", "explicit-without-coeffs",
         "multiband-without-bands", "sweep-without-grid"],
)
def test_rejected_config_is_usage_error_before_any_design(monkeypatch, tmp_path, capsys, argv, config, message):
    def no_design(*args):
        raise AssertionError("a filter was designed for an invalid configuration")

    for name in ("find_lambda_for_ratio", "design_yule_walker", "design_multiband"):
        monkeypatch.setattr(harness, name, no_design)
    if config is not None:
        argv = [*argv, "--config", _write(tmp_path, config + "\n")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and "Traceback" not in captured.out + captured.err


def test_a_run_whose_statistics_overflow_is_a_usage_error(capsys):
    # the step passes the cell rule, but Var(quantized) overflows float64
    argv = ["simulate", "--sigma-e2", "1e306", "--p", "2", "--gamma", "3", "--n-samples", "16384", "--trials", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: statistics overflow encountered in ") and "sigma_x2=1.0" in err
