"""Command-line interface: exit codes, output files, flag plumbing."""

import math

import pytest

from mdsigma import cli
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


def test_design_filter_gamma_mode(capsys):
    assert main(["design-filter", "--p", "8", "--gamma", "6"]) == 0
    assert "gamma=6" in capsys.readouterr().out


def test_theory_point_achievability(capsys):
    assert main(["theory-point", "--delta", "4", "--sigma-e2", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "achievability gap" in out


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--deltas", "1,2,4,8", "--sigma-e2", "1e-3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("delta,")
    assert len(lines) == 5


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


@pytest.mark.parametrize("delta", ["0", "-1"])
def test_sweep_rates_rejects_non_positive_delta(delta, capsys):
    assert main(["sweep", "--rates", "1", "--delta", delta]) == 1
    assert capsys.readouterr().err.startswith("error: delta must be positive")
