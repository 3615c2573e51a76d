"""Command-line interface: exit codes, output files, flag plumbing."""

import pytest

from mdsigma.cli import main


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
