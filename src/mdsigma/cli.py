"""Command-line harness.

Subcommands: design-filter, theory-point, sweep, simulate, simulate-k4,
universality.  Exit codes: 0 all checks passed, 2 a tolerance check
failed, 1 usage/configuration error.

Simulation configs merge, each layer over the last: subcommand defaults,
the ``--config`` file, the flags (``dest`` = field name; a noise flag drops
the file's noise keys, a shape flag sets the filter kind), then the keys
the subcommand fixes.  With no noise key set, sigma_e2 = 0.01.  The
config (scales, tolerance, seed), the simulate-k4 band levels and their
three-step point are checked before any work: a bad one exits 1 before
any filter is designed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .codec import loop_backend
from .harness import (
    ConfigError,
    ExperimentConfig,
    _csv_text,
    read_config_text,
    run,
    sweep,
    sweep_rates,
    universality_check,
)
from .shaping import (
    design_multiband,
    design_yule_walker,
    filter_powers,
    find_lambda_for_ratio,
    min_phase_check,
)
from .theory import K4Spec, brickwall_point, k4_point, ozarow_bounds


_FIELDS = ExperimentConfig.__dataclass_fields__


def _add_common_sim_flags(sp):
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--sigma-x2", type=float)
    noise = sp.add_mutually_exclusive_group()
    noise.add_argument("--sigma-e2", type=float)
    noise.add_argument("--step", dest="quant_step", type=float, help="quantizer step")
    sp.add_argument("--p", type=int)
    sp.add_argument("--n-samples", type=int)
    sp.add_argument("--trials", dest="n_trials", type=int)
    sp.add_argument("--seed", dest="master_seed", type=int)
    sp.add_argument("--source", dest="source_dist", choices=("gaussian", "laplace", "uniform"))
    sp.add_argument("--tol", dest="tol_mse_rel", type=float, help="relative MSE tolerance per pattern")
    sp.add_argument("--out", help="CSV output path")


def _add_half_band_shape_flags(sp):
    # simulate-k4 fixes its own multiband shape and takes neither flag
    shape = sp.add_mutually_exclusive_group()
    shape.add_argument("--gamma", type=float, help="target P_ds/P_dc ratio")
    shape.add_argument("--lambda-ratio", type=float)


def _config_from_args(args, defaults=(), fixed=()) -> ExperimentConfig:
    values = dict(defaults)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values.update(read_config_text(fh.read()))
    flags = {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}
    if "sigma_e2" in flags or "quant_step" in flags:
        values.pop("sigma_e2", None)
        values.pop("quant_step", None)
    if "gamma" in flags:
        values["filter_kind"] = "yule_walker_gamma"
    if "lambda_ratio" in flags:
        values["filter_kind"] = "yule_walker"
    values.update(flags)
    values.update(fixed)
    if "sigma_e2" not in values and "quant_step" not in values:
        values["sigma_e2"] = 0.01
    return ExperimentConfig(**values)


def _print_sim(result) -> bool:
    cfg = result.config
    print(
        f"filter p={result.filter_order} K={cfg.oversampling} pdc={result.pdc:.6g} pds={result.pds:.6g}"
    )
    print(f"loop-backend={loop_backend()}")
    print(
        f"rate: theory={result.rate_theory_bits:.5f} bits, gaussian-accounting="
        f"{result.rate_gauss_emp_bits:.5f} bits, index-entropy={result.index_entropy_bits:.5f} bits"
        f" (miller bias {result.index_entropy_miller_bits:.2e})"
    )
    for pr in result.patterns:
        rel = pr.mse_emp / pr.mse_theory - 1.0
        flag = "pass" if pr.passed else "FAIL"
        print(
            f"  {pr.pattern:8s} mse_emp={pr.mse_emp:.6e} mse_theory={pr.mse_theory:.6e} "
            f"rel={rel:+.3%} stderr={pr.stderr:.2e} [{flag}]"
        )
    return result.all_passed


def _floats(text: str) -> list:
    """The floats of a comma list, blank entries skipped."""
    return [float(v) for v in text.split(",") if v.strip()]


def _cmd_design_filter(args) -> int:
    if (args.band_edges is None) != (args.band_weights is None):
        raise ValueError("--band-edges and --band-weights go together")
    if args.band_edges is not None:
        edges = [v * math.pi for v in _floats(args.band_edges)]
        weights = _floats(args.band_weights)
        filt = design_multiband(args.p, edges, weights)
        label = f"multiband p={args.p}"
    elif args.gamma is not None:
        lam = find_lambda_for_ratio(args.gamma, args.p)
        filt = design_yule_walker(args.p, lam)
        label = f"yule-walker p={args.p} gamma={args.gamma} (lambda={lam:.8g})"
    else:
        filt = design_yule_walker(args.p, args.lambda_ratio or 0.0)
        label = f"yule-walker p={args.p} lambda={args.lambda_ratio or 0.0}"
    pdc, pds = filter_powers(filt)
    report = min_phase_check(filt)
    print(f"{label}: pdc={pdc:.10g} pds={pds:.10g} ratio={pds / pdc:.6g}")
    print(f"min-phase={report.is_min_phase} max-reflection={report.max_reflection:.10f}")
    print("coeffs:", ",".join(format(c, ".17g") for c in filt.coeffs))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(("i", "c_i"), enumerate(filt.coeffs)))
    return 0


def _cmd_theory_point(args) -> int:
    pt = brickwall_point(args.delta, args.sigma_e2, args.sigma_x2)
    dc_bound = ozarow_bounds(pt.rate_bits, pt.ds, args.sigma_x2)
    print(
        f"delta={args.delta}: R={pt.rate_bits:.6f} bits  dc={pt.dc:.8e}  ds={pt.ds:.8e}  "
        f"alpha={pt.alpha:.6f} beta={pt.beta:.6f}"
    )
    gap = pt.dc / dc_bound - 1.0
    print(f"bound: dc_bound={dc_bound:.8e}  achievability gap={gap:.3e}")
    return 0


def _cmd_sweep(args) -> int:
    if args.rates:
        rows = sweep_rates(_floats(args.rates), args.delta, args.sigma_x2, csv_path=args.out)
    elif args.deltas and args.sigma_e2 is not None:
        rows = sweep(_floats(args.deltas), args.sigma_e2, args.sigma_x2, csv_path=args.out)
    else:
        raise ValueError("provide either --rates or both --deltas and --sigma-e2")
    for row in rows:
        print(
            f"delta={row[0]:g} R={row[3]:.5f} dc={row[4]:.6e} ds={row[5]:.6e} "
            f"dc_bound={row[9]:.6e}"
        )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    result = run(config, csv_path=args.out)
    ok = _print_sim(result)
    if args.out:
        print(f"wrote {args.out}")
    return 0 if ok else 2


def _cmd_simulate_k4(args) -> int:
    fixed = {
        "filter_kind": "multiband",
        "oversampling": 4,
        "band_edges": (math.pi / 4, 3 * math.pi / 4, math.pi),
    }
    config = _config_from_args(args, defaults={"tol_mse_rel": 0.05}, fixed=fixed)
    # the spec checks the band levels before they become filter weights
    spec = K4Spec(delta0=args.delta0, delta1=args.delta1, sigma_e2=config.noise_variance, sigma_x2=config.sigma_x2)
    config = replace(config, band_weights=(1.0 / spec.delta0, 1.0 / spec.delta2, 1.0 / spec.delta1))
    ideal = k4_point(spec)
    print(
        f"three-step targets: dc={ideal.dc:.6e} d2={ideal.d2:.6e} d1={ideal.d1:.6e} "
        f"R={ideal.rate_bits:.5f} bits"
    )
    result = run(config, csv_path=args.out)
    ok = _print_sim(result)
    return 0 if ok else 2


def _cmd_universality(args) -> int:
    config = _config_from_args(args)
    result = universality_check(config, csv_path=args.out)
    ok = _print_sim(result)
    print("note: gaussian-accounting rate is an upper bound for non-gaussian sources")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mdsigma", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("design-filter", help="design and report a shaping filter")
    sp.add_argument("--p", type=int, required=True)
    shape = sp.add_mutually_exclusive_group()
    shape.add_argument("--lambda-ratio", type=float)
    shape.add_argument("--gamma", type=float)
    shape.add_argument("--band-edges", help="comma list, units of pi")
    sp.add_argument("--band-weights", help="comma list")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_design_filter)

    sp = sub.add_parser("theory-point", help="closed-form operating point and bound")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--sigma-e2", type=float, required=True)
    sp.add_argument("--sigma-x2", type=float, default=1.0)
    sp.set_defaults(fn=_cmd_theory_point)

    sp = sub.add_parser("sweep", help="rate-distortion sweep with bound overlay")
    sp.add_argument("--deltas", help="comma list of delta values")
    sp.add_argument("--sigma-e2", type=float, help="noise variance (delta sweep)")
    sp.add_argument("--rates", help="comma list of target rates (alternative grid)")
    sp.add_argument("--delta", type=float, default=4.0, help="spectrum shape for --rates")
    sp.add_argument("--sigma-x2", type=float, default=1.0)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("simulate", help="Monte-Carlo codec vs closed forms (K=2)")
    _add_common_sim_flags(sp)
    _add_half_band_shape_flags(sp)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("simulate-k4", help="four-description codec vs three-step targets")
    _add_common_sim_flags(sp)
    sp.add_argument("--delta0", type=float, default=0.2)
    sp.add_argument("--delta1", type=float, default=1.0)
    sp.set_defaults(fn=_cmd_simulate_k4)

    sp = sub.add_parser("universality", help="non-gaussian source at high resolution")
    _add_common_sim_flags(sp)
    _add_half_band_shape_flags(sp)
    sp.set_defaults(fn=_cmd_universality)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
