"""The benchmark's workloads.

A workload builds its inputs from the seed when it is constructed, then
runs rounds of the same fixed work.  A round returns its wall and CPU time and
the outcome of every operation in it: one (trial, pattern) pair of a codec
run, or one filter design.  Oracles run after the timed span.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oracles


@dataclass
class Operation:
    key: tuple
    problems: list = field(default_factory=list)
    raised: bool = False

    @property
    def failed(self) -> bool:
        return self.raised or bool(self.problems)


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    operations: list


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _seed(seed: int) -> int:
    return seed % (1 << 63)


# ---------------------------------------------------------------------------
# Codec runs
# ---------------------------------------------------------------------------


class CodecRun:
    """One ``harness.run`` of one 2^20-sample trial per round, with its CSV."""

    n_samples = 1 << 20

    def __init__(self, mdsigma, seed: int, out_dir):
        self.md = mdsigma
        self.config = self.make_config(mdsigma, _seed(seed))
        self.csv_path = os.path.join(out_dir, f"{self.name}-seed{seed}.csv")
        self.first_csv = None
        self.keys = [
            (trial, pat) for trial in range(self.config.n_trials) for pat in self.config.patterns
        ]
        # the filter the codec runs with, checked as a design before any round
        self.coeffs = np.asarray(mdsigma.harness.build_filter(self.config).coeffs)
        self.design_problems = self.check_design()

    def run_round(self) -> Round:
        wall0, cpu0 = time.perf_counter(), _cpu()
        try:
            self.md.harness.run(self.config, csv_path=self.csv_path)
        except Exception as exc:  # an operation that raises counts as failed
            ops = [Operation(key, [f"{type(exc).__name__}: {exc}"], raised=True) for key in self.keys]
            return Round(time.perf_counter() - wall0, _cpu() - cpu0, ops)
        wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
        with open(self.csv_path, "rb") as fh:
            data = fh.read()
        return Round(wall, cpu, self.check(data))

    def check(self, data: bytes) -> list:
        ops = {key: Operation(key, list(self.design_problems)) for key in self.keys}
        try:
            run_problems = self._check_rows(oracles.parse_csv(data.decode("utf-8")), ops)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            run_problems = [f"unreadable CSV: {type(exc).__name__}: {exc}"]
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            run_problems.append("CSV differs from the first round's with the same seed")
        for op in ops.values():
            op.problems += run_problems
        return list(ops.values())

    def _check_rows(self, rows, ops) -> list:
        """Per-operation problems go into ``ops``; run-wide ones are returned."""
        cfg = self.config
        k, sx2, se2 = cfg.oversampling, cfg.sigma_x2, cfg.noise_variance
        wiener = cfg.multiplier_mode == "wiener"
        if sorted((int(r["trial"]), r["pattern"]) for r in rows) != sorted(self.keys):
            return ["CSV rows do not match the (trial, pattern) grid"]
        for found in (
            oracles.check_mse(rows, self.coeffs, k, sx2, se2, wiener, self.targets()),
            oracles.check_symmetry(rows, self.coeffs, k, sx2, se2, wiener),
        ):
            for key, problems in found.items():
                ops[key].problems += problems
        return oracles.check_rates(rows, self.coeffs, sx2, se2)


class McK2P32(CodecRun):
    """Criterion 3: K=2, p=32, gamma=17, step sqrt(0.12), Gaussian source."""

    name = "mc_k2_p32"
    gamma, p = 17.0, 32

    def make_config(self, md, master_seed):
        return md.harness.ExperimentConfig(
            sigma_x2=1.0,
            quant_step=math.sqrt(0.12),
            filter_kind="yule_walker_gamma",
            p=self.p,
            gamma=self.gamma,
            n_samples=self.n_samples,
            n_trials=1,
            master_seed=master_seed,
            tol_mse_rel=0.03,
        )

    def targets(self):
        return None

    def check_design(self):
        lam = self.md.shaping.find_lambda_for_ratio(self.gamma, self.p)
        return oracles.check_yule_walker(self.coeffs, self.gamma, lam)


class McK4P48(CodecRun):
    """Criterion 8: K=4, p=48 three-step multiband filter, sigma_E^2 = 0.04."""

    name = "mc_k4_p48"
    delta0, delta1, se2 = 0.2, 1.0, 0.04

    def make_config(self, md, master_seed):
        delta2 = 1.0 / math.sqrt(self.delta0 * self.delta1)
        return md.harness.ExperimentConfig(
            sigma_x2=1.0,
            sigma_e2=self.se2,
            filter_kind="multiband",
            p=48,
            band_edges=(math.pi / 4, 3 * math.pi / 4, math.pi),
            band_weights=(1.0 / self.delta0, 1.0 / delta2, 1.0 / self.delta1),
            oversampling=4,
            n_samples=self.n_samples,
            n_trials=1,
            master_seed=master_seed,
            tol_mse_rel=0.05,
        )

    def targets(self):
        return oracles.three_step_targets(self.delta0, self.delta1, self.se2)

    def check_design(self):
        cfg = self.config
        return oracles.check_multiband(self.coeffs, cfg.band_edges, cfg.band_weights)


# ---------------------------------------------------------------------------
# Filter-design grid
# ---------------------------------------------------------------------------


class DesignGrid:
    """Yule-Walker designs over orders x gamma, and K=4 multiband designs.

    The seed jitters each gamma and the multiband delta0 by up to +-5 %
    around fixed centres, so every seed does the same amount of work.
    """

    name = "design_grid"
    orders = (8, 16, 32, 48, 64)
    gammas = (4.0, 8.0, 17.0, 32.0)
    multiband_orders = (16, 32, 48, 64)
    edges = (math.pi / 4, 3 * math.pi / 4, math.pi)
    delta0, delta1 = 0.2, 1.0
    jitter = 0.05

    def __init__(self, mdsigma, seed: int, out_dir):
        self.shaping = mdsigma.shaping
        rng = np.random.default_rng(_seed(seed))
        # (kind, order, gamma or band weights)
        self.items = [
            ("yule_walker", p, g * (1.0 + self.jitter * rng.uniform(-1.0, 1.0)))
            for p in self.orders
            for g in self.gammas
        ]
        for p in self.multiband_orders:
            d0 = self.delta0 * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))
            d2 = 1.0 / math.sqrt(d0 * self.delta1)
            self.items.append(("multiband", p, (1.0 / d0, 1.0 / d2, 1.0 / self.delta1)))

    def _design(self, kind, p, arg):
        shaping = self.shaping
        if kind == "yule_walker":
            lam = shaping.find_lambda_for_ratio(arg, p)
            filt = shaping.design_yule_walker(p, lam)
        else:
            lam = None
            filt = shaping.design_multiband(p, self.edges, arg)
        return filt, lam, shaping.min_phase_check(filt)

    def _design_all(self):
        out = []
        for item in self.items:
            try:
                out.append(self._design(*item))
            except Exception as exc:  # an operation that raises counts as failed
                out.append(exc)
        return out

    def run_round(self) -> Round:
        wall0, cpu0 = time.perf_counter(), _cpu()
        designs = self._design_all()
        wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
        ops = []
        for (kind, p, arg), design in zip(self.items, designs):
            op = Operation((kind, p, arg))
            ops.append(op)
            if isinstance(design, Exception):
                op.raised = True
                op.problems.append(f"{type(design).__name__}: {design}")
                continue
            filt, lam, report = design
            if kind == "yule_walker":
                op.problems += oracles.check_yule_walker(filt.coeffs, arg, lam)
            else:
                op.problems += oracles.check_multiband(filt.coeffs, self.edges, arg)
            if not report.is_min_phase:
                op.problems.append("min_phase_check reports a zero on or outside the unit circle")
        return Round(wall, cpu, ops)


WORKLOADS = {cls.name: cls for cls in (McK2P32, McK4P48, DesignGrid)}
