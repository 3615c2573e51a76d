"""Correctness oracles for the benchmark, computed apart from mdsigma.

Every closed form here is recomputed from the filter coefficients with the
benchmark's own sums (autocorrelation lags against sine integrals, FFT
quadrature); nothing is read back from the library's own oracles
(``shaping.band_power``, ``codec.pattern_noise_power``, ``theory``).  Each
check returns a list of problems, empty when the result passes.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# relative MSE tolerance of one (trial, pattern) result, by oversampling K
MSE_TOL = {2: 0.03, 4: 0.05}
SYMMETRY_TOL = 0.02          # of the closed form
VAR_TOL = 0.01               # Var(quantized) against sx2 + se2 * P_ds
ENTROPY_EXCESS = (0.1, 0.45)  # bits above the closed-form rate
BISECTION_REL_TOL = 1e-6     # shaping.find_lambda_for_ratio's default rel_tol
LOG_QUADRATURE_POINTS = 1 << 16


# ---------------------------------------------------------------------------
# Band powers of |c|^2
# ---------------------------------------------------------------------------


def autocorrelation(c) -> np.ndarray:
    """r_d = sum_i c_i c_{i+d} for d = 0..p."""
    c = np.asarray(c, dtype=np.float64)
    return np.correlate(c, c, mode="full")[c.shape[0] - 1 :]


def band_power(c, lo: float, hi: float) -> float:
    """(1/2pi) * integral over lo <= |w| <= hi of |c(e^jw)|^2 dw.

    |c|^2 = r_0 + 2 sum_d r_d cos(w d), integrated term by term.
    """
    r = autocorrelation(c)
    d = np.arange(1, r.shape[0])
    tail = 2.0 * np.sum(r[1:] * (np.sin(hi * d) - np.sin(lo * d)) / d)
    return float((r[0] * (hi - lo) + tail) / math.pi)


def pattern_power(c, k: int, pattern: str) -> float:
    """Shaped-noise power, relative to the cell variance, behind a pattern.

    One description sees the whole spectrum (sum c^2).  All K keep the base
    band |w| <= pi/K.  Two of four interleaved descriptions keep the base
    band plus the top band that aliases onto it.
    """
    if pattern in ("even", "odd") or pattern.startswith("single"):
        return float(autocorrelation(c)[0])
    if pattern == "central":
        return band_power(c, 0.0, math.pi / k)
    if pattern.startswith("pair") and k == 4:
        return band_power(c, 0.0, math.pi / 4) + band_power(c, 3 * math.pi / 4, math.pi)
    raise ValueError(f"no closed form for pattern {pattern!r} at K={k}")


def closed_form_mse(c, k: int, pattern: str, sx2: float, se2: float, wiener: bool) -> float:
    power = pattern_power(c, k, pattern)
    if wiener:
        return sx2 * se2 * power / (sx2 + se2 * power)
    return se2 * power


def three_step_targets(delta0: float, delta1: float, se2: float) -> dict:
    """Unit-multiplier MSEs of the ideal three-step K=4 spectrum.

    The spectrum is delta0 on |w| < pi/4, delta2 on pi/4..3pi/4 and delta1
    on 3pi/4..pi; a monic minimum-phase spectrum has a zero log-integral,
    so delta2 = 1/sqrt(delta0*delta1).
    """
    delta2 = 1.0 / math.sqrt(delta0 * delta1)
    dc = se2 * delta0 / 4.0
    d2 = dc + se2 * delta1 / 4.0
    d1 = d2 + se2 * delta2 / 2.0
    return {"central": dc, "pair": d2, "single": d1}


# ---------------------------------------------------------------------------
# Codec runs
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> list:
    """Rows of the run CSV as dicts; numeric fields as float."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({key: (val if key == "pattern" else float(val)) for key, val in row.items()})
    return rows


def check_mse(rows, c, k, sx2, se2, wiener, targets=None) -> dict:
    """Problems per (trial, pattern): the MSE against the closed form, and
    (K=4) against the three-step targets, both at the K's tolerance."""
    tol = MSE_TOL[k]
    problems = {}
    for row in rows:
        pat = row["pattern"]
        key = (int(row["trial"]), pat)
        out = problems.setdefault(key, [])
        mse = row["mse_emp"]
        if not math.isfinite(mse):
            out.append(f"{pat}: MSE {mse}")
            continue
        theory = closed_form_mse(c, k, pat, sx2, se2, wiener)
        rel = mse / theory - 1.0
        if abs(rel) > tol:
            out.append(f"{pat}: MSE {mse:.6g} is {rel:+.2%} off the closed form {theory:.6g}")
        if targets is not None:
            kind = "pair" if pat.startswith("pair") else ("single" if pat.startswith("single") else pat)
            rel = mse / targets[kind] - 1.0
            if abs(rel) > tol:
                out.append(f"{pat}: MSE {mse:.6g} is {rel:+.2%} off the three-step target")
    return problems


def check_symmetry(rows, c, k, sx2, se2, wiener) -> dict:
    """Single descriptions are interchangeable: their MSEs may differ by at
    most SYMMETRY_TOL of the closed form, trial by trial."""
    names = ("even", "odd") if k == 2 else tuple(f"single{j}" for j in range(4))
    theory = closed_form_mse(c, k, names[0], sx2, se2, wiener)
    problems = {}
    for trial in sorted({int(r["trial"]) for r in rows}):
        mses = {r["pattern"]: r["mse_emp"] for r in rows if int(r["trial"]) == trial}
        vals = [mses[n] for n in names if n in mses]
        gap = (max(vals) - min(vals)) / theory if len(vals) == len(names) else math.inf
        if not gap <= SYMMETRY_TOL:
            for n in names:
                problems.setdefault((trial, n), []).append(
                    f"single-description MSEs differ by {gap:.2%} of the closed form"
                )
    return problems


def check_rates(rows, c, sx2, se2) -> list:
    """Var(quantized) and the index entropy against the closed-form rate.

    The CSV gives the Gaussian-accounting rate 0.5*log2(var/se2), from
    which Var(quantized) follows exactly.
    """
    problems = []
    pds = float(autocorrelation(c)[0])
    var_theory = sx2 + se2 * pds
    rate_theory = 0.5 * math.log2(var_theory / se2)
    row = rows[0]
    var_emp = se2 * 4.0 ** row["rate_gauss_emp_bits"]
    rel = var_emp / var_theory - 1.0
    if not abs(rel) <= VAR_TOL:
        problems.append(f"Var(quantized) {var_emp:.6g} is {rel:+.2%} off {var_theory:.6g}")
    excess = row["index_entropy_bits"] - rate_theory
    lo, hi = ENTROPY_EXCESS
    if not lo <= excess <= hi:
        problems.append(f"index entropy exceeds the closed-form rate by {excess:.4f} bits")
    return problems


def check_loop(result, step: float) -> list:
    """Invariants of one feedback-loop run: |e| <= step/2 (up to the
    rounding of step*q - z - a_in), and quantized == loop_input + quant_error
    bit for bit."""
    problems = []
    e = result.quant_error
    # a_in = loop_input, z is bounded by step/2, q*step by |a_in| + step
    slack = 4.0 * np.finfo(np.float64).eps * (2.0 * np.abs(result.loop_input) + 2.0 * step)
    worst = np.abs(e) - (0.5 * step + slack)
    if not np.all(worst <= 0.0):
        problems.append(f"|quant_error| exceeds step/2 by {float(worst.max()):.3g}")
    if not np.array_equal(result.quantized, result.loop_input + result.quant_error):
        problems.append("quantized != loop_input + quant_error")
    return problems


# ---------------------------------------------------------------------------
# Filter designs
# ---------------------------------------------------------------------------


def check_min_phase(c) -> list:
    """Roots strictly inside the unit circle, and a zero log-spectrum
    integral up to the quadrature error of the FFT grid.

    For a monic c(z) with zeros z_i, (1/2pi) int log|c|^2 dw is
    sum over |z_i| > 1 of 2 log|z_i|; the N-point rule adds at most
    -2 log(1 - |z_i|^N) per zero inside.
    """
    c = np.asarray(c, dtype=np.float64)
    problems = []
    roots = np.roots(np.trim_zeros(c, "b"))
    mags = np.abs(roots)
    if mags.size and not mags.max() < 1.0:
        problems.append(f"root of magnitude {mags.max():.9f} on or outside the unit circle")
    n = LOG_QUADRATURE_POINTS
    power = np.abs(np.fft.rfft(c, n)) ** 2
    # real rfft halves: interior bins count twice, DC and Nyquist once
    logs = np.log(np.maximum(power, 1e-300))
    integral = (logs[0] + logs[-1] + 2.0 * np.sum(logs[1:-1])) / n
    inside = mags[mags < 1.0]
    tol = 1e-9 + float(np.sum(-2.0 * np.log1p(-(inside**n))))
    if not abs(integral) <= tol:
        problems.append(f"log-spectrum integral {integral:.3g} nats, tolerance {tol:.3g}")
    return problems


def check_yule_walker(c, gamma: float, lam: float) -> list:
    """Monic, P_ds/P_dc hits gamma within the bisection tolerance, and c is
    stationary for P_dc + lam*P_ds: (G + 2 lam I) c_tail = -g with
    G_ij = sinc((i-j)/2), g_i = sinc(i/2)."""
    c = np.asarray(c, dtype=np.float64)
    problems = []
    if c[0] != 1.0:
        problems.append(f"leading coefficient {c[0]!r}, not monic")
    ratio = float(autocorrelation(c)[0]) / band_power(c, 0.0, math.pi / 2)
    # the float64 recomputation of P_dc adds rounding on top of rel_tol
    if not abs(ratio / gamma - 1.0) <= BISECTION_REL_TOL * (1.0 + 1e-3):
        problems.append(f"P_ds/P_dc = {ratio:.9g}, target {gamma:.9g}")
    p = c.shape[0] - 1
    i = np.arange(1, p + 1)
    lhs = (np.sinc((i[:, None] - i[None, :]) / 2.0) + 2.0 * lam * np.eye(p)) @ c[1:]
    residual = float(np.max(np.abs(lhs + np.sinc(i / 2.0))))
    if not residual <= 1e-9 * (1.0 + np.max(np.abs(c))):
        problems.append(f"normal-equation residual {residual:.3g}")
    return problems + check_min_phase(c)


def check_multiband(c, edges, weights) -> list:
    """Monic and stationary for the weighted band-power objective: the
    Toeplitz system of the weight function's autocorrelation m_d annihilates
    c on rows 1..p."""
    c = np.asarray(c, dtype=np.float64)
    problems = []
    if c[0] != 1.0:
        problems.append(f"leading coefficient {c[0]!r}, not monic")
    p = c.shape[0] - 1
    d = np.arange(1, p + 1)
    m = np.zeros(p + 1)
    lo = 0.0
    for hi, w in zip(edges, weights):
        m[0] += w * (hi - lo) / math.pi
        m[1:] += w * (np.sin(hi * d) - np.sin(lo * d)) / (math.pi * d)
        lo = hi
    idx = np.arange(p + 1)
    toeplitz = m[np.abs(idx[:, None] - idx[None, :])]
    residual = float(np.max(np.abs((toeplitz @ c)[1:])))
    if not residual <= 1e-9 * m[0] * np.sum(np.abs(c)):
        problems.append(f"normal-equation residual {residual:.3g}")
    return problems + check_min_phase(c)
