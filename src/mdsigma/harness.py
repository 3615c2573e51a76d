"""Experiment orchestration: seeded Monte-Carlo runs, sweeps, CSV reports.

Reproducibility contract: a run is a pure function of (config,
master_seed).  Each trial draws from Philox substreams keyed by (trial,
role) and returns only its variance, MSEs and index histogram; ``run``
reduces these in trial order, so output is identical in any trial order.

``ExperimentConfig`` is the only config schema: its field annotations
give every key and type that ``read_config_text`` reads from a flat
``key = value`` text (the key ``filter`` names the field ``filter_kind``).

CSV schema (fixed column order):
    trial, pattern, n_samples, sigma_x2, sigma_e2, p, K, delta_or_gamma,
    pdc, pds, rate_theory_bits, rate_gauss_emp_bits, index_entropy_bits,
    mse_theory, mse_emp, stderr
"""

from __future__ import annotations

import math
import numbers
import typing
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import codec as codec_mod
from .codec import CodecConfig, decode_subsets, encode, reconstruction_mse
from .ecdq import QuantizerSpec, ROLE_DITHER, ROLE_SOURCE, derive_seed, substream
from .shaping import (
    ShapingFilter,
    design_multiband,
    design_yule_walker,
    filter_powers,
    find_lambda_for_ratio,
)
from .theory import brickwall_point, brickwall_total_power, gaussian_rate_bits, ozarow_bounds

__all__ = [
    "ExperimentConfig",
    "SimResult",
    "PatternResult",
    "IndexEntropyEstimate",
    "ConfigError",
    "read_config_text",
    "build_filter",
    "run",
    "sweep",
    "sweep_rates",
    "estimate_index_entropy",
    "universality_check",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "trial",
    "pattern",
    "n_samples",
    "sigma_x2",
    "sigma_e2",
    "p",
    "K",
    "delta_or_gamma",
    "pdc",
    "pds",
    "rate_theory_bits",
    "rate_gauss_emp_bits",
    "index_entropy_bits",
    "mse_theory",
    "mse_emp",
    "stderr",
)

_SOURCE_DISTS = ("gaussian", "laplace", "uniform")
_FILTER_KINDS = ("yule_walker", "yule_walker_gamma", "explicit", "multiband")

# fewest indices a plug-in entropy estimate is made from; run() reports NaN
# below it
_ENTROPY_MIN_INDICES = 10**5

# reception pattern -> phases of the received descriptions, per K; patterns
# are validated against it when an ExperimentConfig is built
_PATTERN_PHASES = {
    2: {"central": (0, 1), "even": (0,), "odd": (1,)},
    4: {
        "central": (0, 1, 2, 3),
        "pair02": (0, 2),
        "pair13": (1, 3),
        "single0": (0,),
        "single1": (1,),
        "single2": (2,),
        "single3": (3,),
    },
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte-Carlo experiment; its annotated fields
    are the only list of config keys and their types."""

    sigma_x2: float = 1.0
    sigma_e2: float | None = None      # exactly one of sigma_e2 / quant_step
    quant_step: float | None = None
    filter_kind: str = "yule_walker_gamma"
    p: int = 32
    lambda_ratio: float = 0.0
    gamma: float = 17.0
    coeffs: tuple[float, ...] = ()
    band_edges: tuple[float, ...] = ()
    band_weights: tuple[float, ...] = ()
    oversampling: int = 2
    n_samples: int = 1 << 20
    n_trials: int = 4
    master_seed: int = 20090401
    source_dist: str = "gaussian"
    erasure_patterns: tuple[str, ...] = ()  # default depends on K
    tol_mse_rel: float = 0.03

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers wrap around
        for name, optional in _FLOAT_FIELDS.items():
            value = getattr(self, name)
            if not (optional and value is None):
                object.__setattr__(self, name, _real(name, value))
        for name, item in _TUPLE_FIELDS.items():
            values = getattr(self, name)
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                noun = "real numbers" if item is float else "strings"
                raise ConfigError(f"{name} must be a sequence of {noun}, got {values!r}")
            object.__setattr__(self, name, tuple(_real(f"{name} entry", v) if item is float else v for v in values))
        if self.source_dist not in _SOURCE_DISTS:
            raise ConfigError(f"unknown source_dist {self.source_dist!r}")
        if self.filter_kind not in _FILTER_KINDS:
            raise ConfigError(f"unknown filter {self.filter_kind!r}")
        if self.oversampling not in (2, 4):
            raise ConfigError("K must be 2 or 4")
        if self.n_samples < (1 << 14):
            raise ConfigError("n_samples must be >= 2^14")
        if self.n_samples % 2 != 0:
            raise ConfigError("n_samples must be even")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed!r}")
        if (self.sigma_e2 is None) == (self.quant_step is None):
            raise ConfigError("specify exactly one of sigma_e2 / quant_step")
        for name in ("sigma_x2", "sigma_e2"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        try:
            QuantizerSpec(self.step)
        except ValueError as exc:
            source = "quant_step" if self.sigma_e2 is None else "sqrt(12*sigma_e2)"
            raise ConfigError(f"{source} = {self.step!r}: {exc}") from None
        if not self.tol_mse_rel >= 0:  # NaN fails too
            raise ConfigError(f"tol_mse_rel must be >= 0, got {self.tol_mse_rel!r}")
        for pat in self.erasure_patterns:
            if not isinstance(pat, str) or pat not in self.valid_patterns():
                raise ConfigError(f"pattern {pat!r} invalid for K={self.oversampling}")
        if len(set(self.erasure_patterns)) != len(self.erasure_patterns):
            raise ConfigError(f"duplicate erasure pattern in {self.erasure_patterns}")

    def valid_patterns(self) -> tuple:
        return tuple(_PATTERN_PHASES[self.oversampling])

    @property
    def step(self) -> float:
        return self.quant_step if self.quant_step is not None else math.sqrt(12.0 * self.sigma_e2)

    @property
    def noise_variance(self) -> float:
        return QuantizerSpec(self.step).noise_variance

    @property
    def patterns(self) -> tuple:
        return self.erasure_patterns or self.valid_patterns()

    @property
    def multiplier_mode(self) -> str:
        """The decoder's scaling, as ``codec._multiplier`` applies it: the
        Wiener gain at K=2, none at K=4."""
        return "wiener" if self.oversampling == 2 else "unit"


# ---------------------------------------------------------------------------
# Config file ingestion (flat key = value, # comments, unknown keys rejected)
# ---------------------------------------------------------------------------


def _converter(hint):
    """str -> value for one field annotation: ``X | None`` reads as X and
    ``tuple[X, ...]`` as a comma list of X."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return lambda val: tuple(item(v.strip()) for v in val.split(",") if v.strip())
    (conv,) = [t for t in typing.get_args(hint) or (hint,) if t is not type(None)]
    return conv


_HINTS = typing.get_type_hints(ExperimentConfig)

# file key -> (field, converter); the key ``filter`` names ``filter_kind``
_FILE_KEYS = {
    ("filter" if name == "filter_kind" else name): (name, _converter(hint))
    for name, hint in _HINTS.items()
}

# the fields annotated ``int``, which take integers only (numpy ones as ints)
_INT_FIELDS = tuple(name for name, conv in _FILE_KEYS.values() if conv is int)

# the fields annotated ``float`` or ``float | None`` (True where None is
# admitted), which take real numbers only, bools excepted, and store them
# as Python floats; and those annotated ``tuple[X, ...]``, mapped to X,
# which take any sequence but a string and store a tuple (X = float: of floats)
_FLOAT_FIELDS = {
    name: type(None) in typing.get_args(hint) for name, hint in _HINTS.items() if _converter(hint) is float
}
_TUPLE_FIELDS = {name: typing.get_args(hint)[0] for name, hint in _HINTS.items() if typing.get_origin(hint) is tuple}


def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is out of float range") from None


def read_config_text(text: str) -> dict:
    """Read the flat ``key = value`` format into {field: converted value},
    with line-precise errors; later lines override earlier ones."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field, conv = _FILE_KEYS[key]
        try:
            values[field] = conv(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return values


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


def build_filter(config: ExperimentConfig) -> ShapingFilter:
    kind = config.filter_kind
    if kind == "yule_walker":
        return design_yule_walker(config.p, config.lambda_ratio)
    if kind == "yule_walker_gamma":
        lam = find_lambda_for_ratio(config.gamma, config.p)
        return design_yule_walker(config.p, lam)
    if kind == "explicit":
        if not config.coeffs:
            raise ConfigError("explicit filter needs coeffs")
        return ShapingFilter(tuple(config.coeffs))
    if kind == "multiband":
        if not (config.band_edges and config.band_weights):
            raise ConfigError("multiband filter needs band_edges and band_weights")
        return design_multiband(config.p, config.band_edges, config.band_weights)
    raise ConfigError(f"unknown filter {kind!r}")


def _codec_config(config: ExperimentConfig, filt: ShapingFilter, trial: int) -> CodecConfig:
    return CodecConfig(
        source_variance=config.sigma_x2,
        quantizer=QuantizerSpec(step=config.step),
        filter=filt,
        oversampling=config.oversampling,
        dither_seed=derive_seed(config.master_seed, trial, ROLE_DITHER),
    )


def _draw_source(config: ExperimentConfig, trial: int) -> np.ndarray:
    rng = substream(config.master_seed, trial, ROLE_SOURCE)
    n, sx2 = config.n_samples, config.sigma_x2
    if config.source_dist == "gaussian":
        return math.sqrt(sx2) * rng.standard_normal(n)
    if config.source_dist == "laplace":
        return rng.laplace(0.0, math.sqrt(sx2 / 2.0), n)
    return rng.uniform(-math.sqrt(3.0 * sx2), math.sqrt(3.0 * sx2), n)


def _pattern_theory_mse(config: ExperimentConfig, cfg: CodecConfig, pattern: str) -> float:
    """Analytic MSE for a pattern: the noise power behind its stride, times
    the post-multiplier the decoder applies (the Wiener shrink or 1)."""
    s = cfg.oversampling // len(_PATTERN_PHASES[cfg.oversampling][pattern])
    power = codec_mod.pattern_noise_power(cfg, s)
    return codec_mod._multiplier(cfg, s) * config.noise_variance * power


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternResult:
    pattern: str
    mse_theory: float
    mse_trials: tuple
    mse_emp: float
    stderr: float
    passed: bool


@dataclass(frozen=True)
class IndexEntropyEstimate:
    """Plug-in (histogram) entropy of the index marginal, bits per sample.

    This is a memoryless, finite-sample estimate of the per-index coding
    rate; the Miller bias term (K-1)/(2N ln 2) is reported alongside, not
    subtracted.  Conditioning on the dither is implicit: with subtractive
    dither the index marginal pooled over dither draws upper-bounds the
    dither-conditioned entropy.
    """

    bits: float
    miller_correction_bits: float
    n_symbols: int
    n_samples: int


@dataclass(frozen=True)
class SimResult:
    config: ExperimentConfig
    filter_order: int  # of the designed filter; an explicit one ignores config.p
    pdc: float
    pds: float
    patterns: tuple  # PatternResult, in pattern order
    var_quantized_emp: float
    var_quantized_theory: float
    rate_theory_bits: float
    rate_gauss_emp_bits: float
    index_entropy_bits: float
    index_entropy_miller_bits: float

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.patterns)

    def pattern(self, name: str) -> PatternResult:
        for p in self.patterns:
            if p.pattern == name:
                return p
        raise KeyError(name)

    def csv_rows(self):
        cfg = self.config
        dg = cfg.gamma if cfg.filter_kind == "yule_walker_gamma" else (
            cfg.lambda_ratio if cfg.filter_kind == "yule_walker" else float("nan")
        )
        rows = []
        for trial in range(cfg.n_trials):
            for pr in self.patterns:
                rows.append(
                    (
                        trial,
                        pr.pattern,
                        cfg.n_samples,
                        cfg.sigma_x2,
                        cfg.noise_variance,
                        self.filter_order,
                        cfg.oversampling,
                        dg,
                        self.pdc,
                        self.pds,
                        self.rate_theory_bits,
                        self.rate_gauss_emp_bits,
                        self.index_entropy_bits,
                        pr.mse_theory,
                        pr.mse_trials[trial],
                        pr.stderr,
                    )
                )
        return rows

    def to_csv(self) -> str:
        return _csv_text(CSV_COLUMNS, self.csv_rows())


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _csv_text(columns: Sequence[str], rows) -> str:
    """The header line, then one line of ``_fmt`` fields per row."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def estimate_index_entropy(counts) -> IndexEntropyEstimate:
    """Plug-in entropy, in bits per sample, of the index histogram: a 1-D
    array of non-negative integer counts; empty bins are skipped, and bins
    in ``np.unique``'s order give the bits of the pooled indices' estimate."""
    counts = np.asarray(counts)
    if counts.ndim != 1 or not np.issubdtype(counts.dtype, np.integer) or (counts < 0).any():
        raise ValueError(f"counts must be a 1-D array of non-negative integers, got {counts.dtype} {counts.shape}")
    counts = counts[counts > 0]
    n = int(counts.sum())
    if n < _ENTROPY_MIN_INDICES:
        raise ValueError(f"need at least 10^5 indices, got {n}")
    prob = counts / n
    bits = float(-np.sum(prob * np.log2(prob)))
    miller = (counts.shape[0] - 1) / (2.0 * n * math.log(2.0))
    return IndexEntropyEstimate(
        bits=bits,
        miller_correction_bits=float(miller),
        n_symbols=int(counts.shape[0]),
        n_samples=n,
    )


def _variance_in_place(v: np.ndarray) -> float:
    """np.var(v), bit for bit, overwriting v instead of allocating a
    temporary of its size: the mean, the deviations, their squares in
    place, and their mean."""
    v -= v.mean()
    v *= v
    return float(v.mean())


def _trial(config: ExperimentConfig, filt: ShapingFilter, subsets, trial: int):
    """A pure function: Var(quantized) past the cold start, one MSE per
    subset, and the distinct indices of the K descriptions with counts;
    ValueError if any of it overflows float64.

    The variance is taken in place on the loop's own ``quantized`` array,
    with np.var's operations in np.var's order, so it has np.var's bits.
    The packets are views of the loop's indices, so the loop's indices are
    all the trial keeps of it, and they are the K descriptions' indices
    pooled.
    """
    cfg = _codec_config(config, filt, trial)
    try:
        with np.errstate(over="raise"):
            x = _draw_source(config, trial)
            packets, loop = encode(x, cfg)
            var = _variance_in_place(loop.quantized[cfg.guard * config.oversampling :])
            indices = loop.indices
            del loop  # four oversampled float arrays
            values, counts = np.unique(indices, return_counts=True)
            mses = [reconstruction_mse(block, x, cfg.guard) for block in decode_subsets(packets, cfg, subsets)]
    except FloatingPointError as exc:
        raise ValueError(f"statistics {exc} at sigma_x2={config.sigma_x2!r}, sigma_e2={config.noise_variance!r}") from None
    return var, mses, values, counts


def run(config: ExperimentConfig, csv_path=None) -> SimResult:
    """Execute the configured Monte-Carlo experiment.

    Deterministic given (config, master_seed); optionally writes the CSV
    report to ``csv_path``.
    """
    filt = build_filter(config)
    pdc, pds = filter_powers(filt)
    se2, sx2 = config.noise_variance, config.sigma_x2

    patterns = config.patterns
    subsets = [_PATTERN_PHASES[config.oversampling][pat] for pat in patterns]
    variances, mses, values, counts = zip(*[_trial(config, filt, subsets, t) for t in range(config.n_trials)])
    # the trials' histograms summed bin by bin, in the order of the values
    keys, bins = np.unique(np.concatenate(values), return_inverse=True)
    histogram = np.zeros_like(keys)
    np.add.at(histogram, bins, np.concatenate(counts))

    cfg0 = _codec_config(config, filt, 0)
    results = []
    for pat, trials in zip(patterns, zip(*mses)):
        emp = float(np.mean(trials))
        if len(trials) > 1:
            err = float(np.std(trials, ddof=1) / math.sqrt(len(trials)))
        else:
            err = float("nan")
        theory = _pattern_theory_mse(config, cfg0, pat)
        passed = abs(emp / theory - 1.0) <= config.tol_mse_rel
        results.append(
            PatternResult(
                pattern=pat, mse_theory=theory, mse_trials=trials,
                mse_emp=emp, stderr=err, passed=passed,
            )
        )

    var_emp = float(np.mean(variances))
    var_theory = sx2 + se2 * pds
    rate_theory = gaussian_rate_bits(var_theory, se2)
    rate_gauss = gaussian_rate_bits(var_emp, se2)
    if histogram.sum() >= _ENTROPY_MIN_INDICES:
        ent = estimate_index_entropy(histogram)
        ent_bits, ent_miller = ent.bits, ent.miller_correction_bits
    else:
        # too few indices for a meaningful plug-in estimate
        ent_bits = ent_miller = float("nan")

    result = SimResult(
        config=config,
        filter_order=filt.order,
        pdc=pdc,
        pds=pds,
        patterns=tuple(results),
        var_quantized_emp=var_emp,
        var_quantized_theory=var_theory,
        rate_theory_bits=rate_theory,
        rate_gauss_emp_bits=rate_gauss,
        index_entropy_bits=ent_bits,
        index_entropy_miller_bits=ent_miller,
    )
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(result.to_csv())
    return result


SWEEP_COLUMNS = (
    "delta",
    "sigma_e2",
    "sigma_x2",
    "rate_bits",
    "dc_theory",
    "ds_theory",
    "pdc",
    "pds",
    "ozarow_ds_floor",
    "ozarow_dc_bound",
)


def sweep(deltas: Sequence[float], sigma_e2: float, sigma_x2: float = 1.0, csv_path=None):
    """Analytic rate-distortion sweep over brick-wall operating points.

    Each grid point carries its bound columns for overlay: the side floor
    sx2*2^(-2R), and the central bound of ``theory.ozarow_bounds``, which
    reads NaN where that raises (sx2*2^(-4R) below the smallest normal
    double, past about R = 255.5 bits at sx2 = 1).
    """
    deltas = list(deltas)
    if not deltas:
        raise ValueError("empty grid")
    rows = []
    for d in deltas:
        pt = brickwall_point(d, sigma_e2, sigma_x2)
        floor = sigma_x2 * 2.0 ** (-2 * pt.rate_bits)
        try:
            bound = ozarow_bounds(pt.rate_bits, pt.ds, sigma_x2)
        except ValueError:
            bound = float("nan")
        rows.append(
            (d, sigma_e2, sigma_x2, pt.rate_bits, pt.dc, pt.ds, pt.pdc, pt.pds, floor, bound)
        )
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text(SWEEP_COLUMNS, rows))
    return rows


def sweep_rates(rates: Sequence[float], delta: float, sigma_x2: float = 1.0, csv_path=None):
    """Rate-grid variant of :func:`sweep` at a fixed spectrum shape.

    For each target rate the noise variance is solved from
    R = (1/2) log2((sx2 + se2*P_ds)/se2), i.e. se2 = sx2/(4^R - P_ds);
    rates at or below (1/2) log2(1 + P_ds) are infeasible.
    """
    rates = list(rates)
    if not rates:
        raise ValueError("empty grid")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    pds = brickwall_total_power(delta)
    sigma_e2s = []
    for r in rates:
        try:
            denom = 4.0**r - pds
        except OverflowError:
            raise ValueError(f"rate {r} overflows float64: 4^R is past DBL_MAX") from None
        if denom <= 0:
            raise ValueError(f"rate {r} infeasible for delta={delta}")
        sigma_e2s.append(sigma_x2 / denom)
    rows = []
    for se2 in sigma_e2s:
        rows.extend(sweep([delta], se2, sigma_x2))
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text(SWEEP_COLUMNS, rows))
    return rows


def universality_check(config: ExperimentConfig, csv_path=None) -> SimResult:
    """Run a non-Gaussian source at high resolution against the same closed forms.

    The distortion formulas involve only second moments, so they must hold
    unchanged; the Gaussian-accounting rate is an upper bound for
    non-Gaussian sources of the same variance (reported as usual).
    """
    if config.noise_variance > 1e-3 * config.sigma_x2:
        raise ValueError("universality check requires sigma_e2 <= 1e-3 * sigma_x2")
    return run(config, csv_path=csv_path)
