"""Oversampled dithered feedback codec: encoder, packetization, decoders.

Encoder: the source block is oversampled by K, the quantization error of
each sample is fed back through the tail of the monic shaping filter and
added to the next oversampled sample, and each sample is quantized with
fresh subtractive dither.  Quantizer outputs are split by time index
modulo K into K descriptions, each carrying one index per source sample
plus the (seed, phase) pair that regenerates its dither.

Decoders (reception cases):
  * all K received: interlace, brick-wall lowpass to |w| <= pi/K,
    decimate, scale by the central post-multiplier;
  * one description: regenerate dither, rebuild samples, fractional-delay
    by phase/K base samples to re-align the sampling grid, scale by the
    side post-multiplier;
  * two interleaved descriptions out of four: interlace to a half-rate
    stream, lowpass, fractional-delay if the pair is odd-offset, decimate,
    scale.

The feedback recursion is sequential by nature.  ``_dsq_loop_py`` is the
array kernel, compiled with numba when it is installed.  Without numba the
encoder runs ``_dsq_loop_unrolled``, a straight-line Python kernel generated
per call from the filter order: the same operations in the same order, so
its indices, errors and feedback are bit-identical to the compiled
kernel's.  It is not a slow path reserved for tests; on its own it meets
the acceptance timing gates.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dsp import (
    InterpolatorSpec,
    SignalBlock,
    halfsample_allpass,
    ideal_fractional_delay,
    ideal_lowpass_downsample,
    ideal_upsample,
    lowpass_downsample2,
    upsample2,
)
from .ecdq import QuantizerSpec, DitherStream
from .shaping import ShapingFilter, band_power, filter_powers

__all__ = [
    "CodecConfig",
    "DescriptionPacket",
    "Multipliers",
    "EncodeTrace",
    "LoopResult",
    "compute_multipliers",
    "delta_sigma_loop",
    "encode",
    "decode_central",
    "decode_side",
    "decode_subset_k4",
    "pattern_noise_power",
    "reconstruction_mse",
]


# ---------------------------------------------------------------------------
# Feedback loop kernel
# ---------------------------------------------------------------------------


def _dsq_loop_py(a, c_tail, z, step, q_out, e_out, fb_out):
    n = a.shape[0]
    p = c_tail.shape[0]
    for k in range(n):
        acc = 0.0
        jmax = p if p < k else k
        for i in range(jmax):
            acc += c_tail[i] * e_out[k - 1 - i]
        a_in = a[k] + acc
        y = (a_in + z[k]) / step
        qk = math.floor(y + 0.5)
        q_out[k] = qk
        e_out[k] = step * qk - z[k] - a_in
        fb_out[k] = acc


def _unrolled_loop_source(p: int) -> str:
    """Source of a straight-line ``_dsq_loop_py`` for filter order ``p``.

    The last p errors live in locals h0..h{p-1}, written round-robin, and
    the body is unrolled p times so that sub-step r finds e[k-1-i] in
    h{(r-1-i) % p}: no value is ever shifted.  Each feedback sum adds the
    products newest error first, after a leading 0.0, as the reference
    kernel does.  The source depends on p alone; no data is formatted in.
    """
    lines = ["def kernel(it, c, step, q_append, e_append, fb_append, floor, next):"]
    if p:
        lines.append("    " + ", ".join(f"c{i}" for i in range(p)) + ", = c")
        lines.append("    " + " = ".join(f"h{i}" for i in range(p)) + " = 0.0")
    lines.append("    for ak, zk in it:")
    for r in range(max(p, 1)):
        if r:
            lines += [
                "        try:",
                "            ak, zk = next(it)",
                "        except StopIteration:",
                "            return",
            ]
        terms = "".join(f" + c{i}*h{(r - 1 - i) % p}" for i in range(p))
        lines += [
            f"        acc = 0.0{terms}",
            "        s = ak + acc",
            "        qk = floor((s + zk) / step + 0.5)",
            f"        {f'h{r} = ' if p else ''}ek = step * qk - zk - s",
            "        q_append(qk)",
            "        e_append(ek)",
            "        fb_append(acc)",
        ]
    return "\n".join(lines) + "\n"


def _dsq_loop_unrolled(a, c_tail, z, step, q_out, e_out, fb_out):
    # _dsq_loop_py without numba: indexing a numpy array boxes a scalar per
    # access, so the samples stream as Python floats through memoryviews of
    # the inputs (as fast as iterating an array.array copy, without the
    # copy) and the outputs gather in array.array buffers, never as lists.  The
    # history starts at 0.0 instead of a cold-start branch: each sum starts
    # from 0.0, so in round-to-nearest acc is never -0.0, and adding a +-0.0
    # product (ShapingFilter rejects non-finite coefficients) leaves it
    # unchanged bit for bit, as if the term were absent
    p = c_tail.shape[0]
    namespace = {}
    exec(compile(_unrolled_loop_source(p), f"<dsq loop p={p}>", "exec"), namespace)
    q, e, fb = array("q"), array("d"), array("d")
    it = zip(memoryview(a), memoryview(z))
    namespace["kernel"](
        it, c_tail.tolist(), step, q.append, e.append, fb.append, math.floor, next
    )
    q_out[:] = np.frombuffer(q, dtype=np.int64)
    e_out[:] = np.frombuffer(e, dtype=np.float64)
    fb_out[:] = np.frombuffer(fb, dtype=np.float64)


try:  # pragma: no cover - exercised implicitly
    import numba

    _dsq_loop = numba.njit(cache=True)(_dsq_loop_py)
except ImportError:  # pragma: no cover
    _dsq_loop = _dsq_loop_unrolled


@dataclass(frozen=True)
class LoopResult:
    """Raw outcome of the feedback recursion in the oversampled domain.

    By construction loop_input = a + feedback and quantized =
    loop_input + quant_error hold bit-exactly, sample by sample.
    """

    indices: np.ndarray      # lattice indices per sample
    quantized: np.ndarray    # loop_input + quant_error
    quant_error: np.ndarray  # in (-step/2, step/2]
    loop_input: np.ndarray   # oversampled sample plus fed-back shaped error
    feedback: np.ndarray     # tail-filtered past errors


def delta_sigma_loop(a, filt: ShapingFilter, dither, step: float) -> LoopResult:
    """Run the noise-feedback quantization recursion over a block.

    Past errors start at zero, so the first ``order`` outputs see a cold
    feedback state; callers exclude them from statistics.  A non-finite
    signal or dither sample is rejected before any kernel runs.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    z = np.ascontiguousarray(dither, dtype=np.float64)
    if a.shape != z.shape:
        raise ValueError("dither length must match the oversampled block")
    if not step > 0:
        raise ValueError("step must be positive")
    if not (np.isfinite(a).all() and np.isfinite(z).all()):
        raise ValueError("signal and dither must be finite")
    c_tail = np.ascontiguousarray(filt.coeffs[1:], dtype=np.float64)
    n = a.shape[0]
    q = np.empty(n, dtype=np.int64)
    e = np.empty(n, dtype=np.float64)
    fb = np.empty(n, dtype=np.float64)
    _dsq_loop(a, c_tail, z, float(step), q, e, fb)
    loop_in = a + fb
    return LoopResult(
        indices=q, quantized=loop_in + e, quant_error=e, loop_input=loop_in, feedback=fb
    )


# ---------------------------------------------------------------------------
# Configuration and packets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodecConfig:
    source_variance: float
    quantizer: QuantizerSpec
    filter: ShapingFilter
    oversampling: int = 2
    interpolator: InterpolatorSpec = field(default_factory=InterpolatorSpec)
    dither_seed: int = 0
    resampler: str = "ideal"          # "ideal" (exact DFT masks) or "fir"
    post_multipliers: str = "wiener"  # "wiener" or "unit"

    def __post_init__(self):
        if self.oversampling not in (2, 4):
            raise ValueError("oversampling must be 2 or 4")
        if not self.source_variance > 0:
            raise ValueError("source variance must be positive")
        if self.resampler not in ("ideal", "fir"):
            raise ValueError("resampler must be 'ideal' or 'fir'")
        if self.post_multipliers not in ("wiener", "unit"):
            raise ValueError("post_multipliers must be 'wiener' or 'unit'")
        if self.resampler == "fir" and self.oversampling != 2:
            raise ValueError("fir resampler supports oversampling 2 only")

    @property
    def guard(self) -> int:
        """Base-rate samples excluded from statistics for the loop cold start."""
        return max(self.filter.order, 2)


@dataclass(frozen=True)
class DescriptionPacket:
    description_id: int
    indices: np.ndarray
    dither_seed: int
    phase: int

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class Multipliers:
    alpha: float
    beta: float


@dataclass(frozen=True)
class EncodeTrace:
    """Oversampled-domain signals kept for verification."""

    oversampled: np.ndarray    # a
    loop_input: np.ndarray     # a' = a + feedback
    quantized: np.ndarray      # a^ = a' + e
    quant_error: np.ndarray    # e
    shaped_error: np.ndarray   # eps = a^ - a = (c * e)
    feedback: np.ndarray       # tail-filtered past errors
    margin: int                # oversampled-domain margin (fir mode)


def compute_multipliers(sigma_x2: float, sigma_e2: float, pdc: float, pds: float) -> Multipliers:
    """Wiener post-multipliers: alpha = sx2/(sx2 + se2*P_ds), beta likewise with P_dc."""
    if sigma_x2 <= 0 or sigma_e2 < 0 or pdc < 0 or pds < 0:
        raise ValueError("invalid multiplier inputs")
    return Multipliers(
        alpha=sigma_x2 / (sigma_x2 + sigma_e2 * pds),
        beta=sigma_x2 / (sigma_x2 + sigma_e2 * pdc),
    )


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _as_base_array(x) -> np.ndarray:
    if isinstance(x, SignalBlock):
        if x.rate != 1:
            raise ValueError("encoder input must be a base-rate block")
        return np.asarray(x.samples, dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


def _dither_block(cfg: CodecConfig, n_base: int) -> np.ndarray:
    """Interleave the per-phase dither substreams into one oversampled stream."""
    k = cfg.oversampling
    z = np.empty(k * n_base)
    for phase in range(k):
        z[phase::k] = DitherStream(cfg.dither_seed, cfg.quantizer.step, phase).draw(n_base)
    return z


def pattern_noise_power(cfg: CodecConfig, pattern: str) -> float:
    """Shaped-noise power (relative to the cell noise variance) seen by a
    reception pattern: 'central' keeps the in-band part, 'side' collects the
    whole spectrum, 'pair' adds the aliased top band to the in-band part."""
    pdc, pds = filter_powers(cfg.filter)
    k = cfg.oversampling
    if pattern == "central":
        return pdc if k == 2 else band_power(cfg.filter, 0.0, np.pi / 4)
    if pattern == "side":
        return pds
    if pattern == "pair":
        if k != 4:
            raise ValueError("pair pattern requires oversampling 4")
        return band_power(cfg.filter, 0.0, np.pi / 4) + band_power(cfg.filter, 3 * np.pi / 4, np.pi)
    raise ValueError(f"unknown pattern {pattern!r}")


def _multiplier(cfg: CodecConfig, pattern: str) -> float:
    if cfg.post_multipliers == "unit":
        return 1.0
    power = pattern_noise_power(cfg, pattern)
    sx2 = cfg.source_variance
    return sx2 / (sx2 + cfg.quantizer.noise_variance * power)


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


def encode(x, cfg: CodecConfig, dither=None):
    """Encode a base-rate block into K description packets plus a trace.

    ``dither`` overrides the seeded dither stream (test hook, e.g. forcing
    zero dither); it must cover the oversampled block.
    """
    base = _as_base_array(x)
    n = base.shape[0]
    if n == 0:
        raise ValueError("empty signal")
    if n % 2 != 0:
        raise ValueError("block length must be even")
    k = cfg.oversampling

    if cfg.resampler == "ideal":
        a = ideal_upsample(base, k)
        margin = 0
    else:
        blk = upsample2(SignalBlock(base), cfg.interpolator)
        a = np.asarray(blk.samples)
        margin = blk.margin

    if dither is None:
        z = _dither_block(cfg, n)
    else:
        z = np.asarray(dither, dtype=np.float64)
        if z.shape != a.shape:
            raise ValueError("dither override must cover the oversampled block")

    loop = delta_sigma_loop(a, cfg.filter, z, cfg.quantizer.step)
    packets = [
        DescriptionPacket(
            description_id=j,
            indices=loop.indices[j::k],
            dither_seed=cfg.dither_seed,
            phase=j,
        )
        for j in range(k)
    ]
    trace = EncodeTrace(
        oversampled=a,
        loop_input=loop.loop_input,
        quantized=loop.quantized,
        quant_error=loop.quant_error,
        shaped_error=loop.quantized - a,
        feedback=loop.feedback,
        margin=margin,
    )
    return packets, trace


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------


def _regenerate_samples(packet: DescriptionPacket, cfg: CodecConfig, dither=None) -> np.ndarray:
    """step*index - dither for one description."""
    n = packet.indices.shape[0]
    if dither is None:
        z = DitherStream(packet.dither_seed, cfg.quantizer.step, packet.phase).draw(n)
    else:
        z = np.asarray(dither, dtype=np.float64)[packet.phase :: cfg.oversampling]
    return cfg.quantizer.step * packet.indices.astype(np.float64) - z


def _interlace(packets: Sequence[DescriptionPacket], cfg: CodecConfig, dither=None) -> np.ndarray:
    k = cfg.oversampling
    n = packets[0].indices.shape[0]
    out = np.empty(k * n)
    for pkt in packets:
        out[pkt.phase :: k] = _regenerate_samples(pkt, cfg, dither)
    return out


def decode_central(packets: Sequence[DescriptionPacket], cfg: CodecConfig, dither=None) -> SignalBlock:
    """Reconstruct from all K descriptions: interlace, lowpass, decimate, scale."""
    k = cfg.oversampling
    phases = sorted(p.phase for p in packets)
    if phases != list(range(k)):
        raise ValueError("central decoding requires all descriptions")
    seeds = {p.dither_seed for p in packets}
    if len(seeds) != 1:
        raise ValueError("packets disagree on the dither seed")
    ahat = _interlace(packets, cfg, dither)
    beta = _multiplier(cfg, "central")
    if cfg.resampler == "ideal":
        u = ideal_lowpass_downsample(ahat, k)
        return SignalBlock(beta * u, rate=1, margin=cfg.guard)
    blk = SignalBlock(ahat, rate=2, margin=cfg.interpolator.half_length)
    down = lowpass_downsample2(blk, cfg.interpolator)
    return SignalBlock(beta * down.samples, rate=1, margin=down.margin + cfg.guard)


def decode_side(packet: DescriptionPacket, cfg: CodecConfig, dither=None) -> SignalBlock:
    """Reconstruct from a single description.

    Phase-0 samples sit on the source grid already; other phases are
    re-aligned by a fractional delay of phase/K base samples before the
    side post-multiplier.
    """
    k = cfg.oversampling
    if not (0 <= packet.phase < k):
        raise ValueError(f"unknown description id {packet.description_id}")
    u = _regenerate_samples(packet, cfg, dither)
    shift = packet.phase / k
    alpha = _multiplier(cfg, "side")
    if packet.phase == 0:
        return SignalBlock(alpha * u, rate=1, margin=cfg.guard)
    if cfg.resampler == "ideal":
        aligned = ideal_fractional_delay(u, shift)
        return SignalBlock(alpha * aligned, rate=1, margin=cfg.guard)
    aligned = halfsample_allpass(SignalBlock(u), cfg.interpolator, shift)
    extra = -(-cfg.interpolator.half_length // 2)  # encoder margin at base rate
    return SignalBlock(
        alpha * aligned.samples, rate=1, margin=aligned.margin + extra + cfg.guard
    )


def decode_subset_k4(packets: Sequence[DescriptionPacket], cfg: CodecConfig, dither=None) -> SignalBlock:
    """Reconstruct from two interleaved descriptions of a K=4 encoding.

    Only the uniform subsets {0,2} and {1,3} are supported; other pairs
    need non-uniform reconstruction rules.
    """
    if cfg.oversampling != 4:
        raise ValueError("subset decoding requires oversampling 4")
    phases = sorted(p.phase for p in packets)
    if phases not in ([0, 2], [1, 3]):
        raise ValueError("non-uniform subset unsupported")
    if len({p.dither_seed for p in packets}) != 1:
        raise ValueError("packets disagree on the dither seed")
    parity = phases[0]
    n = packets[0].indices.shape[0]
    half = np.empty(2 * n)
    for pkt in packets:
        half[(pkt.phase - parity) // 2 :: 2] = _regenerate_samples(pkt, cfg, dither)
    # half[i] sits at base position (2*i + parity)/4: lowpass to the source
    # band, re-align odd-offset pairs by half a half-rate sample, decimate
    spec = np.fft.rfft(half)
    spec[n // 2 + 1 :] = 0.0
    if parity == 1:
        bins = np.arange(n + 1)
        ramp = np.exp(-2j * np.pi * bins * 0.5 / (2 * n))
        ramp[-1] = 0.0
        spec = spec * ramp[: spec.shape[0]]
    u = np.fft.irfft(spec, n=2 * n)[::2]
    scale = _multiplier(cfg, "pair")
    return SignalBlock(scale * u, rate=1, margin=cfg.guard)


def reconstruction_mse(decoded: SignalBlock, reference) -> float:
    """Mean squared error over the decoded block's interior samples."""
    ref = _as_base_array(reference)
    if len(decoded) != ref.shape[0]:
        raise ValueError("length mismatch")
    m = decoded.margin
    err = decoded.samples - ref
    if m > 0:
        err = err[m : len(err) - m if m < len(err) else None]
    if err.size == 0:
        raise ValueError("no interior samples left")
    return float(np.mean(err * err))
