"""Oversampled dithered feedback codec: encoder, packetization, decoder.

Encoder: the source block is oversampled by K, the quantization error of
each sample is fed back through the tail of the monic shaping filter and
added to the next oversampled sample, and each sample is quantized with
fresh subtractive dither.  Quantizer outputs are split by time index
modulo K into K descriptions, each carrying one index per source sample
plus the (seed, phase) pair that regenerates its dither.

Decoder: a description's dither comes only from its packet's (seed,
phase).  The scheme is symmetric and time-invariant, so one formula
serves every uniform subset of descriptions, i.e. phases {r, r+s, ...}
with stride s = K/m for m received packets and offset r < s.  Sample t of
the description with phase j sits at base position t + j/K, so its own
reconstruction is the description delayed by j/K with the encoder's
length-n operator, y_j = irfft(D_j(k) exp(-2 pi i k j/(K n)), n), where
D_j is its length-n spectrum; phase 0 has no delay, so y_0 is the
description itself and needs no FFT.  A subset's block is the mean of its
y_j.
For m > 1 the band-edge bin k = n/2 also collects its mirror image; the
inverse real FFT keeps the real part of that bin once per description, so
the fold adds it once more: (-1)^t Re B(n/2)/n, with B(n/2) the mean of
the twiddled edge bins D_j(n/2) cos(pi j/K).  In exact arithmetic the
block is the inverse FFT of the phase-twiddled mean spectrum with its
edge bin doubled.  At K=2 the block is scaled by the Wiener gain of the
noise power behind stride s; at K=4 it is not scaled.  All K
descriptions (s = 1) give the central reconstruction, a single one
(s = K) a side reconstruction.  ``decode_subsets`` decodes a list of
subsets in one call: it forms each description's reconstruction once per
call, shares it across the subsets and returns one read-only float64
array per subset; ``decode`` is its one-subset case.  Statistics skip
the loop's cold start, ``CodecConfig.guard`` samples at each end
(``reconstruction_mse``).

The feedback recursion is sequential by nature.  ``_dsq_loop`` runs it
in a C kernel, or, where no compiler is found or the build or load fails,
in straight-line Python generated from the filter order.  The C kernel is
part of the library that ``_native`` compiles on first use with the
system's C compiler and caches on disk, which also holds the kernels of
``shaping``'s designs.  Both kernels are called as kernel(a, z, n, c_tail,
p, step, q, e, fb) and fill the arrays q, e and fb that ``_dsq_loop``
allocates.  They add the feedback with the same float64 operations in the
same order (the C one runs its partial sums as two 2-lane vectors, each
lane doing the scalar multiply and add, and is built without contraction
into fused multiply-adds), and both round exactly, so they give the same
bits; a test holds them to that.  The feedback sum fb_k = c_1 e_{k-1} +
... + c_p e_{k-p} is added in one fixed order: the terms j = 2..p go into
four partial sums by (j - 2) mod 4, each started from 0.0 and added
oldest first, and fb_k = ((t0 + t1) + (t2 + t3)) + c_1 e_{k-1}, so only
the newest term waits on the error just computed.  The noise model treats
the sum as exact; the order only fixes the bits.  ``loop_backend`` names
the kernel that runs.  The loop is also the library's only dithered
quantizer (an order-0 filter gives plain dithered quantization): with y =
(s + z)/step it rounds half up, index = floor(y) + [y - floor(y) >= 1/2].
y - floor(y) is exact wherever it lies below 1/2, so, unlike floor(y +
1/2), the rule never picks the far cell, and every error lies in
(-step/2, step/2].  The generated kernel takes ``math.floor``.  The C
kernel rounds in floating point, exactly, without libm and with no
conversion to an integer on the error's path; the comment above
``_native.SOURCE`` derives it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _native
from .dsp import ideal_fractional_delay, ideal_upsample
from .ecdq import QuantizerSpec, DitherStream
from .shaping import MAX_ORDER, ShapingFilter, band_power
from .theory import wiener_gain

__all__ = [
    "CodecConfig",
    "DescriptionPacket",
    "LoopResult",
    "delta_sigma_loop",
    "encode",
    "decode",
    "decode_subsets",
    "loop_backend",
    "pattern_noise_power",
    "reconstruction_mse",
]


# ---------------------------------------------------------------------------
# Feedback loop kernels
# ---------------------------------------------------------------------------


def _native_loop():
    """The C loop kernel, or None where the compiled library cannot be had
    (``_native.library`` logs why, once)."""
    lib = _native.library()
    return None if lib is None else lib.dsq_loop


def loop_backend() -> str:
    """Which kernel runs the feedback loop in this process: "c" or "python"."""
    return "python" if _native_loop() is None else "c"


def _unrolled_loop_source(p: int) -> str:
    """Source of the straight-line feedback loop for filter order ``p``,
    ``kernel(a, z, n, c_tail, p, step, q, e, fb)``, the C kernel's contract:
    it fills the outputs q, e and fb that the caller allocates.

    Indexing a numpy array boxes a scalar per access, so the samples stream
    as Python floats through memoryviews of the inputs and the results are
    stored through memoryviews of the outputs.  The last p errors live in
    locals h0..h{p-1}, written round-robin, and the body is unrolled p
    times so that sub-step r finds e[k-j] in h{(r-j) % p}: no value is ever
    shifted.  Each feedback sum adds the terms c_j e[k-j], j = 2..p, into
    four partial sums by (j - 2) % 4, each started from 0.0 and added
    oldest first (descending j), and then the newest term: fb[k] = ((t0 +
    t1) + (t2 + t3)) + c_1 e[k-1].  Only the newest term waits on the error
    just computed.  The history starts at 0.0 instead of a cold-start
    branch: each sum starts from 0.0, so in round-to-nearest acc is never
    -0.0, and adding a +-0.0 product (ShapingFilter rejects non-finite
    coefficients) leaves it unchanged bit for bit, as if the term were
    absent.  The source depends on p alone; no data is formatted in.
    """
    lines = [
        "def kernel(a, z, n, c, p, step, q, e, fb, floor=floor, next=next):",
        "    q, e, fb = memoryview(q), memoryview(e), memoryview(fb)",
    ]
    if p:
        lines.append("    " + ", ".join(f"c{i}" for i in range(p)) + ", = memoryview(c)")
        lines.append("    " + " = ".join(f"h{i}" for i in range(p)) + " = 0.0")
    lines += ["    it = zip(range(n), memoryview(a), memoryview(z))", "    for k, ak, zk in it:"]
    for r in range(max(p, 1)):
        if r:
            lines += [
                "        try:",
                "            k, ak, zk = next(it)",
                "        except StopIteration:",
                "            return",
            ]
        t = [
            "(0.0" + "".join(f" + c{j - 1}*h{(r - j) % p}" for j in range(p, 1, -1) if (j - 2) % 4 == i) + ")"
            for i in range(4)
        ]
        newest = f" + c0*h{(r - 1) % p}" if p else ""
        lines += [
            f"        acc = ({t[0]} + {t[1]}) + ({t[2]} + {t[3]}){newest}",
            "        s = ak + acc",
            "        y = (s + zk) / step",
            "        qk = floor(y)",
            "        if y - qk >= 0.5:",
            "            qk += 1",
            f"        {f'h{r} = ' if p else ''}ek = step * qk - zk - s",
            "        q[k] = qk",
            "        e[k] = ek",
            "        fb[k] = acc",
        ]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=MAX_ORDER + 1)
def _generated_kernel(p: int):
    """The generated kernel for order p, compiled once: the source grows as
    p^2, and compiling it takes about 0.1 s at p = 128."""
    namespace = {"floor": math.floor}
    exec(compile(_unrolled_loop_source(p), f"<dsq loop p={p}>", "exec"), namespace)
    return namespace["kernel"]


def _dsq_loop(a, c_tail, z, step):
    """Run the recursion over C-contiguous float64 arrays a and z of one
    length and the filter tail c_tail; return (q, e, fb) as int64 and
    float64 arrays.  The kernel, C or, where that cannot be had, the
    generated one with the same bits, fills arrays numpy allocates here."""
    n, p = a.shape[0], c_tail.shape[0]
    q, e, fb = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    (_native_loop() or _generated_kernel(p))(a, z, n, c_tail, p, step, q, e, fb)
    return q, e, fb


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
    feedback state; callers exclude them from statistics.  A step that
    ``QuantizerSpec`` refuses, a non-finite signal or dither sample, or a
    block whose index could reach 2^52, is rejected before any kernel
    runs.  Every error lies in the cell (-step/2, step/2], so |index| <=
    (max|a| + max|z| + sum|c_tail| step/2)/step + 1/2; from 2^52 on,
    float64 no longer resolves a fraction of a step.

    The dither is let go once the kernel returns and the signal once
    loop_input is formed, so where the caller keeps no reference to
    either, the call holds at most five arrays of the block's length.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    z = np.ascontiguousarray(dither, dtype=np.float64)
    del dither  # z is this frame's only name for the dither
    if a.shape != z.shape:
        raise ValueError("dither length must match the oversampled block")
    step = QuantizerSpec(step).step
    # max|a| and max|z| without a temporary array the size of the block; a
    # NaN or an infinity anywhere makes its peak NaN or inf.  The bound is
    # formed in Python floats, which overflow to inf without a warning
    peak_a = float(max(a.max(initial=0.0), -a.min(initial=0.0)))
    peak_z = float(max(z.max(initial=0.0), -z.min(initial=0.0)))
    if not (math.isfinite(peak_a) and math.isfinite(peak_z)):
        raise ValueError("signal and dither must be finite")
    c_tail = np.ascontiguousarray(filt.coeffs[1:], dtype=np.float64)
    if not (peak_a + peak_z + sum(map(abs, c_tail.tolist())) * step / 2) / step < 2.0**52:
        raise ValueError("signal, dither and feedback could push an index past 2^52 steps")
    q, e, fb = _dsq_loop(a, c_tail, z, step)
    del z
    loop_in = a + fb
    del a
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
    dither_seed: int = 0

    def __post_init__(self):
        if self.oversampling not in (2, 4):
            raise ValueError("oversampling must be 2 or 4")
        if isinstance(self.source_variance, bool) or not 0 < self.source_variance < math.inf:
            raise ValueError(f"source variance must be positive and finite, got {self.source_variance!r}")
        if not isinstance(self.quantizer, QuantizerSpec):
            raise TypeError(f"quantizer must be a QuantizerSpec, got {self.quantizer!r}")

    @property
    def guard(self) -> int:
        """Base-rate samples excluded from statistics for the loop cold start."""
        return max(self.filter.order, 2)


@dataclass(frozen=True)
class DescriptionPacket:
    """One description: its indices as a read-only int64 array, and the
    (seed, phase) pair that regenerates its dither.

    int64 indices are kept as a read-only view of the given array, with no
    copy; so are ``encode``'s, strided views of the loop's frozen indices.
    The caller's array object stays as it was, and a packet made from a
    writable array sees later writes to it.  Indices of any other integer
    dtype are copied to int64.
    """

    indices: np.ndarray
    dither_seed: int
    phase: int

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 1:
            raise ValueError(f"indices must be one-dimensional, got shape {idx.shape}")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"indices must have an integer dtype, got {idx.dtype}")
        if idx.dtype.kind == "u" and idx.max(initial=0) > np.iinfo(np.int64).max:
            raise ValueError(f"indices must fit in int64, got {idx.max()}")
        for name, value in (("dither seed", self.dither_seed), ("phase", self.phase)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        idx = idx.view() if idx.dtype == np.int64 else idx.astype(np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _dither_block(cfg: CodecConfig, n_base: int) -> np.ndarray:
    """Interleave the per-phase dither substreams into one oversampled stream."""
    k = cfg.oversampling
    z = np.empty(k * n_base)
    for phase in range(k):
        z[phase::k] = DitherStream(cfg.dither_seed, cfg.quantizer.step, phase).draw(n_base)
    return z


def pattern_noise_power(cfg: CodecConfig, stride: int) -> float:
    """Shaped-noise power, relative to the cell noise variance, behind the
    uniform subset of descriptions with phase stride s.

    Keeping every s-th of the K phases aliases the spectrum with period
    2pi/s onto the source band |w| <= pi/K, so the power is that of |c|^2 in
    [2pi*j/s - pi/K, 2pi*j/s + pi/K] & [0, pi] for j = 0..floor(s/2): the
    lags d with s | d.  Stride 1 keeps the in-band power, stride K the total.
    """
    k = cfg.oversampling
    if not (stride >= 1 and k % stride == 0):
        raise ValueError(f"stride {stride!r} invalid for oversampling {k}")
    return sum(
        band_power(
            cfg.filter,
            max(0.0, math.pi * (2 * j / stride - 1 / k)),
            min(math.pi, math.pi * (2 * j / stride + 1 / k)),
        )
        for j in range(stride // 2 + 1)
    )


def _multiplier(cfg: CodecConfig, stride: int) -> float:
    """The decoder's post-multiplier for stride s: the Wiener gain of the
    pattern's noise power at K=2, none (1.0) at K=4."""
    if cfg.oversampling != 2:
        return 1.0
    return wiener_gain(cfg.source_variance, cfg.quantizer.noise_variance, pattern_noise_power(cfg, stride))


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


def encode(x, cfg: CodecConfig):
    """Encode a base-rate block into K description packets and the
    oversampled loop's ``LoopResult``; phase j's dither is drawn from
    ``DitherStream(cfg.dither_seed, step, j)``.

    The loop's indices are frozen and packet j holds the read-only strided
    view ``loop.indices[j::K]``, so the packets add no copy.  No name is
    kept for the upsampled block or the dither, so the loop lets each go
    once it is spent: at the peak, encode holds the five oversampled
    arrays of the ``LoopResult``, 5K floats per source sample.
    """
    base = np.asarray(x, dtype=np.float64)
    if not np.isfinite(base).all():
        raise ValueError("signal must be finite")
    k = cfg.oversampling
    loop = delta_sigma_loop(
        ideal_upsample(base, k), cfg.filter, _dither_block(cfg, base.shape[0]), cfg.quantizer.step
    )
    loop.indices.flags.writeable = False
    packets = [
        DescriptionPacket(indices=loop.indices[j::k], dither_seed=cfg.dither_seed, phase=j)
        for j in range(k)
    ]
    return packets, loop


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


def _reconstruction(packet: DescriptionPacket, cfg: CodecConfig):
    """One description's own reconstruction, step*index - dither delayed
    by its phase/K base samples, and the real part of its twiddled
    band-edge bin, D(n/2) cos(pi phase/K).

    Phase 0 has no delay: its reconstruction is the block itself and its
    edge bin the alternating sum of its samples, so it runs no FFT.
    """
    n = packet.indices.shape[0]
    z = DitherStream(packet.dither_seed, cfg.quantizer.step, packet.phase).draw(n)
    samples = packet.indices.astype(np.float64)
    samples *= cfg.quantizer.step
    samples -= z
    if packet.phase == 0:
        return samples, float(samples[0::2].sum() - samples[1::2].sum())
    spec = np.fft.rfft(samples)
    # sample t sits at base position t + phase/K; the edge bin of a real
    # block's spectrum is real
    delay = packet.phase / cfg.oversampling
    return ideal_fractional_delay(spec, n, delay), spec[-1].real * math.cos(math.pi * delay)


def _uniform_stride(phases: Sequence[int], k: int) -> int:
    """Stride s of phases {r, r+s, ...}, r < s, covering 0..k-1 uniformly."""
    ordered = sorted(phases)
    m = len(ordered)
    if m and k % m == 0:
        s = k // m
        r = ordered[0]
        if 0 <= r < s and ordered == list(range(r, k, s)):
            return s
    raise ValueError(f"phases {ordered} are not a uniform subset of 0..{k - 1}")


def _check_packets(chosen: Sequence[DescriptionPacket]) -> None:
    """Raise unless the packets of one subset share a dither seed and an
    even, nonzero index count."""
    if len({p.dither_seed for p in chosen}) != 1:
        raise ValueError("packets disagree on the dither seed")
    lengths = sorted({p.indices.shape[0] for p in chosen})
    if len(lengths) != 1:
        raise ValueError(f"packets disagree on the index count: {lengths}")
    n = lengths[0]
    if n == 0 or n % 2 != 0:
        raise ValueError(f"index count must be even and nonzero, got {n}")


def decode_subsets(
    packets: Sequence[DescriptionPacket],
    cfg: CodecConfig,
    subsets: Sequence[Sequence[int]],
) -> list:
    """Reconstruct the source block from each subset of the received
    descriptions: one read-only float64 array per subset, in order.

    Each subset names the phases of the packets it uses; they must form a
    uniform subset {r, r+s, ...} with stride s = K/m and offset r < s,
    with one dither seed and equal, even and nonzero index counts.  Every
    subset, and the received packets (no phase twice, every named phase
    received), is checked before any dither is drawn or any FFT runs.

    Each description that some subset names has its own reconstruction
    formed once, from its indices and the dither that its packet's
    (seed, phase) regenerates, and shared by every subset that names it;
    a subset's block is the mean of its reconstructions in its own order
    plus, for more than one, the folded band-edge term (the module
    docstring gives both), scaled by the Wiener gain of its stride at
    K=2 and left unscaled at K=4.  The blocks are fresh arrays, frozen in
    place.
    """
    strides = [_uniform_stride(subset, cfg.oversampling) for subset in subsets]
    by_phase = {}
    for pkt in packets:
        if pkt.phase in by_phase:
            raise ValueError(f"received packets repeat phase {pkt.phase}")
        # no sum decoding forms can overflow: QuantizerSpec holds step <= sqrt(DBL_MAX), so
        # |step*index - dither| <= step (2^63 + 1/2) < 1.3e173, and an unnormalised DFT of n
        # samples and its inverse stay below 1.3e173 n^2, finite for any n numpy can hold
        by_phase[pkt.phase] = pkt
    plan = []
    for subset, s in zip(subsets, strides):
        missing = sorted(set(subset) - by_phase.keys())
        if missing:
            raise ValueError(f"phases {missing} were not received")
        chosen = [by_phase[j] for j in subset]
        _check_packets(chosen)
        plan.append((chosen, s))

    own = {}
    blocks = []
    for chosen, s in plan:
        for pkt in chosen:
            if pkt.phase not in own:
                own[pkt.phase] = _reconstruction(pkt, cfg)
        parts = [own[pkt.phase] for pkt in chosen]
        m = len(parts)
        block = parts[0][0].copy()  # the reconstructions are shared
        for y, _ in parts[1:]:
            block += y
        if m > 1:
            block /= m
            # the mirror of the band-edge bin folds onto it
            fold = sum(edge for _, edge in parts) / m / block.shape[0]
            block[0::2] += fold
            block[1::2] -= fold
        mult = _multiplier(cfg, s)
        if mult != 1.0:
            block *= mult
        block.flags.writeable = False
        blocks.append(block)
    return blocks


def decode(packets: Sequence[DescriptionPacket], cfg: CodecConfig) -> np.ndarray:
    """Reconstruct the source block from one uniform subset of descriptions.

    This is :func:`decode_subsets` with the received packets as its only
    subset, under the same checks and messages; it returns the one
    read-only block.
    """
    (block,) = decode_subsets(packets, cfg, [[p.phase for p in packets]])
    return block


def reconstruction_mse(decoded, reference, margin: int) -> float:
    """Mean squared error between a decoded block and its reference over
    samples [margin, n - margin), which skips the loop's cold start at
    both ends; callers pass ``CodecConfig.guard``."""
    if isinstance(margin, bool) or not isinstance(margin, (int, np.integer)) or margin < 0:
        raise ValueError(f"margin must be a non-negative integer, got {margin!r}")
    y = np.asarray(decoded, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if y.ndim != 1 or y.shape != ref.shape:
        raise ValueError(f"shape mismatch: decoded {y.shape}, reference {ref.shape}")
    n = y.shape[0]
    if 2 * margin >= n:
        raise ValueError(f"no interior samples left: margin {margin} of {n} samples")
    err = y[margin : n - margin] - ref[margin : n - margin]
    err *= err
    return float(np.mean(err))
