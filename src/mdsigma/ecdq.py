"""Subtractive-dither lattice quantization: the cell and its dither streams.

The quantizer itself is the codec's feedback-loop kernel
(``codec.delta_sigma_loop``; an order-0 filter gives plain dithered
quantization).  It rounds (s + z)/step to the nearest integer with
half-ties rounded toward +inf by an exact rule, so the error
e = step*index - z - s lies in (-step/2, step/2] for every input.  Under
dither uniform on the cell the error is uniform, white, and independent of
the input, which is what makes the feedback loop of the codec exactly
linear.  This module holds the cell, ``QuantizerSpec``, the one rule that
every step passes, and the dither streams; the tests judge the loop's
errors against that law.  The Gaussian rate of an output variance over
the cell noise step^2/12 is ``theory.gaussian_rate_bits``.

The lattice is scalar (a product lattice behaves identically per
dimension); shaped lattices are not constructed.

Randomness is counter-based (Philox) with documented stream splitting:
a master seed spawns per-trial and per-role substreams, and dither
substreams are keyed by (seed, phase) so a decoder can regenerate any
description's dither from the packet header alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizerSpec",
    "DitherStream",
    "substream",
    "derive_seed",
]

# role tags for stream splitting
ROLE_SOURCE = 0
ROLE_DITHER = 1


@dataclass(frozen=True)
class QuantizerSpec:
    """Scalar lattice with cell width ``step``, kept as a Python float."""

    step: float

    def __post_init__(self):
        step = float(self.step)  # a numpy step would square as numpy does
        if not (step > 0 and math.isfinite(step)):
            raise ValueError("step must be positive and finite")
        if not math.isfinite(step * step / 12.0):
            raise ValueError(f"step {step!r} is past sqrt(DBL_MAX) ~ 1.34e154: its cell variance step^2/12 overflows")
        object.__setattr__(self, "step", step)

    @property
    def noise_variance(self) -> float:
        return self.step * self.step / 12.0


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the substream identified by ``key`` under the master seed."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 64-bit sub-seed for the given key path (e.g. per-trial dither seed)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class DitherStream:
    """Reproducible per-description dither: uniform on [-step/2, step/2).

    The same (seed, phase) pair always yields the same sequence, and
    distinct phases are independent substreams, so the encoder can
    interleave K phase streams while each decoder regenerates only its own.
    """

    def __init__(self, seed: int, step: float, phase: int = 0):
        self.step = QuantizerSpec(step).step
        self.seed = int(seed)
        self.phase = int(phase)
        self._rng = substream(self.seed, ROLE_DITHER, self.phase)

    def draw(self, n: int) -> np.ndarray:
        return self._rng.uniform(-self.step / 2.0, self.step / 2.0, int(n))
