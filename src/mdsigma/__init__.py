"""Multiple-description coding by dithered noise-shaped oversampled quantization.

A source block is oversampled, quantized with subtractive dither inside a
noise-feedback loop, and the quantizer outputs are split by time phase
into K descriptions.  The library provides the codec, the closed-form
rate/distortion accounting it must match, noise-shaping filter design,
and a seeded Monte-Carlo harness that checks one against the other.
"""

from .dsp import (
    ideal_fractional_delay,
    ideal_upsample,
)
from .ecdq import (
    DitherStream,
    QuantizerSpec,
)
from .shaping import (
    ShapingFilter,
    band_power,
    design_multiband,
    design_yule_walker,
    filter_powers,
    find_lambda_for_ratio,
    min_phase_check,
)
from .theory import (
    K4Spec,
    OzarowEvaluation,
    TheoryPoint,
    brickwall_point,
    gaussian_rate_bits,
    k4_point,
    ozarow_bounds,
    wiener_gain,
)
from .codec import (
    CodecConfig,
    DescriptionPacket,
    decode,
    decode_subsets,
    delta_sigma_loop,
    encode,
    reconstruction_mse,
)
from .harness import (
    ExperimentConfig,
    SimResult,
    estimate_index_entropy,
    run,
    sweep,
    sweep_rates,
    universality_check,
)

__version__ = "0.1.0"
