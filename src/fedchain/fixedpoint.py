"""Fixed-point encoding for the masked aggregation path.

Weights are scaled to 64-bit integers so that additive noise cancels
bit-exactly; int64 arithmetic wraps modulo 2**64, which preserves exact
cancellation even on overflow. Values return to floats only after unmasking.

A mask is a PRG expansion of its owner's seed, as in secure aggregation
(Bonawitz et al., CCS 2017): SHAKE-128 of the seed's 8 little-endian bytes
gives one 64-bit word per element, and the top `width_bits + 1` bits of each
word, less 2^width_bits, are exactly uniform on [-2^width_bits, 2^width_bits).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import NoiseWidthError

SCALE_BITS = 24
SCALE = 1 << SCALE_BITS
DEFAULT_NOISE_BITS = 40
MAX_NOISE_BITS = 63


def encode(values: np.ndarray) -> np.ndarray:
    """Scale real-valued weights to int64 fixed point, elementwise, for an
    array of any shape."""
    return np.round(np.asarray(values, dtype=np.float64) * SCALE).astype(np.int64)


def decode(words: np.ndarray) -> np.ndarray:
    """Return fixed-point words to float64 weights."""
    return np.asarray(words, dtype=np.float64) / SCALE


def check_noise_bits(width_bits: int) -> None:
    """Raise NoiseWidthError unless 0 <= width_bits <= MAX_NOISE_BITS, the
    widths whose masks fit an int64 word."""
    if not 0 <= width_bits <= MAX_NOISE_BITS:
        raise NoiseWidthError(
            f"noise width must be in [0, {MAX_NOISE_BITS}] bits, got {width_bits}"
        )


def generate_noise(length: int, seed: int, width_bits: int = DEFAULT_NOISE_BITS) -> np.ndarray:
    """Seeded uniform noise over [-2^width_bits, 2^width_bits) fixed-point
    units: `length` int64 words expanded from `seed` (0 <= seed < 2^64) by
    SHAKE-128.

    The width is configurable so the noise magnitude can be matched to the
    expected magnitude of the masked sums. Raises NoiseWidthError for a width
    outside [0, 63].
    """
    check_noise_bits(width_bits)
    stream = hashlib.shake_128(int(seed).to_bytes(8, "little")).digest(8 * length)
    words = np.frombuffer(stream, dtype="<u8") >> np.uint64(MAX_NOISE_BITS - width_bits)
    return (words - np.uint64(1 << width_bits)).view(np.int64)
