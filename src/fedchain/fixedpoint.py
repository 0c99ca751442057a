"""Fixed-point encoding for the masked aggregation path.

Weights are scaled to 64-bit integers so that additive noise cancels
bit-exactly; int64 arithmetic wraps modulo 2**64, which preserves exact
cancellation even on overflow. Values return to floats only after unmasking.

A mask is a PRG expansion of its owner's seed, as in secure aggregation
(Bonawitz et al., CCS 2017): SHAKE-128 of the seed's 8 little-endian bytes
gives one 64-bit word per element, and the top `NOISE_BITS + 1` bits of each
word, less 2^NOISE_BITS, are exactly uniform on [-2^NOISE_BITS, 2^NOISE_BITS).
The width is fixed: masks cancel exactly at any width, so it changes no sum.
"""

from __future__ import annotations

import hashlib

import numpy as np

SCALE_BITS = 24
SCALE = 1 << SCALE_BITS
NOISE_BITS = 40


def encode(values: np.ndarray) -> np.ndarray:
    """Scale real-valued weights to int64 fixed point, elementwise, for an
    array of any shape."""
    return np.round(np.asarray(values, dtype=np.float64) * SCALE).astype(np.int64)


def decode(words: np.ndarray) -> np.ndarray:
    """Return fixed-point words to float64 weights."""
    return np.asarray(words, dtype=np.float64) / SCALE


def generate_noise(length: int, seed: int) -> np.ndarray:
    """Seeded uniform noise over [-2^NOISE_BITS, 2^NOISE_BITS) fixed-point
    units: `length` int64 words expanded from `seed` (0 <= seed < 2^64) by
    SHAKE-128."""
    stream = hashlib.shake_128(int(seed).to_bytes(8, "little")).digest(8 * length)
    words = np.frombuffer(stream, dtype="<u8") >> np.uint64(63 - NOISE_BITS)
    return (words - np.uint64(1 << NOISE_BITS)).view(np.int64)
