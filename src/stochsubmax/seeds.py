"""Deterministic random-stream derivation.

Every stochastic routine in this package consumes randomness from a stream
derived from a single 64-bit root seed, a component label, and an integer
index. Derivation hashes (root, label, index) with BLAKE2b, so streams for
distinct labels or indices are independent and reproducible across runs and
platforms. :func:`derive_rng` seeds a ``SeedSequence`` with a 128-bit hash;
only the instance, realization and ``policy.execute`` streams use it. Every
Monte Carlo block draws from :func:`block_rng`, four times cheaper, which
hands a 256-bit hash of the same bytes to ``PCG64`` as its seed words.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _stream_hash(root: int, label: str, index: int, size: int) -> bytes:
    """BLAKE2b, ``size`` bytes long, of the root masked to 64 bits, the label, 0 and the index."""
    key = (root & _MASK64).to_bytes(8, "big") + label.encode("utf-8") + b"\x00"
    return hashlib.blake2b(key + int(index).to_bytes(8, "big"), digest_size=size).digest()


def stream_entropy(root: int, label: str, index: int = 0) -> int:
    """Hash (root, label, index) into a 128-bit entropy value."""
    return int.from_bytes(_stream_hash(root, label, index, 16), "big")


def derive_rng(root: int, label: str, index: int = 0) -> np.random.Generator:
    """Generator for the (label, index) stream of a root seed."""
    return np.random.default_rng(np.random.SeedSequence(stream_entropy(root, label, index)))


class _SeedWords(bytes, ISeedSequence):
    """A digest, read as a bit generator's seed words."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.frombuffer(self, dtype, count=n_words)


def block_rng(root: int, label: str, index: int) -> np.random.Generator:
    """A fresh ``PCG64`` generator seeded with the 256-bit hash of (root, label, index)."""
    return np.random.Generator(np.random.PCG64(_SeedWords(_stream_hash(root, label, index, 32))))
