"""Deterministic random-stream derivation.

Every stochastic routine in this package consumes randomness from a stream
derived from a single 64-bit root seed, a component label, and an integer
index. Derivation hashes (root, label, index) with BLAKE2b, so streams for
distinct labels or indices are independent and reproducible across runs and
platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def stream_entropy(root: int, label: str, index: int = 0) -> int:
    """Hash (root, label, index) into a 128-bit entropy value."""
    h = hashlib.blake2b(digest_size=16)
    h.update((root & _MASK64).to_bytes(8, "big"))
    h.update(label.encode("utf-8"))
    h.update(b"\x00")
    h.update(int(index).to_bytes(8, "big", signed=False))
    return int.from_bytes(h.digest(), "big")


def derive_rng(root: int, label: str, index: int = 0) -> np.random.Generator:
    """Generator for the (label, index) stream of a root seed."""
    return np.random.default_rng(np.random.SeedSequence(stream_entropy(root, label, index)))
