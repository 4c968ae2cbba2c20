"""The multilinear extension of the expected utility, and the marginals it takes.

The extension is a seeded Monte Carlo estimate that reports a standard
error. It runs its trials in fixed-size seeded blocks, so estimates are
reproducible for a given (seed, trial count).
"""

from __future__ import annotations

import functools

import numpy as np

from .model import Instance, sample_realization_batch
from .parallel import combine_mean_se, map_blocks, split_blocks
from .seeds import derive_rng


def check_marginals(instance: Instance, marginals) -> np.ndarray:
    """The marginals, an (n,) vector or a (K, n) stack of them, clipped to [0, 1].

    Entries within 1e-12 of the box are float dust and are clipped. Raises
    ``ValueError`` for any other shape, an empty stack included, and for an
    entry further outside [0, 1] or NaN, naming its item and, in a stack,
    its row; every row of a stack is checked.
    """
    x = np.asarray(marginals, dtype=float)
    n = instance.n
    if not (x.shape == (n,) or (x.ndim == 2 and len(x) and x.shape[1] == n)):
        raise ValueError(f"expected {n} marginals or a stack of rows of {n}, got shape {x.shape}")
    low, high = x.min(), x.max()  # NaN if any entry is NaN, which fails both checks
    if not (low >= -1e-12 and high <= 1 + 1e-12):
        at = tuple(np.argwhere(~((x >= -1e-12) & (x <= 1 + 1e-12)))[0])
        where = f"row {at[0]}, item {at[1]}" if x.ndim == 2 else f"item {at[0]}"
        raise ValueError(f"marginals must lie in [0, 1], got {float(x[at])!r} at {where}")
    return np.clip(x, 0.0, 1.0) if low < 0 or high > 1 else x


def _multilinear_block(instance, f, x, seed, block):
    b, size = block
    rng = derive_rng(seed, "multilinear", b)
    coins = rng.random((size, instance.n)) < x
    states = sample_realization_batch(instance, rng, size)
    masked = np.where(coins, states, 0)
    vals = np.asarray(f.value_batch(masked), dtype=float)
    return size, float(vals.sum()), float((vals * vals).sum())


def multilinear_mc(
    instance: Instance, f, marginals, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the multilinear extension, with its standard error.

    The marginals must be one (n,) vector that passes :func:`check_marginals`.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    x = check_marginals(instance, marginals)
    if x.ndim != 1:
        raise ValueError(f"expected {instance.n} marginals, got shape {x.shape}")
    fn = functools.partial(_multilinear_block, instance, f, x, seed)
    return combine_mean_se(map_blocks(fn, split_blocks(samples)))
