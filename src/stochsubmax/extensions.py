"""Expected set utilities and their multilinear extension.

Every quantity comes in two flavors: an exact enumerator (the trusted oracle,
guarded by an enumeration size limit) and a seeded Monte Carlo estimator that
reports a standard error. Estimators run their trials in fixed-size seeded
blocks, so estimates are reproducible for a given (seed, trial count).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import EnumerationLimitError
from .model import Instance, sample_realization_batch
from .parallel import combine_mean_se, map_blocks, split_blocks
from .seeds import derive_rng

SET_ENUM_GUARD = 10**6
MULTILINEAR_GUARD_N = 10
MULTILINEAR_GUARD_STATES = 10**4


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


def _marginal_vector(instance: Instance, marginals) -> np.ndarray:
    """:func:`check_marginals` for one (n,) vector; a stack raises ``ValueError``."""
    x = check_marginals(instance, marginals)
    if x.ndim != 1:
        raise ValueError(f"expected {instance.n} marginals, got shape {x.shape}")
    return x


def expected_set_value_exact(instance: Instance, f, items) -> float:
    """E[f(states on ``items``, zero elsewhere)] by full enumeration of joint states."""
    idx = sorted(set(items))
    if instance.B ** len(idx) > SET_ENUM_GUARD:
        raise EnumerationLimitError(
            f"B^|S| = {instance.B ** len(idx)} exceeds the guard {SET_ENUM_GUARD}"
        )
    if not idx:
        return float(f.value(np.zeros(instance.n, dtype=np.int64)))
    probs = instance.prob_matrix
    total = 0.0
    for combo in itertools.product(range(1, instance.B + 1), repeat=len(idx)):
        weight = 1.0
        for pos, i in enumerate(idx):
            weight *= probs[i, combo[pos] - 1]
        if weight == 0.0:
            continue
        u = np.zeros(instance.n, dtype=np.int64)
        u[idx] = combo
        total += weight * float(f.value(u))
    return total


def _set_value_block(instance, f, idx, seed, block):
    b, size = block
    rng = derive_rng(seed, "set-value", b)
    states = sample_realization_batch(instance, rng, size)
    masked = np.zeros_like(states)
    if idx:
        masked[:, idx] = states[:, idx]
    vals = np.asarray(f.value_batch(masked), dtype=float)
    return size, float(vals.sum()), float((vals * vals).sum())


def expected_set_value_mc(
    instance: Instance, f, items, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the expected set value, with its standard error."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    idx = sorted(set(items))
    fn = functools.partial(_set_value_block, instance, f, idx, seed)
    return combine_mean_se(map_blocks(fn, split_blocks(samples)))


def multilinear_exact(instance: Instance, f, marginals) -> float:
    """Exact extension value: expectation over the random set drawn from the marginals.

    Enumerates all 2^n item sets and, inside each, all joint states; guarded to
    small n and B^n.
    """
    x = _marginal_vector(instance, marginals)
    if instance.n > MULTILINEAR_GUARD_N or instance.B**instance.n > MULTILINEAR_GUARD_STATES:
        raise EnumerationLimitError(
            f"multilinear enumeration guard: n <= {MULTILINEAR_GUARD_N} "
            f"and B^n <= {MULTILINEAR_GUARD_STATES}"
        )
    total = 0.0
    for subset in itertools.product((0, 1), repeat=instance.n):
        weight = 1.0
        for i, inc in enumerate(subset):
            weight *= x[i] if inc else 1.0 - x[i]
        if weight == 0.0:
            continue
        members = [i for i, inc in enumerate(subset) if inc]
        total += weight * expected_set_value_exact(instance, f, members)
    return total


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
    """Monte Carlo estimate of the multilinear extension, with its standard error."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    x = _marginal_vector(instance, marginals)
    fn = functools.partial(_multilinear_block, instance, f, x, seed)
    return combine_mean_se(map_blocks(fn, split_blocks(samples)))
