"""The seeded-block runner of every Monte Carlo estimator.

:func:`run_blocks` splits the trials into fixed-size blocks; block b always
draws from the stream ``seeds.block_rng(seed, label, b)``. Blocks run in order
in the calling process and their partials are summed in block-index order,
which makes every estimate a deterministic function of (inputs, seed). The
``gain``, ``multilinear``, ``simulate``, ``dominance``, ``keep-rate`` and
``keep-<mapping>`` streams moved when the blocks left ``seeds.derive_rng``;
that derivation's three streams (instances, realizations and
``policy.execute``'s run) did not.
"""

from __future__ import annotations

import numpy as np

from .seeds import block_rng

BLOCK_SIZE = 4096


def run_blocks(label: str, seed: int, total: int, block_fn) -> tuple:
    """Entrywise sums over the blocks of ``block_fn(rng, start, size)``'s partial tuples.

    Block b covers trials ``start = b * BLOCK_SIZE`` to ``start + size`` of
    ``total`` and gets ``rng = seeds.block_rng(seed, label, b)``. Partial
    entries are numbers, equal-shape arrays or lists, which concatenate.
    Raises ``ValueError`` for ``total < 1``: an estimate over no trials would
    read as one with no failures.
    """
    if total < 1:
        raise ValueError(f"need at least one trial, got {total}")
    summed = None
    for b, start in enumerate(range(0, total, BLOCK_SIZE)):
        part = block_fn(block_rng(seed, label, b), start, min(BLOCK_SIZE, total - start))
        summed = part if summed is None else tuple(s + p for s, p in zip(summed, part))
    return summed


def map_blocks(fn, blocks, workers: int = 1) -> list:
    """Apply ``fn`` to every block in order, preserving block order in the result list."""
    # no estimator calls it; bench/tracing.py rebinds it to count blocks
    if workers != 1:
        raise ValueError(f"blocks run in one process; got workers={workers!r}")
    return [fn(b) for b in blocks]


def mean_se(count: int, total, sumsq):
    """Mean and standard error of ``count`` samples of sum ``total`` and sum of squares ``sumsq``.

    The sums are floats or equal-shape arrays; arrays give one mean and one
    standard error per entry.
    """
    mean = total / count
    if count == 1:
        se = np.zeros_like(mean)
    else:
        var = np.maximum(0.0, (sumsq - count * mean * mean) / (count - 1))
        se = np.sqrt(var / count)
    if np.ndim(mean) == 0:
        return float(mean), float(se)
    return mean, se
