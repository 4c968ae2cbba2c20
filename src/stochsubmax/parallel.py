"""Fixed-size blocks for Monte Carlo estimators.

Work is split into fixed-size blocks; block b always consumes the random
stream (seed, label, b). Blocks run in order in the calling process and their
partials are reduced in block-index order, which makes every estimate a
deterministic function of (inputs, seed).
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 4096


def split_blocks(total: int, block_size: int = BLOCK_SIZE) -> list[tuple[int, int]]:
    """(block index, block length) pairs covering ``total`` trials.

    Raises ``ValueError`` for ``total < 1``: an estimate over no trials would
    read as one with no failures.
    """
    if total < 1:
        raise ValueError(f"need at least one trial, got {total}")
    blocks = []
    start = 0
    b = 0
    while start < total:
        size = min(block_size, total - start)
        blocks.append((b, size))
        start += size
        b += 1
    return blocks


def map_blocks(fn, blocks, workers: int = 1) -> list:
    """Apply ``fn`` to every block in order, preserving block order in the result list."""
    # the third argument exists only because bench/tracing.py's block counter
    # forwards one; it goes with the tracer rewrite
    if workers != 1:
        raise ValueError(f"blocks run in one process; got workers={workers!r}")
    return [fn(b) for b in blocks]


def combine_mean_se(partials):
    """Combine (count, sum, sum-of-squares, ...) partials into (mean, standard error).

    The sums are floats or equal-shape arrays; arrays give one mean and one
    standard error per entry. Entries past the third are ignored.
    """
    count = sum(p[0] for p in partials)
    total = sum(p[1] for p in partials)
    sumsq = sum(p[2] for p in partials)
    if count == 0:
        raise ValueError("no samples")
    mean = total / count
    if count == 1:
        se = np.zeros_like(mean)
    else:
        var = np.maximum(0.0, (sumsq - count * mean * mean) / (count - 1))
        se = np.sqrt(var / count)
    if np.ndim(mean) == 0:
        return float(mean), float(se)
    return mean, se
