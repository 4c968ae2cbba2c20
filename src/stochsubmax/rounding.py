"""Contention resolution: set-level pruning schemes and state-level pruning maps.

The set-level scheme trims a random item set down to a member of the outer
family while keeping each sampled item with high conditional probability. Two
schemes ship: ``identity`` (for constraints the sampled set can never violate)
and ``priority`` (greedy by independent uniform priorities against the
independence oracle; keeping an item can only get harder as the sampled set
grows, so the scheme is monotone).

On top of it sit three state-vector pruning maps, each of which only ever
zeroes coordinates (output(i) is v(i) or 0):

  * ``outer``: zero every item the set-level scheme drops from the support.
  * ``schedule``: give each support item its one start slot in the
    fractional solution and keep an item only if the realized costs of all
    support items starting no later would fit within its slot. It draws
    nothing: it is a function of the state vector.
  * ``combined``: keep exactly the coordinates both maps keep.

Empirical keep rates of all of the above are estimated per item (set level)
or per (item, state) pair (state level) with binomial standard errors.

Each map exists once, in batched form: :func:`crs_keep_batch` and
:func:`schedule_keep_batch` resolve a block of R trials at a time on the
(R, n_s) arrays drawn by :func:`draw_block`. Their columns are the solution's
support, the n_s items of positive marginal in increasing id order: an item
of marginal 0 is never sampled, so it is never drawn for. The estimators
here and the policy in :mod:`policy` both run them. The keep-rate count
tables and rows are built for the support items only; every other item's
rows read "insufficient", and they come from one cached tuple of blank rows
per (mapping, n, width). Only explicit families go back to width n here
(:func:`greedy_keep` resolves their rows one set at a time on the item ids);
:func:`scatter_columns` puts a block at width n where :mod:`policy` needs it.
The constants of the maps are cached where they belong: the precedence
matrix on the solution (:attr:`~greedy.SlotSolution.precedence`), the
zero-padded cost table on the instance (:attr:`~model.Instance.padded_costs`)
and the hull on the constraint (:attr:`~constraints.OuterConstraint.hull`).

When every item carries mass the draws keep their width-n shapes, so the
``keep-rate`` and ``keep-<mapping>`` streams are those of a width-n kernel;
for a solution with items of marginal 0 they moved when the kernel went to
the support width.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constraints import OuterConstraint, in_scaled_polytope, independent_rows, is_independent
from .greedy import SlotSolution, check_solution_shape
from .model import Instance, sample_states
from .parallel import map_blocks, split_blocks
from .seeds import derive_rng, stream_entropy

MAPPINGS = ("outer", "schedule", "combined")


def closed_form_keep_rate(scale: float) -> float:
    """(1 - exp(-b)) / b, a fair scheme's set-level keep rate at scale b.

    The priority scheme does not guarantee it, so all accounting uses
    measured keep rates.
    """
    if scale <= 0:
        return 1.0
    return (1.0 - math.exp(-scale)) / scale


@dataclass(frozen=True)
class BalancedCrs:
    """Set-level scheme descriptor: kind and the scale its keep rate is quoted at."""

    kind: str
    scale: float = 0.25

    def __post_init__(self):
        if self.kind not in ("identity", "priority"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not 0 < self.scale <= 1:
            raise ValueError("scale must lie in (0, 1]")


def greedy_keep(outer: OuterConstraint, members, priorities) -> set:
    """Scan members by increasing priority, keeping an item iff it stays independent."""
    kept: set = set()
    for i in sorted(members, key=lambda i: (priorities[i], i)):
        if is_independent(outer, kept | {i}):
            kept.add(i)
    return kept


def _least_priority(sampled: np.ndarray, priorities: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's (at most) k sampled items of least (priority, index).

    Only the rows with more than k sampled items are sorted.
    """
    least = sampled.copy()
    over = np.flatnonzero(sampled.sum(axis=1) > k)
    if over.size:
        on = sampled[over]
        order = np.argsort(np.where(on, priorities[over], np.inf), axis=1, kind="stable")
        trimmed = np.zeros_like(on)
        np.put_along_axis(trimmed, order[:, :k], True, axis=1)
        least[over] = trimmed & on
    return least


def scatter_columns(block, support, n: int) -> np.ndarray:
    """The (R, n) array holding the (R, n_s) ``block`` in the ``support`` columns, 0 elsewhere."""
    block = np.asarray(block)
    out = np.zeros((len(block), n), dtype=block.dtype)
    out[:, support] = block
    return out


def crs_keep_batch(
    crs: BalancedCrs, outer: OuterConstraint, sampled, priorities, support
) -> np.ndarray:
    """The set-level scheme on every row of a block: the (R, n_s) mask of kept items.

    Column c of the (R, n_s) arrays is item ``support[c]`` (increasing ids).
    Row r resolves the item set ``support[sampled[r]]`` with ``priorities[r]``.
    The priority scheme keeps, under cardinality, the k sampled items of least
    (priority, index), and under a partition the same within each block's
    support columns, which is what :func:`greedy_keep` keeps; explicit
    families run :func:`greedy_keep` row by row on the item ids.
    """
    sampled = np.asarray(sampled, dtype=bool)
    support = np.asarray(support)
    if crs.kind == "identity":
        if not np.all(independent_rows(outer, sampled, support)):
            raise ValueError("identity scheme got a set outside the outer family")
        return sampled.copy()
    if outer.kind == "cardinality":
        return _least_priority(sampled, priorities, outer.k)
    if outer.kind == "partition":
        kept = sampled.copy()
        col_of = np.full(outer.n, -1)
        col_of[support] = np.arange(len(support))
        for block, cap in zip(outer.blocks, outer.caps):
            cols = col_of[list(block)]
            cols = cols[cols >= 0]
            if cols.size:
                kept[:, cols] = _least_priority(sampled[:, cols], priorities[:, cols], cap)
        return kept
    kept = np.zeros_like(sampled)
    by_item = np.zeros(outer.n)
    for r, row in enumerate(sampled):
        by_item[support] = priorities[r]
        kept[r] = np.isin(support, list(greedy_keep(outer, support[row], by_item)))
    return kept


def schedule_keep_batch(instance: Instance, v, sol: SlotSolution) -> np.ndarray:
    """The schedule map on every row of a block: the (R, n_s) mask of kept items.

    Column c is item ``sol.support[c]``, which starts at ``sol.slots[c]``.
    ``v`` is an (R, n_s) state matrix, 0 off the row's sampled items. Row r
    keeps such an item i iff the realized costs of all its other such items
    starting no later than i fit within i's slot: with c the realized costs
    (``instance.padded_costs``, 0 at state 0), iff
    (c @ M)[r, i] - c[r, i] <= slots[i], where M is ``sol.precedence``,
    M[j, i] = [slots[j] <= slots[i]]. The costs are integers, so the float
    product is exact.
    """
    v = np.asarray(v)
    cost = instance.padded_costs[sol.support, v]
    return (v > 0) & (cost @ sol.precedence - cost <= sol.slots)


@dataclass(frozen=True)
class BlockDraws:
    """The random arrays of one block of R trials, each (R, n_s), drawn in field order.

    Column c belongs to item ``support[c]`` of the support the block was drawn for.
    """

    states: np.ndarray  # realized states 1..B
    u_sample: np.ndarray  # item i is sampled iff u_sample[:, i] < its marginal
    priorities: np.ndarray  # priority-scheme priorities


def draw_block(
    instance: Instance, rng: np.random.Generator, size: int, support=slice(None)
) -> BlockDraws:
    """States, sample uniforms and priorities of ``size`` trials, in that order.

    Only the ``support`` items (every item by default) are drawn for, so the
    draws for a support of all n items are the same whatever its form.
    """
    states = sample_states(instance.state_cum_probs[support], rng, size)
    return BlockDraws(states, *rng.random((2, size, states.shape[1])))


class CrsEstimate(NamedTuple):
    """One empirical conditional keep probability with its binomial standard error.

    A named tuple: a keep op builds hundreds of rows, and a tuple is about
    three times cheaper to construct than a frozen dataclass.
    """

    item: int
    state: int | None
    mapping: str
    value: float
    se: float
    events: int
    status: str  # "ok" | "insufficient"


# a CrsEstimate from a tuple of its fields, as CrsEstimate._make but without its checks
_as_estimate = functools.partial(tuple.__new__, CrsEstimate)


def _support_rows(mapping, items, cond, kept, states: bool) -> list[CrsEstimate]:
    """Rows of the (m, width) kept / sampled count tables of the m ``items``, in item order.

    A cell with no sampled event reads NaN with status "insufficient".
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        value = kept / cond
        se = np.sqrt(np.maximum(value * (1 - value), 0.0) / cond)
    width = cond.shape[1]
    events = cond.ravel().tolist()
    # rows are zipped from whole columns of Python values
    columns = (
        np.repeat(items, width).tolist(),  # each item once per column
        list(range(1, width + 1)) * len(items) if states else [None] * len(items),
        itertools.repeat(mapping),
        value.ravel().tolist(),
        se.ravel().tolist(),
        events,
        ["ok" if c else "insufficient" for c in events],
    )
    return list(map(_as_estimate, zip(*columns)))


@functools.lru_cache(maxsize=64)
def _blank_rows(mapping, n: int, width: int, states: bool) -> tuple[CrsEstimate, ...]:
    """The rows of n items none of which was ever sampled, all "insufficient"."""
    zeros = np.zeros((n, width), dtype=np.int64)
    return tuple(_support_rows(mapping, np.arange(n), zeros, zeros, states))


def _binomial_rows(mapping, cond, kept, support, n: int, states: bool) -> list[CrsEstimate]:
    """Rows of all n items: per item, or per (item, state 1..B).

    ``cond`` and ``kept`` are the kept / sampled count tables of the n_s
    ``support`` items (increasing ids): (n_s, 1) tables, or (n_s, B + 1)
    ones indexed by state whose column 0 is unused. The rows of the support
    items are built from them; every other item was never sampled, and its
    rows come from the cached blank rows (:func:`_blank_rows`).
    """
    if states:
        cond, kept = cond[:, 1:], kept[:, 1:]
    width = cond.shape[1]
    rows = _support_rows(mapping, support, cond, kept, states)
    out = list(_blank_rows(mapping, n, width, states))
    for c, i in enumerate(np.asarray(support).tolist()):
        out[i * width:(i + 1) * width] = rows[c * width:(c + 1) * width]
    return out


def _summed_counts(partials):
    """Sampled and kept count tables of the block partials, summed over the blocks."""
    return sum(p[0] for p in partials), sum(p[1] for p in partials)


def _gamma_block(crs, outer, y, support, seed, block):
    """Kept and sampled counts of one block per support item; draws the sample
    uniforms, then the priorities."""
    b, size = block
    rng = derive_rng(seed, "keep-rate", b)
    u_sample, priorities = rng.random((2, size, len(support)))
    sampled = u_sample < y[support]
    kept = crs_keep_batch(crs, outer, sampled, priorities, support)
    return sampled.sum(axis=0)[:, None], kept.sum(axis=0)[:, None]


def estimate_set_keep_rate(
    crs: BalancedCrs,
    outer: OuterConstraint,
    marginals,
    trials: int,
    seed: int,
) -> list[CrsEstimate]:
    """Per-item empirical Pr[item kept | item sampled] for the set-level scheme.

    The marginals must lie inside scale * hull for the scheme's quoted scale.
    Raises ``ValueError`` for ``trials < 1`` (:func:`parallel.split_blocks`).
    """
    y = np.asarray(marginals, dtype=float)
    if not in_scaled_polytope(outer, y, crs.scale):
        raise ValueError(
            f"marginals are not inside {crs.scale} * the outer hull; "
            "the scheme's quoted keep rate does not apply"
        )
    support = np.flatnonzero(y > 0)
    fn = functools.partial(_gamma_block, crs, outer, y, support, seed)
    partials = map_blocks(fn, split_blocks(trials))
    return _binomial_rows("set", *_summed_counts(partials), support, outer.n, states=False)


def _alpha_block(mapping, instance, outer, crs, sol, seed, block):
    """Per (support item, state) sampled and kept counts of one block (layout of
    :func:`draw_block`).

    The thinned vector is the realized state where the item is sampled, else 0.
    """
    b, size = block
    support = sol.support
    d = draw_block(instance, derive_rng(seed, f"keep-{mapping}", b), size, support)
    sampled = d.u_sample < sol.marginals[support]
    v = np.where(sampled, d.states, 0)
    if mapping == "outer":
        keep = crs_keep_batch(crs, outer, sampled, d.priorities, support)
    elif mapping == "schedule":
        keep = schedule_keep_batch(instance, v, sol)
    elif mapping == "combined":
        keep = crs_keep_batch(crs, outer, sampled, d.priorities, support) & schedule_keep_batch(
            instance, v, sol
        )
    else:
        raise ValueError(f"unknown mapping {mapping!r}")
    n, width = len(support), instance.B + 1
    cells = np.arange(n) * width + v
    cond = np.bincount(cells[sampled], minlength=n * width).reshape(n, width)
    kept = np.bincount(cells[sampled & keep], minlength=n * width).reshape(n, width)
    return cond, kept


def estimate_state_keep_rates(
    mapping: str,
    instance: Instance,
    outer: OuterConstraint,
    crs: BalancedCrs,
    sol: SlotSolution,
    trials: int,
    seed: int,
) -> list[CrsEstimate]:
    """Per (item, state) empirical Pr[coordinate survives | coordinate sampled].

    The solution must fit the instance (:func:`greedy.check_solution_shape`).
    Raises ``ValueError`` for ``trials < 1`` (:func:`parallel.split_blocks`).
    """
    if mapping not in MAPPINGS:
        raise ValueError(f"mapping must be one of {MAPPINGS}")
    check_solution_shape(instance, sol)
    fn = functools.partial(
        _alpha_block, mapping, instance, outer, crs, sol, stream_entropy(seed, mapping)
    )
    partials = map_blocks(fn, split_blocks(trials))
    return _binomial_rows(mapping, *_summed_counts(partials), sol.support, instance.n, states=True)


def alpha_table_csv(rows: list[CrsEstimate]) -> str:
    lines = ["item,state,mapping,alpha,se,trials,status"]
    for r in rows:
        val = "" if math.isnan(r.value) else f"{r.value:.6f}"
        se = "" if math.isnan(r.se) else f"{r.se:.6f}"
        lines.append(f"{r.item + 1},{r.state},{r.mapping},{val},{se},{r.events},{r.status}")
    return "\n".join(lines) + "\n"


def gamma_table_csv(rows: list[CrsEstimate]) -> str:
    lines = ["item,gamma,se,trials,status"]
    for r in rows:
        val = "" if math.isnan(r.value) else f"{r.value:.6f}"
        se = "" if math.isnan(r.se) else f"{r.se:.6f}"
        lines.append(f"{r.item + 1},{val},{se},{r.events},{r.status}")
    return "\n".join(lines) + "\n"


def min_rate(rows: list[CrsEstimate]) -> tuple[float, float]:
    """Smallest estimate with data, with its standard error; (1, 0) if no row has data."""
    with_data = [r for r in rows if r.status == "ok"]
    if not with_data:
        return 1.0, 0.0
    worst = min(with_data, key=lambda r: r.value)
    return worst.value, worst.se
