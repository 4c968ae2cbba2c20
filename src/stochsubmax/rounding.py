"""Contention resolution: set-level pruning schemes and state-level pruning maps.

The set-level scheme trims a random item set down to a member of the outer
family while keeping each sampled item with high conditional probability. Two
schemes ship: ``identity`` (for constraints the sampled set can never violate)
and ``priority`` (greedy by independent uniform priorities against the
independence oracle; monotone, as keeping an item only gets harder as the
sampled set grows). Under cardinality (one block of cap k) and partitions it
is one rule: keep a sampled item iff fewer than its block's cap of sampled
rivals have a smaller (priority, index), read only for rows over a cap.

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
(:func:`lattice.scatter_columns`; :func:`greedy_keep` resolves their rows one
set at a time on the item ids), and the utility of a block is read at the
support width too (:meth:`lattice.UtilityOracle.value_batch_at`).
The constants of the maps are cached where they belong: the precedence
matrix on the solution (:attr:`~greedy.SlotSolution.precedence`), the
zero-padded cost table on the instance (:attr:`~model.Instance.padded_costs`)
and the hull on the constraint (:attr:`~constraints.OuterConstraint.hull`).

Block b of an estimator draws from ``seeds.block_rng(seed, label, b)``
(:func:`parallel.run_blocks`), labelled ``keep-rate`` or ``keep-<mapping>``;
these streams moved when the blocks left ``seeds.derive_rng``. A block draws
the states, the sample uniforms and the priorities in that order, the last
only if the scheme reads them (:func:`crs_keep_batch`), which the identity
scheme and the ``schedule`` mapping never do; drawn, they are the bits of
one ``random((2, R, n_s))`` draw after the states.
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
from .lattice import scatter_columns
from .model import Instance, sample_states
# map_blocks stays a module name: bench/tracing.py counts calls through it
from .parallel import map_blocks, run_blocks  # noqa: F401

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


def crs_keep_batch(
    crs: BalancedCrs, outer: OuterConstraint, sampled, priorities, support
) -> np.ndarray:
    """The set-level scheme on every row of a block: the (R, n_s) mask of kept items.

    Column c of the (R, n_s) arrays is item ``support[c]`` (increasing ids).
    Row r resolves the item set ``support[sampled[r]]`` with ``priorities[r]``,
    the (R, n_s) array or a callable that returns it, the same at every call.
    Explicit families run :func:`greedy_keep` row by row on the item ids.
    Cardinality (one block of cap k) and partitions keep the same by one rule
    over the blocks and caps of :attr:`OuterConstraint.hull`: a sampled item
    iff fewer than its block's cap of sampled rivals have a smaller
    (priority, index). If the support fits every cap, so does every row, and
    ``sampled`` itself is returned with no priority read; else only the rows
    over some cap read them, sorted by (block, priority, index).
    """
    sampled = np.asarray(sampled, dtype=bool)
    support = np.asarray(support)
    if crs.kind == "identity":
        if not np.all(independent_rows(outer, sampled, support)):
            raise ValueError("identity scheme got a set outside the outer family")
        return sampled.copy()
    read = priorities if callable(priorities) else (lambda: priorities)
    if outer.kind == "explicit":
        by_item = scatter_columns(read(), support, outer.n)
        return np.array([np.isin(support, list(greedy_keep(outer, support[row], p)))
                         for row, p in zip(sampled, by_item)], dtype=bool).reshape(sampled.shape)
    a, caps = outer.hull
    if outer.kind == "cardinality":
        if len(support) <= outer.k:
            return sampled
        over = np.flatnonzero(sampled.sum(axis=1) > outer.k)
    elif (a.take(support, axis=1).sum(axis=1) <= caps).all():
        return sampled
    else:
        over = np.flatnonzero(~independent_rows(outer, sampled, support))
    if not over.size:
        return sampled
    block = a[:, support].argmax(axis=0)  # each column's row of the hull
    on = sampled[over]
    order = np.lexsort((np.where(on, read()[over], np.inf), np.broadcast_to(block, on.shape)))
    # a sorted row holds each block's columns in one run, the same in every row: keep its first cap
    runs = np.sort(block)
    first = np.arange(len(runs)) - np.searchsorted(runs, runs) < caps[runs]
    kept = sampled.copy()
    kept[over] = on & first[np.argsort(order, axis=1)]  # first at each column's sorted place
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


class BlockDraws:
    """The random (R, n_s) arrays of one block of R trials, drawn in field order.

    Column c belongs to item ``support[c]`` of the support the block was drawn
    for. The priorities are an array, or the generator that drew the other two
    arrays, which draws them on first read.
    """

    def __init__(self, states, u_sample, priorities):
        self.states = states  # realized states 1..B
        self.u_sample = u_sample  # item i is sampled iff u_sample[:, i] < its marginal
        self._priorities = priorities

    @property
    def priorities(self) -> np.ndarray:
        """The priority-scheme priorities, drawn on first read from a generator."""
        if isinstance(self._priorities, np.random.Generator):
            self._priorities = self._priorities.random(self.u_sample.shape)
        return self._priorities


def draw_block(
    instance: Instance, rng: np.random.Generator, size: int, support=slice(None)
) -> BlockDraws:
    """States, sample uniforms and priorities of ``size`` trials, in that order.

    The priorities are drawn from ``rng`` on first read, so nothing may draw
    from it before then. Only the ``support`` items (every item by default)
    are drawn for, so the draws for a support of all n items are the same.
    """
    states = sample_states(instance.state_cum_probs[support], rng, size)
    return BlockDraws(states, rng.random(states.shape), rng)


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


def estimate_set_keep_rate(
    crs: BalancedCrs,
    outer: OuterConstraint,
    marginals,
    trials: int,
    seed: int,
) -> list[CrsEstimate]:
    """Per-item empirical Pr[item kept | item sampled] for the set-level scheme.

    The marginals must lie inside scale * hull for the scheme's quoted scale.
    A block draws the sample uniforms, then the priorities if they are read.
    Raises ``ValueError`` for ``trials < 1`` (:func:`parallel.run_blocks`).
    """
    y = np.asarray(marginals, dtype=float)
    if not in_scaled_polytope(outer, y, crs.scale):
        raise ValueError(
            f"marginals are not inside {crs.scale} * the outer hull; "
            "the scheme's quoted keep rate does not apply"
        )
    support = np.flatnonzero(y > 0)

    def block(rng, start, size):
        d = BlockDraws(None, rng.random((size, len(support))), rng)  # no states
        sampled = d.u_sample < y[support]
        kept = crs_keep_batch(crs, outer, sampled, lambda: d.priorities, support)
        return sampled.sum(axis=0)[:, None], kept.sum(axis=0)[:, None]

    cond, kept = run_blocks("keep-rate", seed, trials, block)
    return _binomial_rows("set", cond, kept, support, outer.n, states=False)


def state_keep_batch(mapping: str, instance: Instance, outer, crs, sol: SlotSolution, draws):
    """The thinned states and the kept mask of a block's (R, n_s) ``draws`` under ``mapping``.

    The thinned vector is the realized state where the item is sampled, else 0.
    """
    if mapping not in MAPPINGS:
        raise ValueError(f"mapping must be one of {MAPPINGS}")
    v = np.where(draws.u_sample < sol.marginals[sol.support], draws.states, 0)
    if mapping == "schedule":
        return v, schedule_keep_batch(instance, v, sol)
    keep = crs_keep_batch(crs, outer, v > 0, lambda: draws.priorities, sol.support)
    if mapping == "combined":
        keep &= schedule_keep_batch(instance, v, sol)
    return v, keep


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
    Raises ``ValueError`` for ``trials < 1`` (:func:`parallel.run_blocks`).
    """
    check_solution_shape(instance, sol)
    n, width = len(sol.support), instance.B + 1
    cells = np.arange(n) * width

    def block(rng, start, size):
        d = draw_block(instance, rng, size, sol.support)
        v, keep = state_keep_batch(mapping, instance, outer, crs, sol, d)
        # sampled and kept counts per (item, state); column 0 takes the uncounted cells
        return tuple(np.bincount((cells + u).ravel(), minlength=n * width) for u in (v, v * keep))

    cond, kept = (c.reshape(n, width) for c in run_blocks(f"keep-{mapping}", seed, trials, block))
    return _binomial_rows(mapping, cond, kept, sol.support, instance.n, states=True)


def _table_csv(header: str, rows: list[CrsEstimate], key) -> str:
    """One line per row: ``key(row)``, then value, se, events and status; NaN is empty."""
    def num(x):
        return "" if math.isnan(x) else f"{x:.6f}"

    lines = [f"{key(r)},{num(r.value)},{num(r.se)},{r.events},{r.status}" for r in rows]
    return "\n".join([header, *lines]) + "\n"


def alpha_table_csv(rows: list[CrsEstimate]) -> str:
    header = "item,state,mapping,alpha,se,trials,status"
    return _table_csv(header, rows, lambda r: f"{r.item + 1},{r.state},{r.mapping}")


def gamma_table_csv(rows: list[CrsEstimate]) -> str:
    return _table_csv("item,gamma,se,trials,status", rows, lambda r: r.item + 1)


def min_rate(rows: list[CrsEstimate]) -> tuple[float, float]:
    """Smallest estimate with data, with its standard error; (1, 0) if no row has data."""
    with_data = [r for r in rows if r.status == "ok"]
    if not with_data:
        return 1.0, 0.0
    worst = min(with_data, key=lambda r: r.value)
    return worst.value, worst.se
