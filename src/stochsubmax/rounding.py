"""Contention resolution: the set-level pruning scheme and state-level pruning maps.

The set-level scheme trims a random item set down to a member of the outer
family while keeping each sampled item with high conditional probability. One
scheme ships, ``priority``: greedy by independent uniform priorities against
the independence oracle, monotone, as keeping an item only gets harder as the
sampled set grows. Under cardinality (one block of cap k) and partitions it
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
or per (item, state) pair (state level) with binomial standard errors. Under
cardinality and partitions the set level also has an exact rate per item,
a Poisson-binomial sum (:func:`exact_set_keep_rate`), which the ``ratio``
verdict reads.

Each map exists once, in batched form: :func:`crs_keep_batch` and
:func:`schedule_keep_batch` resolve a block of R trials at a time on the
(R, n_s) thinned state block of :func:`draw_block`. Its columns are the
solution's support, the n_s items of positive marginal in increasing id
order: an item of marginal 0 is never sampled, so it is never drawn for. A
row only ever reads the state of an item it sampled, so each cell draws one
uniform u, which gives the thinned state directly: 0 iff u >= x_i, else the
item's state by the inverse CDF of u / x_i, read from the top
(:func:`draw_block`). The estimators here and the
policy in :mod:`policy` both run them. The keep-rate count tables are built
for the support items only, sampled and kept cells in one ``bincount``; the
rows start as a copy of one cached tuple of blank "insufficient" rows per
(mapping, n, width), and only the cells with a sampled event are written.
Nothing here goes back to width n: the utility of a block is read at the
support width too (:meth:`lattice.UtilityOracle.value_batch_at`).
The constants of the maps are cached where they belong: the precedence
matrix on the solution (:attr:`~greedy.SlotSolution.precedence`), the state
tail probabilities and the zero-padded cost table as floats on the instance
(:attr:`~model.Instance.state_tails`, :attr:`~model.Instance.float_costs`)
and the hull on the constraint (:attr:`~constraints.OuterConstraint.hull`).

Block b of an estimator draws from ``seeds.block_rng(seed, label, b)``
(:func:`parallel.run_blocks`), labelled ``keep-rate`` or ``keep-<mapping>``.
A state block draws one uniform per cell as an (n_s, R) array, one contiguous
row per support column, then the (R, n_s) priorities, the latter only if the
scheme reads them (:func:`crs_keep_batch`), which the ``schedule`` mapping
never does. The set keep rate draws its (R, n_s) sample
uniforms, then the priorities, as before, so its ``keep-rate`` stream did not
move when the state blocks went to one uniform per cell; the
``keep-<mapping>`` streams did.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# is_independent stays a module name: bench/tracing.py counts calls through it
from .constraints import (OuterConstraint, in_scaled_polytope, independent_rows,  # noqa: F401
                          is_independent)
from .greedy import SlotSolution, check_solution_shape
from .model import Instance
# map_blocks stays a module name: bench/tracing.py counts calls through it
from .parallel import map_blocks, run_blocks  # noqa: F401

MAPPINGS = ("outer", "schedule", "combined")


def closed_form_keep_rate(scale: float) -> float:
    """(1 - exp(-b)) / b, a fair scheme's set-level keep rate at scale b.

    The priority scheme does not guarantee it, so all accounting uses the
    scheme's exact keep rates (:func:`exact_set_keep_rate`).
    """
    if scale <= 0:
        return 1.0
    return (1.0 - math.exp(-scale)) / scale


@dataclass(frozen=True)
class BalancedCrs:
    """Set-level scheme descriptor: kind (only ``priority``) and the scale its keep rate
    is quoted at."""

    kind: str
    scale: float = 0.25

    def __post_init__(self):
        if self.kind != "priority":
            raise ValueError(f"unknown scheme kind {self.kind!r}; the one kind is 'priority'")
        if not 0 < self.scale <= 1:
            raise ValueError("scale must lie in (0, 1]")


def crs_keep_batch(
    crs: BalancedCrs, outer: OuterConstraint, sampled, priorities, support
) -> np.ndarray:
    """The set-level scheme on every row of a block: the (R, n_s) mask of kept items.

    Column c of the (R, n_s) arrays is item ``support[c]`` (increasing ids).
    Row r resolves the item set ``support[sampled[r]]`` with ``priorities[r]``,
    the (R, n_s) array or a callable that returns it, the same at every call.
    Cardinality (one block of cap k) and partitions keep by one rule over the
    blocks and caps of :attr:`OuterConstraint.hull`: a sampled item
    iff fewer than its block's cap of sampled rivals have a smaller
    (priority, index). If the support fits every cap, so does every row, and
    ``sampled`` itself is returned with no priority read; else only the rows
    over some cap read them, sorted by (block, priority, index).
    """
    sampled = np.asarray(sampled, dtype=bool)
    support = np.asarray(support)
    read = priorities if callable(priorities) else (lambda: priorities)
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
    (``instance.float_costs``, 0 at state 0, gathered by one flat take from
    the support's rows), iff (c @ M)[r, i] - c[r, i] <= slots[i], where M is
    ``sol.precedence``, M[j, i] = [slots[j] <= slots[i]]. The costs are
    integers held as floats, so the product casts nothing and is exact. It runs
    on the (n_s, R) transposes, which are contiguous for a block of
    :func:`draw_block`.
    """
    v = np.asarray(v).T
    cost = instance.float_costs.take(v + (sol.support * (instance.B + 1))[:, None])
    return ((v > 0) & (sol.precedence.T @ cost - cost <= sol.slots[:, None])).T


class BlockDraws:
    """The random (R, n_s) arrays of one block of R trials.

    Column c belongs to item ``support[c]`` of the support the block was drawn
    for. ``thinned`` is the thinned state block: the realized state 1..B of a
    sampled item, 0 elsewhere, so the sampled mask is ``thinned > 0``. The
    priorities are an array, or the generator that drew ``thinned``, which
    draws them on first read.
    """

    def __init__(self, thinned, priorities):
        self.thinned = thinned
        self._priorities = priorities

    @property
    def priorities(self) -> np.ndarray:
        """The priority-scheme priorities, drawn on first read from a generator."""
        if isinstance(self._priorities, np.random.Generator):
            self._priorities = self._priorities.random(self.thinned.shape)
        return self._priorities


def draw_block(instance: Instance, sol: SlotSolution, rng: np.random.Generator,
               size: int) -> BlockDraws:
    """The thinned states of ``size`` trials on the support of ``sol``, from one
    ``random((n_s, size))`` draw read transposed; the priorities are drawn from
    ``rng`` on first read.

    Cell (r, c), item i = ``sol.support[c]`` of marginal x_i, reads its uniform
    u = ``random((n_s, size))[c, r]`` as the number of states s in 1..B with
    u < x_i P(state >= s): 0 iff u >= x_i (the sampled mask is ``u < x_i``,
    bit for bit), and given u < x_i, u / x_i is uniform, so the count is the
    inverse CDF of the item's state read from the top. It is counted in int8
    (int32 past B = 127), one support column per contiguous row, and returned
    as the (size, n_s) transpose. Nothing may draw from ``rng`` before the
    priorities are read.
    """
    support = sol.support
    # row s - 1: x_i P(state >= s); row 0 is x_i itself
    above = instance.state_tails.take(support, axis=1) * sol.marginals.take(support)
    below = (rng.random((len(support), size)) < above[:, :, None]).view(np.int8)
    # counted in place in the first row; B - 1 adds of whole rows beat one reduction over B
    thinned = below[0] if instance.B <= 127 else below[0].astype(np.int32)
    for row in below[1:]:
        thinned += row
    return BlockDraws(thinned.T, rng)


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


@functools.lru_cache(maxsize=64)
def _blank_rows(mapping, n: int, width: int, states: bool) -> tuple[CrsEstimate, ...]:
    """The rows of n items none of which was ever sampled, all "insufficient"."""
    nan = math.nan
    return tuple(
        _as_estimate((i, s if states else None, mapping, nan, nan, 0, "insufficient"))
        for i in range(n) for s in range(1, width + 1)
    )


def _binomial_rows(mapping, cond, kept, support, n: int, states: bool) -> list[CrsEstimate]:
    """Rows of all n items: per item, or per (item, state 1..B).

    ``cond`` and ``kept`` are the sampled / kept count tables of the n_s
    ``support`` items (increasing ids): (n_s, 1) tables, or (n_s, B + 1)
    ones indexed by state whose column 0 is unused. The rows start as a copy
    of the cached blank rows (:func:`_blank_rows`), and only the cells with a
    sampled event are written: value p = kept / sampled and standard error
    sqrt(p (1 - p) / sampled), in Python floats, which round as numpy's
    float64 arrays do, bit for bit.
    """
    first = int(states)  # the first counted column
    width = cond.shape[1] - first
    out = list(_blank_rows(mapping, n, width, states))
    for i, sampled, kept_row in zip(np.asarray(support).tolist(), cond.tolist(), kept.tolist()):
        at = i * width - first
        for s in range(first, width + first):
            events = sampled[s]
            if events:
                p = kept_row[s] / events
                out[at + s] = _as_estimate((i, s if states else None, mapping, p,
                                            math.sqrt(p * (1 - p) / events), events, "ok"))
    return out


def _scaled_marginals(crs: BalancedCrs, outer: OuterConstraint, marginals) -> np.ndarray:
    """``marginals`` as floats; ``ValueError`` unless they lie inside scale * hull."""
    y = np.asarray(marginals, dtype=float)
    if not in_scaled_polytope(outer, y, crs.scale):
        raise ValueError(
            f"marginals are not inside {crs.scale} * the outer hull; "
            "the scheme's quoted keep rate does not apply"
        )
    return y


def exact_set_keep_rate(crs: BalancedCrs, outer: OuterConstraint, marginals) -> np.ndarray:
    """Each item's exact Pr[kept | sampled] under the set-level scheme, as an (n,) array.

    Items are sampled independently with their ``marginals``, which must lie
    inside scale * hull (``ValueError`` otherwise). Under the priority rule,
    item i of a hull row of cap c is kept iff fewer than c of its N sampled
    block rivals have a smaller priority; given N = m, its uniform priority
    ranks uniformly among the m + 1, so
    ``gamma_i = sum_m P(N = m) * min(1, c / (m + 1))``. N is Poisson binomial
    over the row's other positive-marginal items: the (m, m) array of every
    such item's law is built one rival at a time, a rival leaving its own row
    as it is. A row of at most c such items, and an item of marginal 0, gets
    1. Reads only ``crs.scale``.
    """
    y = _scaled_marginals(crs, outer, marginals)
    gamma = np.ones(len(y))
    a, caps = outer.hull
    for row, cap in zip(a, caps.tolist()):
        block = np.flatnonzero((row > 0) & (y > 0))
        m = len(block)
        if m <= cap:
            continue
        law = np.zeros((m, m))  # law[i, c]: P(c of item block[i]'s rivals are sampled)
        law[:, 0] = 1.0
        for j, p in enumerate(y[block].tolist()):
            q = np.full((m, 1), p)
            q[j] = 0.0
            law[:, 1:] = law[:, 1:] * (1.0 - q) + law[:, :-1] * q
            law[:, :1] *= 1.0 - q
        gamma[block] = law @ np.minimum(1.0, cap / np.arange(1, m + 1))
    return gamma


def stop_scale(beta: float) -> float:
    """The continuous greedy's stopping scale l = min(beta, 1/4) for the slack beta."""
    return min(beta, 0.25)


def ratio_guarantee(crs: BalancedCrs, outer: OuterConstraint, sol: SlotSolution,
                    beta: float) -> tuple[float, float]:
    """The keep rate gamma, the least exact set keep rate over the support (1 on an
    empty one), and the guaranteed fraction (1 - min(2 beta, 1/2)) (1 - e^-l) gamma
    of the optimum at l = ``sol.stop_scale``: only the simulated mean carries an error."""
    gamma = exact_set_keep_rate(crs, outer, sol.marginals)
    keep_rate = float(gamma[sol.support].min(initial=1.0))
    return keep_rate, (1.0 - min(2.0 * beta, 0.5)) * (1.0 - math.exp(-sol.stop_scale)) * keep_rate


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
    Its exact value is :func:`exact_set_keep_rate`.
    """
    y = _scaled_marginals(crs, outer, marginals)
    support = np.flatnonzero(y > 0)

    def block(rng, start, size):
        # the sampled mask is the thinned block of a single state
        d = BlockDraws(rng.random((size, len(support))) < y[support], rng)
        kept = crs_keep_batch(crs, outer, d.thinned, lambda: d.priorities, support)
        return d.thinned.sum(axis=0)[:, None], kept.sum(axis=0)[:, None]

    cond, kept = run_blocks("keep-rate", seed, trials, block)
    return _binomial_rows("set", cond, kept, support, outer.n, states=False)


def state_keep_batch(mapping: str, instance: Instance, outer, crs, sol: SlotSolution, draws):
    """The thinned states and the kept mask of a block's (R, n_s) ``draws`` under ``mapping``.

    The thinned block is ``draws.thinned``: the realized state where the item
    is sampled, else 0.
    """
    if mapping not in MAPPINGS:
        raise ValueError(f"mapping must be one of {MAPPINGS}")
    v = draws.thinned
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
    cells = np.arange(n) * width  # cell (column, state) of a count table
    kept_at = n * width  # a kept cell is counted this far on, past the table of the others

    def block(rng, start, size):
        v, keep = state_keep_batch(mapping, instance, outer, crs, sol,
                                   draw_block(instance, sol, rng, size))
        at = cells + v
        at += kept_at * keep
        # one count; column 0 of the first table takes the unsampled cells
        return (np.bincount(at.ravel("K"), minlength=2 * kept_at),)

    (counts,) = run_blocks(f"keep-{mapping}", seed, trials, block)
    dropped, kept = counts.reshape(2, n, width)
    return _binomial_rows(mapping, dropped + kept, kept, sol.support, instance.n, states=True)


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
