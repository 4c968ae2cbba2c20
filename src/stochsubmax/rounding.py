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
  * ``schedule``: draw a start slot per support item from the fractional
    solution and keep an item only if the realized costs of all support items
    starting no later would fit within its slot.
  * ``combined``: keep exactly the coordinates both maps keep, run with
    independent randomness.

Empirical keep rates of all of the above are estimated per item (set level)
or per (item, state) pair (state level) with binomial standard errors.

Each map exists once, in batched form: :func:`crs_keep_batch` and
:func:`schedule_keep_batch` resolve a block of R trials at a time on the (R, n)
arrays drawn by :func:`draw_block`. The estimators here and the policy in
:mod:`policy` both run them; :func:`greedy_keep` resolves the rows of explicit
families one set at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constraints import OuterConstraint, in_scaled_polytope, independent_rows, is_independent
from .extensions import check_marginals
from .greedy import SlotSolution
from .model import Instance, sample_realization_batch
from .parallel import map_blocks, split_blocks
from .seeds import derive_rng, stream_entropy

MAPPINGS = ("outer", "schedule", "combined")


def closed_form_keep_rate(scale: float) -> float:
    """(1 - exp(-b)) / b, the documented set-level keep rate at scale b."""
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
    """Mask of each row's (at most) k sampled items of least (priority, index)."""
    order = np.argsort(np.where(sampled, priorities, np.inf), axis=1, kind="stable")
    least = np.zeros_like(sampled)
    np.put_along_axis(least, order[:, :k], True, axis=1)
    return least & sampled


def crs_keep_batch(crs: BalancedCrs, outer: OuterConstraint, sampled, priorities) -> np.ndarray:
    """The set-level scheme on every row of a block: the (R, n) mask of kept items.

    Row r resolves the item set ``sampled[r]`` with ``priorities[r]``. The
    priority scheme keeps, under cardinality, the k sampled items of least
    (priority, index), and under a partition the same within each block, which
    is what :func:`greedy_keep` keeps; explicit families run
    :func:`greedy_keep` row by row.
    """
    sampled = np.asarray(sampled, dtype=bool)
    if crs.kind == "identity":
        if not np.all(independent_rows(outer, sampled)):
            raise ValueError("identity scheme got a set outside the outer family")
        return sampled.copy()
    if outer.kind == "cardinality":
        return _least_priority(sampled, priorities, outer.k)
    if outer.kind == "partition":
        kept = sampled.copy()
        for block, cap in zip(outer.blocks, outer.caps):
            cols = list(block)
            kept[:, cols] = _least_priority(sampled[:, cols], priorities[:, cols], cap)
        return kept
    kept = np.zeros_like(sampled)
    for r, row in enumerate(sampled):
        kept[r, sorted(greedy_keep(outer, np.flatnonzero(row), priorities[r]))] = True
    return kept


def schedule_keep_batch(instance: Instance, v, times) -> np.ndarray:
    """The schedule map on every row of a block: the (R, n) mask of kept items.

    ``v`` is an (R, n) state matrix (0 off the support) and ``times`` the (R, n)
    start slots, read only on the support. Row r keeps support item i iff the
    realized costs of all its other support items starting no later than i fit
    within i's slot: with c the realized costs and C[r, t] the row's total
    support cost at slots 1..t, iff C[r, times[r, i]] - c[r, i] <= times[r, i].
    Memory is O(R * (n + budget)).
    """
    v = np.asarray(v)
    rows, n = v.shape
    on = v > 0
    width = instance.budget + 1
    cost = np.where(on, instance.cost_matrix[np.arange(n), np.maximum(v, 1) - 1], 0)
    t = np.where(on, times, 0)
    cells = np.arange(rows)[:, None] * width + t
    hist = np.bincount(cells[on], weights=cost[on], minlength=rows * width)
    cum = np.cumsum(hist.reshape(rows, width), axis=1)
    return on & (np.take_along_axis(cum, t, axis=1) - cost <= t)


@dataclass(frozen=True)
class BlockDraws:
    """The random arrays of one block of R trials, each (R, n), drawn in field order."""

    states: np.ndarray  # realized states 1..B
    u_sample: np.ndarray  # item i is sampled iff u_sample[:, i] < its marginal
    priorities: np.ndarray  # priority-scheme priorities
    u_slot: np.ndarray  # inverse-CDF uniforms of the start-slot draws


def draw_block(instance: Instance, rng: np.random.Generator, size: int) -> BlockDraws:
    """States, sample uniforms, priorities and slot uniforms of ``size`` trials, in that order."""
    states = sample_realization_batch(instance, rng, size)
    u_sample, priorities, u_slot = rng.random((3, size, instance.n))
    return BlockDraws(states, u_sample, priorities, u_slot)


@dataclass(frozen=True)
class CrsEstimate:
    """One empirical conditional keep probability with its binomial standard error."""

    item: int
    state: int | None
    mapping: str
    value: float
    se: float
    events: int
    status: str  # "ok" | "insufficient"


def _binomial_rows(mapping, cond, kept, states: bool) -> list[CrsEstimate]:
    rows = []
    n = cond.shape[0]
    state_range = range(1, cond.shape[1]) if states else [None]
    for i in range(n):
        for j in state_range:
            c = int(cond[i, j] if states else cond[i, 0])
            k = int(kept[i, j] if states else kept[i, 0])
            if c == 0:
                rows.append(CrsEstimate(i, j, mapping, float("nan"), float("nan"), 0, "insufficient"))
            else:
                p = k / c
                se = math.sqrt(max(p * (1 - p), 0.0) / c)
                rows.append(CrsEstimate(i, j, mapping, p, se, c, "ok"))
    return rows


def _gamma_block(crs, outer, y, seed, block):
    """Kept and sampled counts of one block; draws the sample uniforms, then the priorities."""
    b, size = block
    rng = derive_rng(seed, "keep-rate", b)
    u_sample, priorities = rng.random((2, size, outer.n))
    sampled = u_sample < y
    kept = crs_keep_batch(crs, outer, sampled, priorities)
    return sampled.sum(axis=0)[:, None], kept.sum(axis=0)[:, None]


def estimate_set_keep_rate(
    crs: BalancedCrs,
    outer: OuterConstraint,
    marginals,
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[CrsEstimate]:
    """Per-item empirical Pr[item kept | item sampled] for the set-level scheme.

    The marginals must lie inside scale * hull for the scheme's quoted scale.
    """
    y = np.asarray(marginals, dtype=float)
    if not in_scaled_polytope(outer, y, crs.scale):
        raise ValueError(
            f"marginals are not inside {crs.scale} * the outer hull; "
            "the scheme's quoted keep rate does not apply"
        )
    fn = functools.partial(_gamma_block, crs, outer, y, seed)
    partials = map_blocks(fn, split_blocks(trials), workers)
    cond = sum(p[0] for p in partials)
    kept = sum(p[1] for p in partials)
    return _binomial_rows("set", cond, kept, states=False)


def _alpha_block(mapping, instance, outer, crs, sol, seed, block):
    """Per (item, state) sampled and kept counts of one block (layout of :func:`draw_block`).

    The thinned vector is the realized state where the item is sampled, else 0;
    ``combined`` uses the priorities and the slot uniforms, which are independent.
    """
    b, size = block
    d = draw_block(instance, derive_rng(seed, f"keep-{mapping}", b), size)
    sampled = d.u_sample < sol.marginals
    v = np.where(sampled, d.states, 0)
    if mapping == "outer":
        keep = crs_keep_batch(crs, outer, sampled, d.priorities)
    elif mapping == "schedule":
        keep = schedule_keep_batch(instance, v, sol.sample_slots(d.u_slot, sampled))
    elif mapping == "combined":
        keep = crs_keep_batch(crs, outer, sampled, d.priorities) & schedule_keep_batch(
            instance, v, sol.sample_slots(d.u_slot, sampled)
        )
    else:
        raise ValueError(f"unknown mapping {mapping!r}")
    n, width = instance.n, instance.B + 1
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
    workers: int = 1,
) -> list[CrsEstimate]:
    """Per (item, state) empirical Pr[coordinate survives | coordinate sampled]."""
    if mapping not in MAPPINGS:
        raise ValueError(f"mapping must be one of {MAPPINGS}")
    check_marginals(instance, sol.marginals)
    fn = functools.partial(
        _alpha_block, mapping, instance, outer, crs, sol, stream_entropy(seed, mapping)
    )
    partials = map_blocks(fn, split_blocks(trials), workers)
    cond = sum(p[0] for p in partials)
    kept = sum(p[1] for p in partials)
    return _binomial_rows(mapping, cond, kept, states=True)


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
