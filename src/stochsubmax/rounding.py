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

The estimators run a block of R trials at a time through batched forms of the
maps (:func:`crs_keep_batch`, :func:`schedule_keep_batch`) on (R, n) arrays
drawn by :func:`draw_block`; the set-based functions stay as the reference.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

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

    @property
    def documented_keep_rate(self) -> float:
        if self.kind == "identity":
            return 1.0
        return closed_form_keep_rate(self.scale)

    def keep(self, outer: OuterConstraint, members, priorities) -> set:
        """Resolve a sampled set with explicit per-item priorities (deterministic)."""
        members = set(members)
        if self.kind == "identity":
            if not is_independent(outer, members):
                raise ValueError("identity scheme got a set outside the outer family")
            return members
        return greedy_keep(outer, members, priorities)

    def resolve(self, outer: OuterConstraint, members, rng: np.random.Generator) -> set:
        return self.keep(outer, members, rng.random(outer.n))


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
    """``crs.keep`` on every row of a block: the (R, n) mask of kept items.

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


def resolve_set(crs: BalancedCrs, outer: OuterConstraint, members, seed: int) -> set:
    """Seeded public entry for one resolution of a sampled set."""
    return crs.resolve(outer, members, derive_rng(seed, "resolve"))


@dataclass(frozen=True)
class ThinnedStateDistribution:
    """Per item: state 0 with prob 1 - marginal, state j >= 1 with prob p(j) * marginal."""

    probs: np.ndarray  # (n, B+1)

    def __post_init__(self):
        sums = self.probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError("thinned state rows must each sum to 1")

    @cached_property
    def cum(self) -> np.ndarray:
        return np.cumsum(self.probs, axis=1)

    def sample(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        single = count is None
        m = 1 if single else count
        u = rng.random((m, self.probs.shape[0]))
        out = np.empty((m, self.probs.shape[0]), dtype=np.int64)
        top = self.probs.shape[1] - 1
        for i in range(self.probs.shape[0]):
            out[:, i] = np.searchsorted(self.cum[i], u[:, i], side="right")
        np.minimum(out, top, out=out)
        return out[0] if single else out


def thinned_distribution(instance: Instance, marginals) -> ThinnedStateDistribution:
    y = np.asarray(marginals, dtype=float)
    if y.shape != (instance.n,) or np.any(y < -1e-12) or np.any(y > 1 + 1e-12):
        raise ValueError("marginals must be n values in [0, 1]")
    y = np.clip(y, 0.0, 1.0)
    probs = np.empty((instance.n, instance.B + 1))
    probs[:, 0] = 1.0 - y
    probs[:, 1:] = instance.prob_matrix * y[:, None]
    return ThinnedStateDistribution(probs=probs)


def sample_thinned_realization(instance: Instance, marginals, seed: int) -> np.ndarray:
    """One thinned state vector: item i is 0 w.p. 1-marginal, else a realized state."""
    rng = derive_rng(seed, "thinned")
    return thinned_distribution(instance, marginals).sample(rng)


def support(v) -> list[int]:
    return [int(i) for i in np.nonzero(np.asarray(v))[0]]


def _mask_vector(v, keep_set) -> np.ndarray:
    out = np.zeros(len(v), dtype=np.int64)
    for i in keep_set:
        out[i] = v[i]
    return out


def _outer_keep(outer, crs, v, rng) -> set:
    return crs.resolve(outer, support(v), rng)


def prune_by_outer(outer: OuterConstraint, crs: BalancedCrs, v, seed: int) -> np.ndarray:
    """Zero every coordinate the set-level scheme drops from the support of v."""
    rng = derive_rng(seed, "prune-outer")
    return _mask_vector(v, _outer_keep(outer, crs, v, rng))


def schedule_keep_set(instance: Instance, v, times: dict) -> set:
    """Items whose slot admits the realized costs of all support items starting no later.

    ``times`` maps every support item of v to its start slot. Item i is kept iff
    the total cost (at the states in v) of all other support items with start
    slot <= times[i] is at most times[i].
    """
    sup = support(v)
    costs = {i: int(instance.cost_matrix[i, int(v[i]) - 1]) for i in sup}
    ts = sorted(times[i] for i in sup)
    cum = np.concatenate([[0], np.cumsum([c for _, c in sorted(
        ((times[i], costs[i]) for i in sup), key=lambda p: p[0]
    )])])
    kept = set()
    for i in sup:
        upto = bisect_right(ts, times[i])
        if cum[upto] - costs[i] <= times[i]:
            kept.add(i)
    return kept


def schedule_keep_batch(instance: Instance, v, times) -> np.ndarray:
    """:func:`schedule_keep_set` on every row of a block: the (R, n) mask of kept items.

    ``v`` is an (R, n) state matrix (0 off the support) and ``times`` the (R, n)
    start slots, read only on the support. With c the realized costs and C[r, t]
    the row's total support cost at slots 1..t, item i is kept iff
    C[r, times[r, i]] - c[r, i] <= times[r, i]. Memory is O(R * (n + budget)).
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


def _schedule_keep(instance, sol, v, rng) -> tuple[set, dict]:
    sup = support(v)
    bad = [i for i in sup if sol.marginals[i] <= 0]
    if bad:
        raise ValueError(f"items {bad} appear in v but carry no slot mass")
    times = {i: sol.sample_slot(i, rng) for i in sup}
    return schedule_keep_set(instance, v, times), times


def prune_by_schedule(
    instance: Instance, sol: SlotSolution, v, seed: int
) -> tuple[np.ndarray, dict]:
    """Start-time pruning of v; returns (pruned vector, sampled start slots)."""
    rng = derive_rng(seed, "prune-schedule")
    kept, times = _schedule_keep(instance, sol, v, rng)
    return _mask_vector(v, kept), times


def prune_combined(
    instance: Instance,
    outer: OuterConstraint,
    crs: BalancedCrs,
    sol: SlotSolution,
    v,
    seed: int,
) -> np.ndarray:
    """Keep exactly the coordinates kept by both maps, run independently."""
    keep_a = _outer_keep(outer, crs, v, derive_rng(seed, "combined-outer"))
    keep_b, _ = _schedule_keep(instance, sol, v, derive_rng(seed, "combined-schedule"))
    return _mask_vector(v, keep_a & keep_b)


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
