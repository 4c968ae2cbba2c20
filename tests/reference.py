"""Set-based scalar reference of the rounding: sample, prune, draw slots, gate scan.

An implementation independent of the package's one batched kernel
(``policy.run_policy_batch``), for tests/test_kernel.py to compare on identical draws.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from stochsubmax.constraints import is_independent
from stochsubmax.rounding import greedy_keep


@dataclass(frozen=True)
class ReferenceTrace:
    """Full record of one reference run."""

    sampled: tuple[int, ...]
    kept: tuple[int, ...]
    start_times: dict
    order: tuple[int, ...]
    records: tuple  # (item, start_time, gate_passed, state | None, cost | None)
    spent_history: tuple[int, ...]
    selected: tuple[int, ...]
    utility: float
    reads: tuple[int, ...]

    @property
    def total_cost(self) -> int:
        return self.spent_history[-1] if self.spent_history else 0


class RevealLog:
    """Realization wrapper that records which coordinates were read."""

    def __init__(self, states):
        self._states = np.asarray(states)
        self.reads: list[int] = []

    def reveal(self, item: int) -> int:
        self.reads.append(item)
        return int(self._states[item])


def keep(crs, outer, members, priorities) -> set:
    """Resolve a sampled set with explicit per-item priorities (deterministic)."""
    members = set(members)
    if crs.kind == "identity":
        if not is_independent(outer, members):
            raise ValueError("identity scheme got a set outside the outer family")
        return members
    return greedy_keep(outer, members, priorities)


def slot_at(sol, item: int, u: float) -> int:
    """Inverse-CDF start slot of ``item`` at the uniform ``u``.

    Slot t has probability value/marginal.
    """
    ts, _ = sol.slot_lists[item]
    if not ts:
        raise ValueError(f"item {item} has no slot mass")
    pos = int(np.searchsorted(sol.slot_cum[item], u, side="right"))
    return ts[min(pos, len(ts) - 1)]


def schedule_keep_set(instance, v, times: dict) -> set:
    """Items whose slot admits the realized costs of all support items starting no later.

    ``times`` maps every support item of v to its start slot. Item i is kept iff
    the total cost (at the states in v) of all other support items with start
    slot <= times[i] is at most times[i].
    """
    sup = [int(i) for i in np.flatnonzero(v)]
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


def _gate_scan(instance, kept, times: dict, reveal: RevealLog):
    """Visit kept items by (start slot, index); select while spent <= slot."""
    order = sorted(kept, key=lambda i: (times[i], i))
    records = []
    spent_history = []
    selected = []
    spent = 0
    for item in order:
        if spent <= times[item]:
            state = reveal.reveal(item)
            cost = int(instance.cost_matrix[item, state - 1])
            spent += cost
            selected.append(item)
            records.append((item, times[item], True, state, cost))
        else:
            records.append((item, times[item], False, None, None))
        spent_history.append(spent)
    return tuple(order), tuple(records), tuple(spent_history), tuple(selected)


def _run_policy(instance, f, outer, crs, sol, states, u_sample, priorities, u_slot):
    """One traced run on explicit width-n draws, one entry per item.

    Every item has a slot uniform, used only if the item is kept, so this is
    the scalar reference for ``policy.run_policy_batch`` on identical draws:
    the kernel's support-width draws of ``rounding.draw_block`` put in their
    items' entries (an item of marginal 0 is never sampled, whatever its draws).
    """
    reveal = RevealLog(states)
    sampled = [int(i) for i in np.nonzero(u_sample < sol.marginals)[0]]
    kept = sorted(keep(crs, outer, sampled, priorities))
    times = {i: slot_at(sol, i, u_slot[i]) for i in kept}
    order, records, spent_history, selected = _gate_scan(instance, kept, times, reveal)
    final = np.zeros(instance.n, dtype=np.int64)
    for item, _, passed, state, _ in records:
        if passed:
            final[item] = state
    utility = float(f.value(final))
    return ReferenceTrace(
        sampled=tuple(sampled),
        kept=tuple(kept),
        start_times=times,
        order=order,
        records=records,
        spent_history=spent_history,
        selected=selected,
        utility=utility,
        reads=tuple(reveal.reads),
    )
