"""The executable adaptive policy and its simulation harness.

One run: sample each item into a candidate set with its solution marginal,
trim the set to the outer family with the set-level scheme, draw a start slot
per surviving item from the fractional solution, then visit survivors in
nondecreasing start-slot order (least index on ties). An item is selected iff
the cost spent so far is at most its start slot; only then is its state
revealed and its realized cost added. Selection therefore never overshoots the
budget: spent <= slot <= budget - worst cost of the item being selected.

States of unselected items are never read; every trace carries the reveal log
so tests can audit that boundary.

:func:`execute` runs one traced policy run. Simulation and the coupled
dominance check run whole blocks of runs at once with :func:`run_policy_batch`,
which takes the draws of :func:`rounding.draw_block` and returns the same
sampled, kept, slot, selected and read sets as the traced path on those draws.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

# is_independent stays a module name: bench/tracing.py counts calls through it
from .constraints import OuterConstraint, independent_rows, is_independent  # noqa: F401
from .greedy import SlotSolution, certify_solution
from .model import Instance
from .parallel import combine_mean_se, map_blocks, split_blocks
from .rounding import (
    BalancedCrs,
    BlockDraws,
    crs_keep_batch,
    draw_block,
    schedule_keep_batch,
)
from .seeds import derive_rng


@dataclass(frozen=True)
class PolicyTrace:
    """Full record of one policy run."""

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


def check_solution_shape(instance: Instance, sol: SlotSolution):
    """Structural checks: entry ranges and marginal consistency."""
    if sol.n != instance.n or sol.budget != instance.budget:
        raise ValueError("solution does not match the instance dimensions")
    slots = instance.slot_counts
    sums = np.zeros(instance.n)
    for i, t, v in sol.entries:
        if not (0 <= i < instance.n and 1 <= t <= int(slots[i])):
            raise ValueError(f"solution entry ({i}, {t}) is out of slot range")
        if not -1e-12 <= v <= 1 + 1e-9:
            raise ValueError(f"solution value {v!r} outside [0, 1]")
        sums[i] += v
    if np.max(np.abs(sums - sol.marginals), initial=0.0) > 1e-9:
        raise ValueError("solution marginals are inconsistent with its entries")


def _gate_scan(instance: Instance, kept, times: dict, reveal: RevealLog):
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
    """One traced run on explicit draws: the row layout of :func:`rounding.draw_block`.

    Every item has a slot uniform, used only if the item is kept, so this is
    the scalar reference for :func:`run_policy_batch` on identical draws.
    """
    reveal = RevealLog(states)
    sampled = [int(i) for i in np.nonzero(u_sample < sol.marginals)[0]]
    kept = sorted(crs.keep(outer, sampled, priorities))
    times = {i: sol.slot_at(i, u_slot[i]) for i in kept}
    order, records, spent_history, selected = _gate_scan(instance, kept, times, reveal)
    final = np.zeros(instance.n, dtype=np.int64)
    for item, _, passed, state, _ in records:
        if passed:
            final[item] = state
    utility = float(f.value(final))
    return PolicyTrace(
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


def gate_scan_batch(instance: Instance, states, kept, times):
    """:func:`_gate_scan` on every row of a block at once.

    Step j visits each row's j-th kept item in (start slot, index) order and
    selects it iff spent <= its slot, so the loop runs at most max-kept steps.
    States are read only through ``read``, one masked gather per step at
    gate-passed positions, which is the only place the read mask is set.
    Returns (R, n) ``selected``, ``reads`` and ``revealed`` (the states read, 0
    elsewhere) and the (R,) ``spent``.
    """
    kept, times, states = np.asarray(kept, dtype=bool), np.asarray(times), np.asarray(states)
    rows, n = kept.shape
    key = np.where(kept, times * n + np.arange(n), np.iinfo(np.int64).max)
    order = np.argsort(key, axis=1, kind="stable")
    count = kept.sum(axis=1)
    row_ids = np.arange(rows)
    # flat views: entry (r, i) is at r * n + i
    slot_of, state_of = times.reshape(-1), states.reshape(-1)
    selected = np.zeros(rows * n, dtype=bool)
    reads = np.zeros(rows * n, dtype=bool)
    revealed = np.zeros(rows * n, dtype=np.int64)
    spent = np.zeros(rows, dtype=np.int64)

    def read(at):
        state = state_of[at]
        reads[at] = True
        revealed[at] = state
        return state

    for j in range(int(count.max(initial=0))):
        r = row_ids[count > j]  # rows that still have a j-th kept item
        at = r * n + order[r, j]
        passed = spent[r] <= slot_of[at]
        r, at = r[passed], at[passed]
        selected[at] = True
        spent[r] += instance.cost_matrix[at % n, read(at) - 1]
    shape = (rows, n)
    return selected.reshape(shape), reads.reshape(shape), revealed.reshape(shape), spent


@dataclass(frozen=True)
class BlockRun:
    """Batched policy runs of one block: sampled, kept, slots, gate scan and utilities."""

    sampled: np.ndarray  # (R, n) bool
    kept: np.ndarray  # (R, n) bool
    slots: np.ndarray  # (R, n) start slots, 0 for items without slot mass
    selected: np.ndarray  # (R, n) bool
    reads: np.ndarray  # (R, n) bool: where a state was read
    revealed: np.ndarray  # (R, n) the states read, 0 elsewhere
    spent: np.ndarray  # (R,) total realized cost
    utility: np.ndarray  # (R,)


def run_policy_batch(instance, f, outer, crs, sol, draws: BlockDraws) -> BlockRun:
    """The policy on every row of ``draws``: sample, resolve, draw slots, gate scan."""
    sampled = draws.u_sample < sol.marginals
    kept = crs_keep_batch(crs, outer, sampled, draws.priorities)
    slots = sol.sample_slots(draws.u_slot, sampled)
    selected, reads, revealed, spent = gate_scan_batch(instance, draws.states, kept, slots)
    utility = np.asarray(f.value_batch(revealed), dtype=float)
    return BlockRun(sampled, kept, slots, selected, reads, revealed, spent, utility)


def execute(
    instance: Instance,
    f,
    outer: OuterConstraint,
    crs: BalancedCrs,
    sol: SlotSolution,
    realization,
    seed: int,
    certify_scale: float | None = None,
) -> PolicyTrace:
    """One policy run against a fixed realization.

    ``certify_scale`` optionally enforces full feasibility certification of the
    solution before running (the pipeline passes its stopping scale here);
    structural solution checks always run.
    """
    instance.require_valid()
    check_solution_shape(instance, sol)
    if certify_scale is not None:
        report = certify_solution(instance, outer, sol, certify_scale)
        if not report.passed:
            raise ValueError(
                f"solution fails certification at scale {certify_scale}: "
                f"{report.failures()[:3]}"
            )
    states = np.asarray(realization, dtype=np.int64)
    if states.shape != (instance.n,) or np.any(states < 1) or np.any(states > instance.B):
        raise ValueError("realization must assign each item a state in 1..B")
    u_sample, priorities, u_slot = derive_rng(seed, "policy").random((3, instance.n))
    return _run_policy(instance, f, outer, crs, sol, states, u_sample, priorities, u_slot)


@dataclass(frozen=True)
class SimulationSummary:
    runs: int
    mean_utility: float
    se: float
    inner_violations: int
    outer_violations: int
    adaptivity_violations: int


def _simulate_block(instance, f, outer, crs, sol, seed, block):
    """Utility sums and violation counts of one block of runs."""
    b, size = block
    run = run_policy_batch(
        instance, f, outer, crs, sol, draw_block(instance, derive_rng(seed, "simulate", b), size)
    )
    return (
        size,
        float(run.utility.sum()),
        float(run.utility @ run.utility),
        int(np.count_nonzero(run.spent > instance.budget)),
        int(np.count_nonzero(~independent_rows(outer, run.selected))),
        int(np.count_nonzero(np.any(run.reads != run.selected, axis=1))),
    )


def simulate_batch(
    instance: Instance,
    f,
    outer: OuterConstraint,
    crs: BalancedCrs,
    sol: SlotSolution,
    runs: int,
    seed: int,
    workers: int = 1,
) -> SimulationSummary:
    """Run the policy many times and tally utility plus constraint violations.

    A run violates the inner budget if it spends more than the budget, the outer
    family if its selected set is not in it, and adaptivity if the set of items
    whose states it read differs from its selected set. The batched gate scan
    marks a read only where it gathers a state, so the last tally reads 0 unless
    that gather moves; tests/test_kernel.py checks the read mask against the
    scalar path's :class:`RevealLog` on identical draws.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs")
    instance.require_valid()
    check_solution_shape(instance, sol)
    fn = functools.partial(_simulate_block, instance, f, outer, crs, sol, seed)
    partials = map_blocks(fn, split_blocks(runs), workers)
    mean, se = combine_mean_se(partials)
    return SimulationSummary(
        runs=sum(p[0] for p in partials),
        mean_utility=mean,
        se=se,
        inner_violations=sum(p[3] for p in partials),
        outer_violations=sum(p[4] for p in partials),
        adaptivity_violations=sum(p[5] for p in partials),
    )


def estimate_policy_value(
    instance, f, outer, crs, sol, runs: int, seed: int, workers: int = 1
) -> tuple[float, float]:
    """Mean final utility over independent (policy randomness, realization) pairs."""
    summary = simulate_batch(instance, f, outer, crs, sol, runs, seed, workers)
    return summary.mean_utility, summary.se


@dataclass(frozen=True)
class DominanceReport:
    trials: int
    violations: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def coupled_dominance_check(
    instance: Instance,
    f,
    outer: OuterConstraint,
    crs: BalancedCrs,
    sol: SlotSolution,
    trials: int,
    seed: int,
) -> DominanceReport:
    """Per-sample dominance of the policy over the combined pruning map.

    Each trial shares one realization, one sampled set, one set-level scheme
    outcome, and one start-slot draw per sampled item between (a) a policy run
    and (b) the combined pruning of the thinned state vector. The policy's
    selection must cover the pruned support coordinatewise, hence its utility
    must be at least the pruned vector's utility.
    """
    instance.require_valid()
    check_solution_shape(instance, sol)
    violations = []
    start = 0
    for b, size in split_blocks(trials):
        d = draw_block(instance, derive_rng(seed, "dominance", b), size)
        run = run_policy_batch(instance, f, outer, crs, sol, d)
        v = np.where(run.sampled, d.states, 0)
        sched = schedule_keep_batch(instance, v, run.slots)
        pruned = np.where(run.kept & sched, v, 0)
        pruned_utility = np.asarray(f.value_batch(pruned), dtype=float)
        policy_vec = run.revealed
        covered = np.all((pruned == 0) | (policy_vec == pruned), axis=1)
        bad = ~covered | (run.utility < pruned_utility - 1e-12)
        for r in np.flatnonzero(bad):
            sampled = np.flatnonzero(run.sampled[r])
            violations.append(
                {
                    "trial": start + int(r),
                    "realization": [int(s) for s in d.states[r]],
                    "sampled": [int(i) + 1 for i in sampled],
                    "kept": [int(i) + 1 for i in np.flatnonzero(run.kept[r])],
                    "times": {int(i) + 1: int(run.slots[r, i]) for i in sampled},
                    "selected": [int(i) + 1 for i in np.flatnonzero(run.selected[r])],
                    "policy_vector": [int(s) for s in policy_vec[r]],
                    "pruned_vector": [int(s) for s in pruned[r]],
                    "policy_utility": float(run.utility[r]),
                    "pruned_utility": float(pruned_utility[r]),
                }
            )
        start += size
    return DominanceReport(trials=trials, violations=tuple(violations))


def trace_to_json(trace: PolicyTrace) -> str:
    """One-line JSON export of a trace (1-based item ids)."""
    doc = {
        "sampled": [i + 1 for i in trace.sampled],
        "kept": [i + 1 for i in trace.kept],
        "start_times": {str(i + 1): int(t) for i, t in sorted(trace.start_times.items())},
        "order": [i + 1 for i in trace.order],
        "records": [
            {
                "item": item + 1,
                "start_time": int(t),
                "selected": passed,
                "state": state,
                "cost": cost,
            }
            for item, t, passed, state, cost in trace.records
        ],
        "spent": list(trace.spent_history),
        "selected": [i + 1 for i in trace.selected],
        "utility": trace.utility,
        "reads": [i + 1 for i in trace.reads],
    }
    return json.dumps(doc, separators=(",", ":"))


def traces_to_jsonl(traces) -> str:
    return "\n".join(trace_to_json(t) for t in traces) + "\n"
