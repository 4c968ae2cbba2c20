"""Step-by-step references for the package's batched code paths.

* :func:`greedy_steps`, the continuous greedy one step at a time: one gain
  call per step, then a one-objective certificate of the previous answer
  and, if it fails, a cold ``solve_lp`` call, for tests/test_greedy.py to
  compare with ``greedy.run_continuous_greedy``, which rides each certified
  vertex over all the remaining steps at once.
* A set-based scalar reference of the rounding (sample, prune, gate scan), independent of the package's one batched kernel
  (``policy.run_policy_batch``), for tests/test_kernel.py to compare on
  identical draws.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from stochsubmax.constraints import is_independent
from stochsubmax.errors import LpCertificateError
from stochsubmax.greedy import estimate_marginal_gains
from stochsubmax.lp import build_slot_program, certify_optimal, solve_lp
from stochsubmax.rounding import greedy_keep


def greedy_steps(instance, f, outer, stop_scale, steps, grad_samples, seed) -> list:
    """The marginals after each step of the continuous greedy, taken one step at a time.

    Step k takes the gains at x, its float dust clipped to [0, 1] (exact, or
    sampled from the stream ("step", k)), keeps the previous answer if it
    passes ``certify_optimal`` under the new objective and otherwise solves
    the slot program cold, and moves x by ``stop_scale / steps`` along the
    answer. These are the snapshots that
    ``run_continuous_greedy(..., history=...)`` records.
    """
    program = build_slot_program(instance, outer)
    nv = len(program.variables)
    delta = stop_scale / steps
    x = np.zeros(nv)
    items = np.array([i for i, _ in program.variables], dtype=np.int64)
    marginals = np.zeros(instance.n)
    answer = None
    history = []
    for k in range(steps):
        if nv:
            marginals[items] = np.clip(x, 0.0, 1.0)
            gains, _ = estimate_marginal_gains(
                instance, f, marginals, grad_samples, seed, stream=("step", k)
            )
            objective = gains[items]
            if answer is None or not _certified(program, objective, answer):
                answer = solve_lp(program, objective)
            x = x + delta * answer.values
        snap = np.zeros(instance.n)
        snap[items] = x
        history.append(snap)
    return history


def _certified(program, objective, answer) -> bool:
    """Whether ``answer`` passes ``certify_optimal`` under ``objective``."""
    try:
        certify_optimal(objective, program.row_coeffs, program.row_bounds,
                        np.ones(len(program.variables)), answer.values, answer.basis)
    except LpCertificateError:
        return False
    return True


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


def slot_at(sol, item: int) -> int:
    """The start slot of ``item``: the slot of its one entry in ``sol.entries``."""
    (slot,) = [t for i, t, _ in sol.entries if i == item]
    return slot


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


def _run_policy(instance, f, outer, crs, sol, states, u_sample, priorities):
    """One traced run on explicit width-n draws, one entry per item.

    This is the scalar reference for ``policy.run_policy_batch`` on identical draws:
    the kernel's support-width draws of ``rounding.draw_block`` put in their
    items' entries (an item of marginal 0 is never sampled, whatever its draws).
    """
    reveal = RevealLog(states)
    sampled = [int(i) for i in np.nonzero(u_sample < sol.marginals)[0]]
    kept = sorted(keep(crs, outer, sampled, priorities))
    times = {i: slot_at(sol, i) for i in kept}
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
