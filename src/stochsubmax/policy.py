"""The executable adaptive policy and its simulation harness.

One run: sample each item into a candidate set with its solution marginal,
trim the set to the outer family with the set-level scheme, then visit the
survivors in nondecreasing order of their start slots, each item's one slot in
the fractional solution (least index on ties). An item is selected iff
the cost spent so far is at most its start slot; only then is its state
revealed and its realized cost added. Selection therefore never overshoots the
budget: spent <= slot <= budget - worst cost of the item being selected.

States of unselected items are never read; every run carries the mask of
states read so tests can audit that boundary.

Every run goes through one kernel, :func:`run_policy_batch`, which resolves a
whole block of runs on the draws of :func:`rounding.draw_block`. Simulation and
the coupled dominance check call it on blocks of many runs; :func:`execute` is
one run of it against a given realization, returned as a :class:`PolicyTrace`.
Each of the three first checks that the solution fits the instance
(:func:`greedy.check_solution_shape`); none certifies it, which the CLI and
the benchmark do before they run the policy.

The kernel works on the solution's support, the n_s items of positive
marginal, which are the only items a run can sample: its draws and masks are
(R, n_s) arrays, the gate scan runs on their (n_s, R) transposes, and the
outer-family tally counts the selected support columns against the hull's
support columns. The utility
reads the (R, n_s) block of revealed states itself
(:meth:`~lattice.UtilityOracle.value_batch_at` on the support), so only the
dominance violation reports go back to width n. The gate-scan order and the
precedence matrix are cached on the solution
(:attr:`~greedy.SlotSolution.scan_order`,
:attr:`~greedy.SlotSolution.precedence`), the zero-padded cost table on the
instance and the hull on the constraint. Block b of a simulation or a
dominance check draws from ``seeds.block_rng(seed, label, b)``
(:func:`parallel.run_blocks`), its priorities only if they are read; the
``simulate`` and ``dominance`` streams moved when the blocks left
``seeds.derive_rng``. :func:`execute` still draws ``random((2, n))`` from
``seeds.derive_rng(seed, "policy")`` and takes the support columns, so its
traces did not move and do not depend on the support's width.
The solution fixes every item's slot, so the gate scan visits the support
columns in one order for all rows (:func:`gate_scan_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# is_independent stays a module name: bench/tracing.py counts calls through it
from .constraints import OuterConstraint, independent_rows, is_independent  # noqa: F401
from .errors import as_ints
from .greedy import SlotSolution, check_solution_shape
from .lattice import scatter_columns
from .model import Instance
# map_blocks stays a module name: bench/tracing.py counts calls through it
from .parallel import map_blocks, mean_se, run_blocks  # noqa: F401
from .rounding import (
    BalancedCrs,
    BlockDraws,
    crs_keep_batch,
    draw_block,
    state_keep_batch,
)
from .seeds import derive_rng


@dataclass(frozen=True)
class PolicyTrace:
    """One policy run; ``selected`` and ``reads`` are in gate-scan order, other sets by index."""

    sampled: tuple[int, ...]
    kept: tuple[int, ...]
    start_times: dict  # kept item -> start slot
    selected: tuple[int, ...]
    reads: tuple[int, ...]
    utility: float
    spent: int


def gate_scan_batch(instance: Instance, states, kept, sol: SlotSolution):
    """The gate scan on every row of a block at once.

    Column c of the (R, n_s) arrays is item ``sol.support[c]``, which starts
    at ``sol.slots[c]``. The scan visits the columns once, in
    ``sol.scan_order`` ((start slot, index) order), and selects a row's kept
    item iff spent <= its slot. It works on (n_s, R) arrays, one row per
    column, and each column's step is one gate compare, written into the
    column's ``selected`` row; one gather of the states at the gate-passed
    rows through ``read``, the only place states are read and the read mask
    and ``revealed`` are set; and one gather-add of the column's revealed
    states' costs from its row of ``instance.padded_costs``, whose 0 at state
    0 leaves the other rows' spending as it was. Returns (R, n_s)
    ``selected``, ``reads`` and ``revealed`` (the states read, 0 elsewhere)
    and the (R,) ``spent``.
    """
    states = np.asarray(states).T
    support, slots = sol.support, sol.slots
    # a column's gate: spent <= its slot where the row keeps its item, never elsewhere
    limit = np.where(np.asarray(kept, dtype=bool).T, slots[:, None], -1)
    selected = np.zeros(limit.shape, dtype=bool)
    reads = np.zeros(limit.shape, dtype=bool)
    revealed = np.zeros(limit.shape, dtype=np.int64)
    spent = np.zeros(limit.shape[1], dtype=np.int64)
    cost_rows = instance.padded_costs[support]

    def read(r, c):
        reads[c][r] = True
        revealed[c][r] = states[c][r]

    for c in sol.scan_order.tolist():
        np.less_equal(spent, limit[c], out=selected[c])
        read(selected[c].nonzero()[0], c)
        spent += cost_rows[c].take(revealed[c])  # 0 at state 0: rows not read
    return selected.T, reads.T, revealed.T, spent


@dataclass(frozen=True)
class BlockRun:
    """Batched policy runs of one block: sampled, kept, gate scan and utilities.

    Column c of the (R, n_s) arrays is item ``sol.support[c]``.
    """

    sampled: np.ndarray  # (R, n_s) bool
    kept: np.ndarray  # (R, n_s) bool
    selected: np.ndarray  # (R, n_s) bool
    reads: np.ndarray  # (R, n_s) bool: where a state was read
    revealed: np.ndarray  # (R, n_s) the states read, 0 elsewhere
    spent: np.ndarray  # (R,) total realized cost
    utility: np.ndarray  # (R,)


def run_policy_batch(instance, f, outer, crs, sol, draws: BlockDraws) -> BlockRun:
    """The policy on every row of ``draws`` (drawn for ``sol.support``): sample,
    resolve, gate scan."""
    support = sol.support
    sampled = draws.u_sample < sol.marginals[support]
    kept = crs_keep_batch(crs, outer, sampled, lambda: draws.priorities, support)
    selected, reads, revealed, spent = gate_scan_batch(instance, draws.states, kept, sol)
    utility = np.asarray(f.value_batch_at(revealed, support), dtype=float)
    return BlockRun(sampled, kept, selected, reads, revealed, spent, utility)


def execute(
    instance: Instance,
    f,
    outer: OuterConstraint,
    crs: BalancedCrs,
    sol: SlotSolution,
    realization,
    seed: int,
) -> PolicyTrace:
    """One policy run against a fixed realization: :func:`run_policy_batch` on one row.

    The run's sample uniforms and priorities are the support columns of the
    two rows of ``derive_rng(seed, "policy").random((2, n))``, so a run does
    not depend on the support's width. The solution must fit the instance
    (:func:`greedy.check_solution_shape`); certifying it is the caller's step.
    The realization gives each item an integral state in 1..B: 2.0 reads as
    2, and 1.7 or ``True`` raises :class:`~errors.InvalidInputError`.
    """
    instance.require_valid()
    check_solution_shape(instance, sol)
    if np.shape(realization) != (instance.n,):
        raise ValueError(f"realization must assign each of the {instance.n} items a state in 1..B")
    states = np.array(as_ints(realization, "realization"), dtype=np.int64)
    if np.any(states < 1) or np.any(states > instance.B):
        raise ValueError("realization must assign each item a state in 1..B")
    support = sol.support
    u = derive_rng(seed, "policy").random((2, instance.n))[:, None, support]
    run = run_policy_batch(instance, f, outer, crs, sol, BlockDraws(states[None, support], *u))
    scan = sol.scan_order

    def items(mask, order=slice(None)):
        return tuple(int(i) for i in support[order][mask[order]])

    kept = items(run.kept[0])
    return PolicyTrace(
        sampled=items(run.sampled[0]),
        kept=kept,
        start_times=dict(zip(kept, sol.slots[run.kept[0]].tolist())),
        selected=items(run.selected[0], scan),
        reads=items(run.reads[0], scan),
        utility=float(run.utility[0]),
        spent=int(run.spent[0]),
    )


@dataclass(frozen=True)
class SimulationSummary:
    runs: int
    mean_utility: float
    se: float
    inner_violations: int
    outer_violations: int
    adaptivity_violations: int


def simulate_batch(
    instance: Instance,
    f,
    outer: OuterConstraint,
    crs: BalancedCrs,
    sol: SlotSolution,
    runs: int,
    seed: int,
) -> SimulationSummary:
    """Run the policy many times and tally utility plus constraint violations.

    A run violates the inner budget if it spends more than the budget, the outer
    family if its selected set is not in it, and adaptivity if the set of items
    whose states it read differs from its selected set. The batched gate scan
    marks a read only where it gathers a state, so the last tally reads 0 unless
    that gather moves; tests/test_kernel.py checks the read mask against a
    scalar reference's read log on identical draws.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs")
    instance.require_valid()
    check_solution_shape(instance, sol)

    def block(rng, start, size):
        d = draw_block(instance, rng, size, sol.support)
        run = run_policy_batch(instance, f, outer, crs, sol, d)
        return (
            size,
            float(run.utility.sum()),
            float(run.utility @ run.utility),
            int(np.count_nonzero(run.spent > instance.budget)),
            int(np.count_nonzero(~independent_rows(outer, run.selected, sol.support))),
            int(np.count_nonzero(np.any(run.reads != run.selected, axis=1))),
        )

    count, total, sumsq, inner, outside, adaptive = run_blocks("simulate", seed, runs, block)
    mean, se = mean_se(count, total, sumsq)
    return SimulationSummary(count, mean, se, inner, outside, adaptive)


@dataclass(frozen=True)
class DominanceReport:
    trials: int
    violations: tuple[dict, ...]
    # trials in which the scheme dropped a sampled item
    dropped: int

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

    Each trial shares one realization, one sampled set and one set-level
    scheme outcome between (a) a policy run and (b) the combined pruning of
    the thinned state vector; both read the solution's start slots. The policy's
    selection must cover the pruned support coordinatewise, hence its utility
    must be at least the pruned vector's utility. Raises ``ValueError`` for
    ``trials < 1`` (:func:`parallel.run_blocks`).
    """
    instance.require_valid()
    check_solution_shape(instance, sol)
    support, n = sol.support, instance.n

    def ids(row):
        return [int(i) + 1 for i in support[row]]

    def block(rng, start, size):
        d = draw_block(instance, rng, size, support)
        run = run_policy_batch(instance, f, outer, crs, sol, d)
        v, sched = state_keep_batch("schedule", instance, outer, crs, sol, d)
        pruned = np.where(run.kept & sched, v, 0)
        pruned_utility = np.asarray(f.value_batch_at(pruned, support), dtype=float)
        covered = np.all((pruned == 0) | (run.revealed == pruned), axis=1)
        bad = ~covered | (run.utility < pruned_utility - 1e-12)
        violations = []
        for r in np.flatnonzero(bad):
            # width n; 0 marks an item outside the support, whose state is never drawn
            realization, policy_vector, pruned_vector = scatter_columns(
                np.stack([d.states[r], run.revealed[r], pruned[r]]), support, n
            ).tolist()
            violations.append(
                {
                    "trial": start + int(r),
                    "realization": realization,
                    "sampled": ids(run.sampled[r]),
                    "kept": ids(run.kept[r]),
                    "times": {
                        int(support[c]) + 1: int(sol.slots[c])
                        for c in np.flatnonzero(run.sampled[r])
                    },
                    "selected": ids(run.selected[r]),
                    "policy_vector": policy_vector,
                    "pruned_vector": pruned_vector,
                    "policy_utility": float(run.utility[r]),
                    "pruned_utility": float(pruned_utility[r]),
                }
            )
        return int(np.any(run.sampled != run.kept, axis=1).sum()), violations

    dropped, violations = run_blocks("dominance", seed, trials, block)
    return DominanceReport(trials=trials, violations=tuple(violations), dropped=dropped)
