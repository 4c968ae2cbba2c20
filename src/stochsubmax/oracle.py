"""The optimal adaptive policy, exactly, as one backward table.

A decision state is a state vector u in {0, ..., B}^n: u_i is 0 while item i
is unselected and its observed state once selected. Selecting item i at u is
admissible only if it can never overshoot the budget, i.e. its worst
positive-probability cost fits the budget left after the observed costs, and
the enlarged set stays in the outer family. Stopping is always allowed. The
best value from u is

    V[u] = max(f(u), max over admissible i of sum_s p_is V[u + s e_i]),

and V[0] is the optimum. :func:`optimal_policy_value` fills V over all
(B+1)^n state vectors at once: one ``value_batch`` call over the lattice,
the budget left at every state from ``Instance.padded_costs``, and the
admissible (state, item) pairs from the worst costs and the rows of
``OuterConstraint.hull``, all as array calls over per-(n, B) lattice tables
that are built once. Sweeps then apply the right side to every admissible
pair at once and raise each state's entry to its pairs' maximum. A selection
only adds items, so a sweep makes one more layer of states final, the
deepest first: with L the most items selected at a state with an admissible
item (L < n), L + 1 sweeps leave every value final. Each pair value adds its
states' terms in the order s = 1, ..., B. The best action at a state is the
first admissible item, in item order, whose value is the state's best, and
stopping where no item beats it.

Instances over ``ORACLE_GUARD`` state vectors are refused
(``EnumerationLimitError``). The decision tree is read off the table only
when ``OracleResult.tree`` is asked for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

# is_independent stays a module name: bench/tracing.py counts calls through it
from .constraints import OuterConstraint, is_independent  # noqa: F401
from .errors import EnumerationLimitError
from .model import Instance

# most state vectors (B+1)^n the table holds: n = 8 at B = 3
ORACLE_GUARD = 4**8


class _Table(NamedTuple):
    """The solved table and its admissible (state, item) pairs, item by item."""

    stop: np.ndarray  # (S,) f at every state vector
    best: np.ndarray  # (S,) V at every state vector
    rows: np.ndarray  # state of each pair
    items: np.ndarray  # item of each pair
    values: np.ndarray  # each pair's expected value of selecting its item
    steps: np.ndarray  # (B, n) row step from u to u + s e_i
    probs: np.ndarray  # (n, B) state probabilities

    def actions(self) -> np.ndarray:
        """Each state's best item, the first whose value is the state's best and beats
        stopping, or n where stopping is as good."""
        hit = (self.values == self.best[self.rows]) & (self.values > self.stop[self.rows])
        out = np.full(len(self.stop), len(self.probs))
        np.minimum.at(out, self.rows[hit], self.items[hit])
        return out

    def tree(self) -> dict:
        actions = self.actions()

        def node(u: int) -> dict:
            i = int(actions[u])
            if i == len(self.probs):
                return {"action": None}
            branches = {
                str(s): node(u + int(self.steps[s - 1, i]))
                for s in range(1, self.probs.shape[1] + 1)
                if self.probs[i, s - 1] > 0
            }
            return {"action": i + 1, "branches": branches}

        return node(0)


@dataclass(frozen=True)
class OracleResult:
    value: float
    first_action: int | None  # 0-based item, None when stopping immediately is optimal
    table: _Table = field(repr=False, compare=False)

    @cached_property
    def tree(self) -> dict:
        """The optimal decision tree: ``{"action": None}`` to stop, else ``{"action": i,
        "branches": {"s": subtree}}`` for 1-based item i and each state s of positive
        probability."""
        return self.table.tree()


@functools.lru_cache(maxsize=16)
def _lattice(n: int, B: int) -> tuple[np.ndarray, ...]:
    """Read-only tables of the S = (B+1)^n state vectors of {0, ..., B}^n, in
    lexicographic order, so that u + s e_i is row u + s (B+1)^(n-1-i): the (S, n)
    vectors; their (n, S) cells ``i (B+1) + u_i`` of a flattened (n, B+1) table;
    the (n, S) masks of u_i = 0 (booleans) and of u_i > 0 (floats, for the hull
    rows' product); the (S,) count of items selected; and the (B, n) row steps
    s (B+1)^(n-1-i)."""
    strides = (B + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    states = np.arange((B + 1) ** n, dtype=np.int64)[:, None] // strides % (B + 1)
    cells = states.T + (B + 1) * np.arange(n, dtype=np.int64)[:, None]
    free = states.T == 0
    selected = (~free).astype(float)
    levels = np.count_nonzero(states, axis=1)
    steps = np.arange(1, B + 1, dtype=np.int64)[:, None] * strides
    tables = (states, cells, free, selected, levels, steps)
    for a in tables:
        a.flags.writeable = False
    return tables


def optimal_policy_value(instance: Instance, f, outer: OuterConstraint) -> OracleResult:
    """Value and decision tree of the best feasible adaptive policy."""
    instance.require_valid()
    n, B = instance.n, instance.B
    if (B + 1) ** n > ORACLE_GUARD:
        raise EnumerationLimitError(
            f"(B+1)^n = {(B + 1) ** n} exceeds the exact oracle's state guard {ORACLE_GUARD}"
        )
    states, cells, free, selected, levels, steps = _lattice(n, B)
    probs = instance.prob_matrix
    stop = np.asarray(f.value_batch(states), dtype=float)
    left = instance.budget - instance.padded_costs.take(cells).sum(axis=0)
    worst = np.max(instance.cost_matrix, axis=1, where=probs > 0, initial=0)
    admissible = free & (worst[:, None] <= left)
    a, bounds = outer.hull
    for row, room in zip(a, bounds[:, None] - a @ selected):
        admissible &= row[:, None] <= room
    items, rows = np.divmod(np.flatnonzero(admissible), len(stop))
    # (B, P) in C order, so that the reduction over s adds whole rows in order
    weights = probs.T.take(items, axis=1)
    targets = rows + steps.take(items, axis=1)
    best = stop.copy()
    values = np.zeros(0)
    # the right side is monotone in V, so a sweep's pair values never fall: the running
    # maximum of V's entries is the last sweep's maximum
    for _ in range(levels[rows].max(initial=-1) + 1):
        values = np.add.reduce(weights * best[targets], axis=0)
        np.maximum.at(best, rows, values)
    table = _Table(stop, best, rows, items, values, steps, probs)
    first = int(table.actions()[0])
    return OracleResult(float(best[0]), first if first < n else None, table)
