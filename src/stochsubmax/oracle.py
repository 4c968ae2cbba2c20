"""Ground-truth computations at tiny scale.

The optimal adaptive policy is found by exhaustive recursion over decision
states (the set of selected items together with their observed states). An
item is admissible only if selecting it can never overshoot the budget, i.e.
its worst positive-probability cost fits the remaining budget, and the
enlarged set stays in the outer family. Stopping is always allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import OuterConstraint, is_independent
from .errors import EnumerationLimitError
from .model import Instance

ORACLE_GUARD_N = 5
ORACLE_GUARD_B = 3


@dataclass(frozen=True)
class OracleResult:
    value: float
    first_action: int | None  # 0-based item, None when stopping immediately is optimal
    tree: dict


def _guard(instance: Instance):
    if instance.n > ORACLE_GUARD_N or instance.B > ORACLE_GUARD_B:
        raise EnumerationLimitError(
            f"exact policy recursion is limited to n <= {ORACLE_GUARD_N}, "
            f"B <= {ORACLE_GUARD_B}"
        )


def _support_max_costs(instance: Instance) -> list[int]:
    out = []
    for item in instance.items:
        costs = [c for p, c in zip(item.probs, item.costs) if p > 0]
        out.append(max(costs) if costs else 0)
    return out


def _assignment_vector(instance: Instance, assignment) -> np.ndarray:
    vec = np.zeros(instance.n, dtype=np.int64)
    for i, s in assignment:
        vec[i] = s
    return vec


def optimal_policy_value(instance: Instance, f, outer: OuterConstraint) -> OracleResult:
    """Value and decision tree of the best feasible adaptive policy."""
    instance.require_valid()
    _guard(instance)
    worst = _support_max_costs(instance)
    memo: dict = {}

    def solve(assignment: frozenset) -> tuple[float, int | None]:
        hit = memo.get(assignment)
        if hit is not None:
            return hit
        selected = {i for i, _ in assignment}
        spent = sum(instance.cost_matrix[i, s - 1] for i, s in assignment)
        remaining = instance.budget - spent
        best = float(f.value(_assignment_vector(instance, assignment)))
        action: int | None = None
        for i in range(instance.n):
            if i in selected or worst[i] > remaining:
                continue
            if not is_independent(outer, selected | {i}):
                continue
            value = 0.0
            for s in range(1, instance.B + 1):
                p = instance.items[i].probs[s - 1]
                if p == 0:
                    continue
                value += p * solve(assignment | {(i, s)})[0]
            if value > best:
                best = value
                action = i
        memo[assignment] = (best, action)
        return best, action

    value, first = solve(frozenset())

    def build(assignment: frozenset) -> dict:
        _, action = solve(assignment)
        if action is None:
            return {"action": None}
        branches = {
            str(s): build(assignment | {(action, s)})
            for s in range(1, instance.B + 1)
            if instance.items[action].probs[s - 1] > 0
        }
        return {"action": action + 1, "branches": branches}

    return OracleResult(value=value, first_action=first, tree=build(frozenset()))
