"""Ground-truth computations at tiny scale.

The optimal adaptive policy is found by exhaustive recursion over decision
states (the set of selected items together with their observed states), and
arbitrary decision trees are evaluated exactly by enumerating realization
branches. An item is admissible only if selecting it can never overshoot the
budget, i.e. its worst positive-probability cost fits the remaining budget,
and the enlarged set stays in the outer family. Stopping is always allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import OuterConstraint, is_independent
from .errors import EnumerationLimitError
from .model import Instance
from .seeds import derive_rng

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


def policy_tree_value(instance: Instance, f, outer: OuterConstraint, tree: dict) -> float:
    """Exact expected utility of a decision tree; rejects infeasible actions."""
    instance.require_valid()
    _guard(instance)
    worst = _support_max_costs(instance)

    def walk(node: dict, assignment: frozenset) -> float:
        action = node.get("action")
        if action is None:
            return float(f.value(_assignment_vector(instance, assignment)))
        i = int(action) - 1
        selected = {j for j, _ in assignment}
        spent = sum(instance.cost_matrix[j, s - 1] for j, s in assignment)
        if i in selected:
            raise ValueError(f"tree selects item {action} twice")
        if worst[i] > instance.budget - spent:
            raise ValueError(f"tree action {action} can overshoot the budget")
        if not is_independent(outer, selected | {i}):
            raise ValueError(f"tree action {action} leaves the outer family")
        total = 0.0
        branches = node.get("branches", {})
        for s in range(1, instance.B + 1):
            p = instance.items[i].probs[s - 1]
            if p == 0:
                continue
            child = branches.get(str(s))
            if child is None:
                raise ValueError(f"tree action {action} misses branch for state {s}")
            total += p * walk(child, assignment | {(i, s)})
        return total

    return walk(tree, frozenset())


def random_feasible_tree(
    instance: Instance, outer: OuterConstraint, seed: int, stop_prob: float = 0.3
) -> dict:
    """A random decision tree that only ever takes admissible actions."""
    instance.require_valid()
    _guard(instance)
    worst = _support_max_costs(instance)
    rng = derive_rng(seed, "random-tree")

    def build(assignment: frozenset) -> dict:
        selected = {i for i, _ in assignment}
        spent = sum(instance.cost_matrix[i, s - 1] for i, s in assignment)
        admissible = [
            i
            for i in range(instance.n)
            if i not in selected
            and worst[i] <= instance.budget - spent
            and is_independent(outer, selected | {i})
        ]
        if not admissible or rng.random() < stop_prob:
            return {"action": None}
        i = admissible[int(rng.integers(len(admissible)))]
        branches = {
            str(s): build(assignment | {(i, s)})
            for s in range(1, instance.B + 1)
            if instance.items[i].probs[s - 1] > 0
        }
        return {"action": i + 1, "branches": branches}

    return build(frozenset())
