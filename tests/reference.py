"""Step-by-step references for the package's batched code paths.

* :func:`greedy_steps`, the continuous greedy one step at a time: one gain
  call per step, then a one-objective certificate of the previous answer
  and, if it fails, a cold ``solve_lp`` call, for tests/test_greedy.py to
  compare with ``greedy.run_continuous_greedy``, which rides each certified
  vertex over all the remaining steps at once.
* A set-based scalar reference of the rounding (sample, prune, gate scan), independent of the package's one batched kernel
  (``policy.run_policy_batch``), for tests/test_kernel.py to compare on
  identical draws; its priority scheme is :func:`greedy_keep`, a scan
  against the independence oracle.
* The instance parser and validator one field and one item at a time
  (:func:`instance_from_json_by_field`, :func:`validate_instance_by_item`),
  for tests/test_model.py to compare with ``model``'s sweeps over whole lists.
* Code only tests call: the expected set value, exact and Monte Carlo, the
  exact multilinear extension, the set-level scheme's exact keep rate by
  enumeration of sampled sets and priority orders (:func:`exact_set_keep_rate`,
  for ``rounding.exact_set_keep_rate``'s tests), and, for the exact oracle's
  tests, the optimal policy by recursion over decision states
  (:func:`optimal_policy_by_recursion`, the reference that
  ``oracle.optimal_policy_value``'s table is held to) and exact evaluation and
  random generation of decision trees.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from stochsubmax import lattice
from stochsubmax.constraints import OuterConstraint, is_independent, outer_from_json, validate_outer
from stochsubmax.errors import (EnumerationLimitError, LpCertificateError, as_int, json_number,
                                required)
from stochsubmax.extensions import check_marginals
from stochsubmax.greedy import estimate_marginal_gains
from stochsubmax.lp import build_slot_program, certify_optimal, solve_lp
from stochsubmax.model import PROB_TOL, Instance, ItemModel, sample_realization_batch
from stochsubmax.oracle import ORACLE_GUARD
from stochsubmax.parallel import mean_se, run_blocks
from stochsubmax.seeds import derive_rng

SET_ENUM_GUARD = 10**6
MULTILINEAR_GUARD_N = 10
MULTILINEAR_GUARD_STATES = 10**4


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
        certify_optimal(objective, program.row_coeffs, program.row_bounds, answer.values,
                        answer.basis)
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


def greedy_keep(outer: OuterConstraint, members, priorities) -> set:
    """Scan members by increasing priority, keeping an item iff it stays independent."""
    kept: set = set()
    for i in sorted(members, key=lambda i: (priorities[i], i)):
        if is_independent(outer, kept | {i}):
            kept.add(i)
    return kept


def keep(crs, outer, members, priorities) -> set:
    """Resolve a sampled set with explicit per-item priorities (deterministic)."""
    members = set(members)
    if crs.kind == "identity":
        if not is_independent(outer, members):
            raise ValueError("identity scheme got a set outside the outer family")
        return members
    return greedy_keep(outer, members, priorities)


def exact_set_keep_rate(crs, outer, marginals) -> np.ndarray:
    """Each item's exact Pr[kept | sampled] under the set-level scheme, by brute force.

    Goes over every set S of positive-marginal items, of probability
    prod_{i in S} y_i prod_{j not in S} (1 - y_j), and every order of S's
    priorities, each of probability 1 / |S|!, and resolves S by :func:`keep`.
    An item's kept mass over its marginal is its rate; an item of marginal 0
    is never sampled and gets 1. The identity scheme raises ``ValueError`` on
    the first set outside the family.
    """
    y = np.asarray(marginals, dtype=float)
    support = np.flatnonzero(y > 0).tolist()
    kept_mass = np.zeros(len(y))
    for size in range(len(support) + 1):
        for members in itertools.combinations(support, size):
            weight = math.prod(y[i] if i in members else 1.0 - y[i] for i in support)
            weight /= math.factorial(size)
            for order in itertools.permutations(members):
                priorities = dict(zip(order, range(size)))
                for i in keep(crs, outer, members, priorities):
                    kept_mass[i] += weight
    gamma = np.ones(len(y))
    gamma[support] = kept_mass[support] / y[support]
    return gamma


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


def _run_policy(instance, f, outer, crs, sol, thinned, priorities):
    """One traced run on an explicit width-n thinned state row and priorities.

    This is the scalar reference for ``policy.run_policy_batch`` on identical
    draws: ``thinned`` holds the realized state of each sampled item and 0
    elsewhere (the kernel's support-width block of ``rounding.draw_block`` put
    in its items' entries), and the sampled set is its nonzero entries.
    """
    reveal = RevealLog(thinned)
    sampled = [int(i) for i in np.flatnonzero(thinned)]
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


def instance_from_json_by_field(text: str) -> Instance:
    """``model.instance_from_json`` read one field at a time, each item's
    probabilities and then its costs, in item order."""
    doc = json.loads(text)
    items = tuple(
        ItemModel(
            probs=tuple(
                json_number(p, f"items[{i}].probs[{s}]")
                for s, p in enumerate(required(it, "probs", f"items[{i}].probs"))
            ),
            costs=tuple(
                as_int(c, f"items[{i}].costs[{s}]")
                for s, c in enumerate(required(it, "costs", f"items[{i}].costs"))
            ),
        )
        for i, it in enumerate(required(doc, "items", "items"))
    )
    n = as_int(required(doc, "n", "n"), "n")
    return Instance(
        n=n,
        B=as_int(required(doc, "B", "B"), "B"),
        budget=as_int(required(doc, "budget", "budget"), "budget"),
        items=items,
        outer=outer_from_json(required(doc, "outer", "outer"), n),
        utility=lattice.make_utility(required(doc, "utility", "utility"), n),
    )


def validate_instance_by_item(instance: Instance) -> list[str]:
    """``model.validate_instance`` one item at a time, in scalar Python."""
    out: list[str] = []
    if instance.n < 1:
        out.append("item count must be at least 1")
    if instance.B < 1:
        out.append("state count must be at least 1")
    if len(instance.items) != instance.n:
        out.append(f"expected {instance.n} items, got {len(instance.items)}")
    if not (isinstance(instance.budget, (int, np.integer)) and instance.budget >= 1):
        out.append(f"budget must be a positive integer, got {instance.budget!r}")
    for idx, item in enumerate(instance.items):
        label = f"item {idx + 1}"
        if len(item.probs) != instance.B:
            out.append(f"{label}: expected {instance.B} state probabilities")
            continue
        if len(item.costs) != instance.B:
            out.append(f"{label}: expected {instance.B} state costs")
            continue
        if not all(math.isfinite(p) for p in item.probs):
            out.append(f"{label}: non-finite state probability")
        else:
            if any(p < 0 for p in item.probs):
                out.append(f"{label}: negative state probability")
            total = sum(item.probs)
            if abs(total - 1.0) > PROB_TOL:
                out.append(f"{label}: distribution sums to {total!r}")
        if any(not isinstance(c, (int, np.integer)) or c < 1 for c in item.costs):
            out.append(f"{label}: state costs must be integers >= 1")
        elif any(a > b for a, b in zip(item.costs, item.costs[1:])):
            out.append(f"{label}: state costs must be nondecreasing in the state")
    out.extend(validate_outer(instance.outer, instance.n))
    try:
        if instance.utility.n != instance.n:
            out.append(
                f"utility is over {instance.utility.n} items, instance has {instance.n}"
            )
    except Exception as exc:  # malformed oracle object
        out.append(f"utility oracle is unusable: {exc}")
    return out


def expected_set_value_exact(instance: Instance, f, items) -> float:
    """E[f(states on ``items``, zero elsewhere)] by full enumeration of joint states."""
    idx = sorted(set(items))
    if instance.B ** len(idx) > SET_ENUM_GUARD:
        raise EnumerationLimitError(
            f"B^|S| = {instance.B ** len(idx)} exceeds the guard {SET_ENUM_GUARD}"
        )
    if not idx:
        return float(f.value(np.zeros(instance.n, dtype=np.int64)))
    probs = instance.prob_matrix
    total = 0.0
    for combo in itertools.product(range(1, instance.B + 1), repeat=len(idx)):
        weight = 1.0
        for pos, i in enumerate(idx):
            weight *= probs[i, combo[pos] - 1]
        if weight == 0.0:
            continue
        u = np.zeros(instance.n, dtype=np.int64)
        u[idx] = combo
        total += weight * float(f.value(u))
    return total


def expected_set_value_mc(
    instance: Instance, f, items, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the expected set value, with its standard error."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    idx = sorted(set(items))

    def block(rng, start, size):
        states = sample_realization_batch(instance, rng, size)
        masked = np.zeros_like(states)
        if idx:
            masked[:, idx] = states[:, idx]
        vals = np.asarray(f.value_batch(masked), dtype=float)
        return size, float(vals.sum()), float((vals * vals).sum())

    return mean_se(*run_blocks("set-value", seed, samples, block))


def multilinear_exact(instance: Instance, f, marginals) -> float:
    """Exact extension value: expectation over the random set drawn from the marginals.

    Enumerates all 2^n item sets and, inside each, all joint states; guarded to
    small n and B^n.
    """
    x = check_marginals(instance, marginals)
    if x.ndim != 1:
        raise ValueError(f"expected {instance.n} marginals, got shape {x.shape}")
    if instance.n > MULTILINEAR_GUARD_N or instance.B**instance.n > MULTILINEAR_GUARD_STATES:
        raise EnumerationLimitError(
            f"multilinear enumeration guard: n <= {MULTILINEAR_GUARD_N} "
            f"and B^n <= {MULTILINEAR_GUARD_STATES}"
        )
    total = 0.0
    for subset in itertools.product((0, 1), repeat=instance.n):
        weight = 1.0
        for i, inc in enumerate(subset):
            weight *= x[i] if inc else 1.0 - x[i]
        if weight == 0.0:
            continue
        members = [i for i, inc in enumerate(subset) if inc]
        total += weight * expected_set_value_exact(instance, f, members)
    return total


def _guard(instance: Instance):
    """The exact oracle's refusal, so that the recursion reaches what the table does."""
    if (instance.B + 1) ** instance.n > ORACLE_GUARD:
        raise EnumerationLimitError(
            f"(B+1)^n = {(instance.B + 1) ** instance.n} exceeds the exact oracle's state "
            f"guard {ORACLE_GUARD}"
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


@dataclass(frozen=True)
class RecursionResult:
    """The optimum by recursion: its value, first action (0-based, None to stop), tree,
    and the root's choices, ``{None: f(empty), i: expected value of selecting i}``
    over the admissible items i."""

    value: float
    first_action: int | None
    tree: dict
    root_values: dict


def optimal_policy_by_recursion(
    instance: Instance, f, outer: OuterConstraint
) -> RecursionResult:
    """The best feasible adaptive policy by memoised recursion over decision states,
    each a frozenset of (item, observed state) pairs, for ``oracle.optimal_policy_value``'s
    tests: one ``f.value`` call, one ``is_independent`` call per item and a Python cost
    sum per state, the items scanned in order and a later one taken only if strictly
    better, stopping kept on ties."""
    instance.require_valid()
    _guard(instance)
    worst = _support_max_costs(instance)
    memo: dict = {}

    def choices(assignment: frozenset) -> dict:
        selected = {i for i, _ in assignment}
        spent = sum(instance.cost_matrix[i, s - 1] for i, s in assignment)
        remaining = instance.budget - spent
        out = {None: float(f.value(_assignment_vector(instance, assignment)))}
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
            out[i] = value
        return out

    def solve(assignment: frozenset) -> tuple[float, int | None]:
        hit = memo.get(assignment)
        if hit is not None:
            return hit
        best, action = None, None
        for i, value in choices(assignment).items():
            if best is None or value > best:
                best, action = value, i
        memo[assignment] = (best, action)
        return best, action

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

    value, first = solve(frozenset())
    return RecursionResult(value, first, build(frozenset()), choices(frozenset()))


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
