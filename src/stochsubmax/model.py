"""Items, state distributions, state-dependent costs, and instance files.

An instance holds ``n`` items, each with a distribution over states 1..B and a
positive integer cost per state that is nondecreasing in the state (a better
state costs more), plus an integer budget and an outer constraint over item
sets. States, costs, and the budget share one integer "time" scale: an item
whose worst-state cost already exceeds the remaining horizon can never be
scheduled, so its start-slot set is empty.

Instances serialize to a single JSON document (see :func:`instance_to_json`);
item ids inside the JSON are 1-based, in-memory arrays are 0-based.

Parsing and validation sweep whole lists and name items only on failure.
The parser makes one type sweep over all probabilities and one over all
costs and keeps the lists as they are; a document that fails a sweep is
read again field by field, so that the error names the first bad field
(``items[i].costs[s]``). The validator makes one sweep per check over
the chained item lists: item shapes, each item's probability sum, the
smallest probability, cost types, the smallest cost and each item's cost
order. Only when one of them fails does it go over the items to name every
one at fault, in item order (``item 3: ...``). Neither builds the (n, B)
``prob_matrix`` or ``cost_matrix``; those are built when first read.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice
from .constraints import OuterConstraint, outer_from_json, outer_to_json, validate_outer
from .errors import as_int, cached_array, json_number, required
from .lattice import UtilityOracle
from .seeds import derive_rng

PROB_TOL = 1e-12


@dataclass(frozen=True)
class ItemModel:
    """One item: probs[s-1] = P[state = s], costs[s-1] = cost at state s."""

    probs: tuple[float, ...]
    costs: tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    n: int
    B: int
    budget: int
    items: tuple[ItemModel, ...]
    outer: OuterConstraint
    utility: UtilityOracle

    @cached_property
    def violations(self) -> tuple[str, ...]:
        return tuple(validate_instance(self))

    @cached_array
    def cost_matrix(self) -> np.ndarray:
        """(n, B) integer costs, row i gives costs of item i at states 1..B."""
        return np.array([it.costs for it in self.items], dtype=np.int64)

    @cached_array
    def padded_costs(self) -> np.ndarray:
        """Read-only (n, B + 1) integer costs at states 0..B: column 0 is 0, the cost of
        an item whose state is not drawn, and column s is ``cost_matrix[:, s - 1]``."""
        out = np.zeros((self.n, self.B + 1), dtype=np.int64)
        out[:, 1:] = self.cost_matrix
        return out

    @cached_array
    def float_costs(self) -> np.ndarray:
        """Read-only ``padded_costs`` as floats, for the schedule map's float product."""
        out = np.zeros((self.n, self.B + 1))
        out[:, 1:] = self.cost_matrix
        return out

    @cached_array
    def prob_matrix(self) -> np.ndarray:
        return np.array([it.probs for it in self.items], dtype=float)

    @cached_array
    def state_cum_probs(self) -> np.ndarray:
        """(n, B) cumulative state probabilities, for inverse-CDF sampling."""
        return np.cumsum(self.prob_matrix, axis=1)

    @cached_array
    def state_tails(self) -> np.ndarray:
        """(B, n) tail probabilities: row s - 1 is P(state >= s), the sum of the
        probabilities of states s..B taken from the top down; row 0 is exactly 1."""
        out = np.cumsum(self.prob_matrix[:, ::-1], axis=1).T[::-1]
        out[0] = 1.0
        return out

    @cached_array
    def truncated_costs(self) -> np.ndarray:
        """(n, budget) table: entry (i, t - 1) is E[min(cost of item i, t)] for t = 1..budget.

        Summed state by state in order, so each entry equals
        :func:`expected_truncated_cost` of item i at t bit for bit.
        """
        times = np.arange(1, self.budget + 1)
        out = np.zeros((self.n, self.budget))
        for state in range(self.B):
            out += self.prob_matrix[:, state, None] * np.minimum(
                self.cost_matrix[:, state, None], times
            )
        return out

    @cached_array
    def slot_counts(self) -> np.ndarray:
        """Number of feasible start slots per item: max(0, budget - cost at top state)."""
        return np.maximum(0, self.budget - self.cost_matrix[:, -1])

    def require_valid(self):
        if self.violations:
            raise ValueError("invalid instance: " + "; ".join(self.violations))


def validate_instance(instance: Instance) -> list[str]:
    """Collect every invariant violation; an empty list means the instance is valid.

    The items' violations (:func:`_item_violations`) come in item order.
    """
    out: list[str] = []
    if instance.n < 1:
        out.append("item count must be at least 1")
    if instance.B < 1:
        out.append("state count must be at least 1")
    if len(instance.items) != instance.n:
        out.append(f"expected {instance.n} items, got {len(instance.items)}")
    if not (isinstance(instance.budget, (int, np.integer)) and instance.budget >= 1):
        out.append(f"budget must be a positive integer, got {instance.budget!r}")
    out.extend(_item_violations(instance))
    out.extend(validate_outer(instance.outer, instance.n))
    try:
        if instance.utility.n != instance.n:
            out.append(
                f"utility is over {instance.utility.n} items, instance has {instance.n}"
            )
    except Exception as exc:  # malformed oracle object
        out.append(f"utility oracle is unusable: {exc}")
    return out


def _item_violations(instance: Instance) -> list[str]:
    """The items' violations, in item order.

    A valid instance passes in one sweep over each kind of check: every item
    has B probabilities and B costs, each item's ``sum`` of its own
    probabilities is within ``PROB_TOL`` of 1, the smallest probability of
    them all is nonnegative (so that, with the sums, all are finite), one
    type sweep finds every cost an integer, the smallest is at least 1 and
    each item's costs are sorted. Only an instance that fails a sweep, or
    holds values it cannot compare, is gone over item by item to name every
    item at fault.
    """
    items, B = instance.items, instance.B
    probs, costs = [it.probs for it in items], [it.costs for it in items]
    try:
        kinds = set(map(type, itertools.chain.from_iterable(costs)))
        if (
            all(len(p) == len(c) == B for p, c in zip(probs, costs))
            and all(abs(t - 1.0) <= PROB_TOL for t in map(sum, probs))
            and min(itertools.chain.from_iterable(probs), default=0.0) >= 0
            and (kinds <= {int} or all(issubclass(k, (int, np.integer)) for k in kinds))
            and min(itertools.chain.from_iterable(costs), default=1) >= 1
            and all(list(c) == sorted(c) for c in costs)
        ):
            return []
    except (TypeError, ValueError, OverflowError):
        pass  # a value the sweeps cannot compare: the loop below meets it as before
    out: list[str] = []
    for idx, item in enumerate(items):
        label = f"item {idx + 1}"
        if len(item.probs) != B:
            out.append(f"{label}: expected {B} state probabilities")
            continue
        if len(item.costs) != B:
            out.append(f"{label}: expected {B} state costs")
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
    return out


def sample_realization(instance: Instance, seed: int) -> np.ndarray:
    """Draw one state per item from the product distribution; 1..B entries.

    Bit-identical output for identical (instance, seed).
    """
    instance.require_valid()
    return sample_realization_batch(instance, derive_rng(seed, "realization"), 1)[0]


def sample_realization_batch(
    instance: Instance, rng: np.random.Generator, count: int
) -> np.ndarray:
    """(count, n) matrix of independent realizations, one per row.

    Entry (r, i) is 1 plus the number of the first B - 1 cumulative
    probabilities of item i at or below its uniform: the inverse CDF of the
    item's state distribution.
    """
    cum_probs = instance.state_cum_probs
    u = rng.random((count, len(cum_probs)))
    states = np.ones(u.shape, dtype=np.int64)
    for s in range(cum_probs.shape[1] - 1):
        states += cum_probs[:, s] <= u
    return states


def expected_truncated_cost(item: ItemModel, t: float) -> float:
    """E[min(cost at the realized state, t)] for one item."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(sum(p * min(c, t) for p, c in zip(item.probs, item.costs)))


def instance_to_json(instance: Instance) -> str:
    doc = {
        "n": instance.n,
        "B": instance.B,
        "budget": instance.budget,
        "items": [
            {"probs": list(it.probs), "costs": list(it.costs)} for it in instance.items
        ],
        "outer": outer_to_json(instance.outer),
        "utility": lattice.utility_descriptor(instance.utility),
    }
    return json.dumps(doc) + "\n"


def instance_from_json(text: str) -> Instance:
    """Parse an instance document; non-integral counts, costs or ids raise ``InvalidInputError``."""
    doc = json.loads(text)
    items = _items_from_json(required(doc, "items", "items"))
    n = as_int(required(doc, "n", "n"), "n")
    return Instance(
        n=n,
        B=as_int(required(doc, "B", "B"), "B"),
        budget=as_int(required(doc, "budget", "budget"), "budget"),
        items=items,
        outer=outer_from_json(required(doc, "outer", "outer"), n),
        utility=lattice.make_utility(required(doc, "utility", "utility"), n),
    )


def _items_from_json(docs) -> tuple[ItemModel, ...]:
    """The items of a document: probabilities as given, costs as ints.

    One type sweep over all probabilities and one over all costs: if every
    probability is a JSON number and every cost a JSON integer, the lists are
    taken as they are. Otherwise the fields are read one at a time, item by
    item, and the first that is not a number (a probability) or not integral
    (a cost) raises ``InvalidInputError`` naming it, ``items[i].costs[s]``;
    an integral float cost such as 3.0 becomes 3.
    """
    try:
        probs = [it["probs"] for it in docs]
        costs = [it["costs"] for it in docs]
        plain = set(map(type, itertools.chain.from_iterable(probs))) <= {int, float} and set(
            map(type, itertools.chain.from_iterable(costs))) <= {int}
    except (KeyError, TypeError):
        plain = False  # a malformed item: the reads below raise as they reach it
    if plain:
        return tuple(ItemModel(tuple(p), tuple(c)) for p, c in zip(probs, costs))
    return tuple(
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
        for i, it in enumerate(docs)
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(instance: Instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))
