"""Items, state distributions, state-dependent costs, and instance files.

An instance holds ``n`` items, each with a distribution over states 1..B and a
positive integer cost per state that is nondecreasing in the state (a better
state costs more), plus an integer budget and an outer constraint over item
sets. States, costs, and the budget share one integer "time" scale: an item
whose worst-state cost already exceeds the remaining horizon can never be
scheduled, so its start-slot set is empty.

Instances serialize to a single JSON document (see :func:`instance_to_json`);
item ids inside the JSON are 1-based, in-memory arrays are 0-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice
from .constraints import OuterConstraint, outer_from_json, outer_to_json, validate_outer
from .errors import as_int, json_number
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

    @cached_property
    def cost_matrix(self) -> np.ndarray:
        """(n, B) integer costs, row i gives costs of item i at states 1..B."""
        return np.array([it.costs for it in self.items], dtype=np.int64)

    @cached_property
    def prob_matrix(self) -> np.ndarray:
        return np.array([it.probs for it in self.items], dtype=float)

    @cached_property
    def state_cum_probs(self) -> np.ndarray:
        """(n, B) cumulative state probabilities, for inverse-CDF sampling."""
        return np.cumsum(self.prob_matrix, axis=1)

    @cached_property
    def slot_counts(self) -> np.ndarray:
        """Number of feasible start slots per item: max(0, budget - cost at top state)."""
        return np.maximum(0, self.budget - self.cost_matrix[:, -1])

    def require_valid(self):
        if self.violations:
            raise ValueError("invalid instance: " + "; ".join(self.violations))


def validate_instance(instance: Instance) -> list[str]:
    """Collect every invariant violation; an empty list means the instance is valid."""
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


def sample_realization(instance: Instance, seed: int) -> np.ndarray:
    """Draw one state per item from the product distribution; 1..B entries.

    Bit-identical output for identical (instance, seed).
    """
    instance.require_valid()
    rng = derive_rng(seed, "realization")
    return sample_realization_rng(instance, rng)


def sample_realization_rng(instance: Instance, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(instance.n)
    cum = instance.state_cum_probs
    states = np.empty(instance.n, dtype=np.int64)
    for i in range(instance.n):
        states[i] = 1 + int(np.searchsorted(cum[i], u[i], side="right"))
    np.minimum(states, instance.B, out=states)
    return states


def sample_realization_batch(
    instance: Instance, rng: np.random.Generator, count: int
) -> np.ndarray:
    """(count, n) matrix of independent realizations, one per row.

    Entry (r, i) is 1 plus the number of the first B - 1 cumulative
    probabilities of item i at or below its uniform: the inverse CDF that
    :func:`sample_realization_rng` computes with ``searchsorted``.
    """
    u = rng.random((count, instance.n))
    states = np.ones((count, instance.n), dtype=np.int64)
    for s in range(instance.B - 1):
        states += instance.state_cum_probs[:, s] <= u
    return states


def expected_truncated_cost(item: ItemModel, t: float) -> float:
    """E[min(cost at the realized state, t)] for one item."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(sum(p * min(c, t) for p, c in zip(item.probs, item.costs)))


def masked_states(states: np.ndarray, selected) -> np.ndarray:
    """State vector that keeps ``states`` on the selected items and is 0 elsewhere."""
    out = np.zeros(len(states), dtype=np.int64)
    idx = sorted(selected)
    if idx:
        out[idx] = np.asarray(states)[idx]
    return out


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
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> Instance:
    """Parse an instance document; non-integral counts, costs or ids raise ``InvalidInputError``."""
    doc = json.loads(text)
    items = tuple(
        ItemModel(
            probs=tuple(
                json_number(p, f"items[{i}].probs[{s}]") for s, p in enumerate(it["probs"])
            ),
            costs=tuple(
                as_int(c, f"items[{i}].costs[{s}]") for s, c in enumerate(it["costs"])
            ),
        )
        for i, it in enumerate(doc["items"])
    )
    n = as_int(doc["n"], "n")
    return Instance(
        n=n,
        B=as_int(doc["B"], "B"),
        budget=as_int(doc["budget"], "budget"),
        items=items,
        outer=outer_from_json(doc["outer"], n),
        utility=lattice.make_utility(doc["utility"], n),
    )


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(instance: Instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))
