"""Instance builders: fixed demo instances and seeded random instance families."""

from __future__ import annotations

import numpy as np

from . import constraints
from .lattice import ConcaveOverModular, ThresholdCoverage, WeightedModular
from .model import Instance, ItemModel
from .seeds import derive_rng


def symmetric_pair_instance(budget: int = 5) -> Instance:
    """Two identical items (states 1/2 equally likely, costs 1/2), unit-weight modular."""
    item = ItemModel(probs=(0.5, 0.5), costs=(1, 2))
    return Instance(
        n=2,
        B=2,
        budget=budget,
        items=(item, item),
        outer=constraints.cardinality(2, 2),
        utility=WeightedModular(weights=(1.0, 1.0)),
    )


def single_item_instance(budget: int = 2) -> Instance:
    item = ItemModel(probs=(1.0,), costs=(1,))
    return Instance(
        n=1,
        B=1,
        budget=budget,
        items=(item,),
        outer=constraints.cardinality(1, 1),
        utility=WeightedModular(weights=(1.0,)),
    )


def partition_demo_instance(budget: int = 6) -> Instance:
    """Three items in two blocks (cap 1 each), concave utility."""
    items = (
        ItemModel(probs=(0.5, 0.5), costs=(1, 2)),
        ItemModel(probs=(0.25, 0.75), costs=(1, 3)),
        ItemModel(probs=(0.75, 0.25), costs=(2, 2)),
    )
    return Instance(
        n=3,
        B=2,
        budget=budget,
        items=items,
        outer=constraints.partition(3, [[0, 1], [2]], [1, 1]),
        utility=ConcaveOverModular(weights=(1.0, 1.5, 1.0), curve="sqrt"),
    )


def _random_outer(rng: np.random.Generator, n: int, kinds) -> constraints.OuterConstraint:
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "cardinality":
        return constraints.cardinality(n, int(rng.integers(1, n + 1)))
    if kind == "partition":
        labels = rng.integers(0, min(n, 3), size=n)
        blocks = [list(np.nonzero(labels == b)[0]) for b in range(min(n, 3))]
        blocks = [b for b in blocks if b]
        if not blocks:
            blocks = [list(range(n))]
        caps = [int(rng.integers(1, len(b) + 1)) for b in blocks]
        return constraints.partition(n, blocks, caps)
    raise ValueError(kind)


def _random_utility(rng: np.random.Generator, n: int, families):
    family = families[int(rng.integers(len(families)))]
    weights = tuple(float(w) for w in np.round(rng.uniform(0.5, 2.0, size=n), 3))
    if family == "modular":
        return WeightedModular(weights=weights)
    if family == "concave":
        if rng.random() < 0.5:
            theta = float(np.round(rng.uniform(1.0, 4.0), 3))
            return ConcaveOverModular(weights=weights, curve="cap", theta=theta)
        return ConcaveOverModular(weights=weights, curve="sqrt")
    if family == "coverage":
        m = int(rng.integers(4, 9))
        rates = tuple(int(r) for r in rng.integers(1, 4, size=n))
        element_weights = tuple(
            float(w) for w in np.round(rng.uniform(0.2, 1.5, size=m), 3)
        )
        return ThresholdCoverage(rates=rates, element_weights=element_weights)
    raise ValueError(family)


def random_instance(
    seed: int,
    n_max: int = 8,
    B_max: int = 3,
    budget_max: int = 12,
    kinds=("cardinality", "partition"),
    families=("modular", "concave", "coverage"),
    all_schedulable: bool = False,
) -> Instance:
    """A seeded random valid instance with at least one schedulable item.

    With ``all_schedulable`` every item's worst cost stays below the budget, so
    every item has a feasible start slot; otherwise a minority of items may be
    too expensive to ever schedule (their slot sets are empty).
    """
    rng = derive_rng(seed, "instance")
    n = int(rng.integers(1, n_max + 1))
    B = int(rng.integers(1, B_max + 1))
    budget = int(rng.integers(2, budget_max + 1))
    items = []
    for i in range(n):
        probs = rng.uniform(0.1, 1.0, size=B)
        probs = probs / probs.sum()
        # keep most items schedulable: worst cost usually below the budget
        if all_schedulable or i == 0 or rng.random() < 0.85:
            top = int(rng.integers(1, max(2, budget)))
        else:
            top = int(rng.integers(1, budget + 3))
        draws = sorted(int(c) for c in rng.integers(1, top + 1, size=B))
        items.append(
            ItemModel(probs=tuple(float(p) for p in probs), costs=tuple(draws))
        )
    instance = Instance(
        n=n,
        B=B,
        budget=budget,
        items=tuple(items),
        outer=_random_outer(rng, n, kinds),
        utility=_random_utility(rng, n, families),
    )
    instance.require_valid()
    return instance


def random_oracle_sized_instance(seed: int) -> Instance:
    """Random instance small enough for the exact policy recursion (n<=4, B<=2).

    Every item is schedulable, so the exact optimum only ever selects items the
    time-indexed relaxation can also schedule.
    """
    return random_instance(
        seed,
        n_max=4,
        B_max=2,
        budget_max=8,
        kinds=("cardinality", "partition"),
        all_schedulable=True,
    )
