import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from stochsubmax import constraints
from stochsubmax.generators import (
    partition_demo_instance,
    single_item_instance,
    symmetric_pair_instance,
)
from stochsubmax.greedy import SlotSolution
from stochsubmax.lattice import (
    ConcaveOverModular,
    ThresholdCoverage,
    UtilityOracle,
    WeightedModular,
)
from stochsubmax.model import Instance, ItemModel

settings.register_profile("desk", deadline=None)
# HYPOTHESIS_PROFILE=thorough runs every property test that asks for
# examples(n) with 2000 examples instead of n
settings.register_profile("thorough", deadline=None, max_examples=2000)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "desk")
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """A property test's example count: n, or the thorough profile's count."""
    return settings.default.max_examples if PROFILE == "thorough" else n


@st.composite
def edge_instances(draw):
    """A cardinality k = 0 or a B = 1 partition instance over n = 1..5 items under one
    of the three families, with a hand-built solution whose support may be empty."""
    n = draw(st.integers(1, 5))
    edge = draw(st.sampled_from(["k=0", "B=1"]))
    B = 1 if edge == "B=1" else draw(st.integers(2, 3))
    budget = draw(st.integers(2, 8))
    items = []
    for _ in range(n):
        odds = draw(st.lists(st.integers(1, 4), min_size=B, max_size=B))
        # an item whose top cost is the budget has no slot
        costs = sorted(draw(st.lists(st.integers(1, budget), min_size=B, max_size=B)))
        items.append(ItemModel(probs=tuple(w / sum(odds) for w in odds), costs=tuple(costs)))
    if edge == "k=0":
        outer = constraints.cardinality(n, 0)
    else:
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
        outer = constraints.partition(n, blocks, [draw(st.integers(0, len(b))) for b in blocks])
    weights = tuple(float(w) for w in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    utility = draw(st.sampled_from([
        WeightedModular(weights=weights),
        ConcaveOverModular(weights=weights, curve="sqrt"),
        ThresholdCoverage(rates=tuple(int(w) for w in weights), element_weights=(1.0, 0.5)),
    ]))
    inst = Instance(n=n, B=B, budget=budget, items=tuple(items), outer=outer, utility=utility)
    inst.require_valid()
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))  # 0.0 leaves the support empty
    entries = tuple(
        (i, draw(st.integers(1, int(slots))), draw(st.floats(0.05, 1.0)))
        for i, slots in enumerate(inst.slot_counts.tolist())
        if slots > 0 and draw(st.floats(0, 1)) < share
    )
    sol = SlotSolution(n=n, budget=budget, entries=entries, stop_scale=0.25, steps=1,
                       grad_samples=1, seed=0)
    return inst, sol, draw(st.integers(0, 2**32 - 1))


class FormulaUtility(UtilityOracle):
    """Test-only oracle wrapping an arbitrary per-vector formula."""

    family = "formula"

    def __init__(self, fn, n):
        self.fn = fn
        self._n = n

    @property
    def n(self):
        return self._n

    def value(self, u):
        return float(self.fn(np.asarray(u)))

    def value_batch(self, states):
        return np.array([self.value(row) for row in np.asarray(states)])


@pytest.fixture
def pair_instance():
    return symmetric_pair_instance(budget=5)


@pytest.fixture
def tight_pair_instance():
    return symmetric_pair_instance(budget=3)


@pytest.fixture
def single_item():
    return single_item_instance(budget=2)


@pytest.fixture
def partition_instance():
    return partition_demo_instance()


@pytest.fixture
def product_utility():
    return FormulaUtility(lambda u: float(u[0]) * float(u[1]), 2)
