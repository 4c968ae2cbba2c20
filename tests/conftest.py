import os

import numpy as np
import pytest
from hypothesis import settings

from stochsubmax.generators import (
    partition_demo_instance,
    single_item_instance,
    symmetric_pair_instance,
)
from stochsubmax.lattice import UtilityOracle

settings.register_profile("desk", deadline=None)
# HYPOTHESIS_PROFILE=thorough runs every property test that asks for
# examples(n) with 2000 examples instead of n
settings.register_profile("thorough", deadline=None, max_examples=2000)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "desk")
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """A property test's example count: n, or the thorough profile's count."""
    return settings.default.max_examples if PROFILE == "thorough" else n


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
