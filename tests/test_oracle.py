import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsubmax import constraints
from stochsubmax.errors import EnumerationLimitError
from stochsubmax.generators import (
    random_instance,
    random_oracle_sized_instance,
    symmetric_pair_instance,
)
from stochsubmax.lattice import ConcaveOverModular, ThresholdCoverage, WeightedModular
from stochsubmax.model import Instance, ItemModel
from stochsubmax.oracle import ORACLE_GUARD, optimal_policy_value
from tests.conftest import examples
from tests.reference import optimal_policy_by_recursion, policy_tree_value, random_feasible_tree

EPS = np.finfo(float).eps


def test_trivial_single_item():
    inst = Instance(
        n=1, B=1, budget=1,
        items=(ItemModel(probs=(1.0,), costs=(1,)),),
        outer=constraints.cardinality(1, 1),
        utility=WeightedModular(weights=(1.0,)),
    )
    res = optimal_policy_value(inst, inst.utility, inst.outer)
    assert res.value == 1.0
    assert res.first_action == 0


def test_pair_instance_roomy_budget(pair_instance):
    res = optimal_policy_value(pair_instance, pair_instance.utility, pair_instance.outer)
    assert res.value == pytest.approx(3.0, abs=1e-12)


def test_pair_instance_tight_budget(tight_pair_instance):
    # select one item; the second fits only when the first realized cheaply
    res = optimal_policy_value(
        tight_pair_instance, tight_pair_instance.utility, tight_pair_instance.outer
    )
    assert res.value == pytest.approx(2.25, abs=1e-12)
    assert res.first_action == 0


def test_optimal_tree_self_consistency(tight_pair_instance):
    res = optimal_policy_value(
        tight_pair_instance, tight_pair_instance.utility, tight_pair_instance.outer
    )
    replay = policy_tree_value(
        tight_pair_instance, tight_pair_instance.utility,
        tight_pair_instance.outer, res.tree,
    )
    assert replay == pytest.approx(res.value, abs=1e-12)


def test_stop_tree_and_single_selection_tree(pair_instance):
    assert policy_tree_value(
        pair_instance, pair_instance.utility, pair_instance.outer, {"action": None}
    ) == 0.0
    select_first_only = {
        "action": 1,
        "branches": {"1": {"action": None}, "2": {"action": None}},
    }
    assert policy_tree_value(
        pair_instance, pair_instance.utility, pair_instance.outer, select_first_only
    ) == pytest.approx(1.5)


def test_random_trees_never_beat_optimum():
    for k in range(4):
        inst = random_oracle_sized_instance(2000 + k)
        opt = optimal_policy_value(inst, inst.utility, inst.outer).value
        for t in range(25):
            tree = random_feasible_tree(inst, inst.outer, seed=1000 * k + t)
            value = policy_tree_value(inst, inst.utility, inst.outer, tree)
            assert value <= opt + 1e-12


def test_optimum_monotone_in_budget():
    for k in range(5):
        inst = random_oracle_sized_instance(3000 + k)
        bigger = Instance(
            n=inst.n, B=inst.B, budget=inst.budget + 2, items=inst.items,
            outer=inst.outer, utility=inst.utility,
        )
        low = optimal_policy_value(inst, inst.utility, inst.outer).value
        high = optimal_policy_value(bigger, bigger.utility, bigger.outer).value
        assert high >= low - 1e-12


def test_dropping_outer_constraint_never_hurts():
    for k in range(5):
        inst = random_oracle_sized_instance(4000 + k)
        free = Instance(
            n=inst.n, B=inst.B, budget=inst.budget, items=inst.items,
            outer=constraints.cardinality(inst.n, inst.n), utility=inst.utility,
        )
        constrained = optimal_policy_value(inst, inst.utility, inst.outer).value
        unconstrained = optimal_policy_value(free, free.utility, free.outer).value
        assert unconstrained >= constrained - 1e-12


def test_guard_refusal():
    """Past ORACLE_GUARD state vectors the table and the tree evaluation refuse;
    n = 6 at B = 1 (64 state vectors) is in reach and solves as the reference."""
    items = tuple([ItemModel(probs=(0.5, 0.25, 0.25), costs=(1, 2, 3))] * 9)
    big = Instance(
        n=9, B=3, budget=4, items=items,
        outer=constraints.cardinality(9, 2),
        utility=WeightedModular(weights=tuple([1.0] * 9)),
    )
    message = rf"\(B\+1\)\^n = {4**9} exceeds .* {ORACLE_GUARD}"
    with pytest.raises(EnumerationLimitError, match=message):
        optimal_policy_value(big, big.utility, big.outer)
    with pytest.raises(EnumerationLimitError, match=message):
        policy_tree_value(big, big.utility, big.outer, {"action": None})
    items = tuple([ItemModel(probs=(1.0,), costs=(1,))] * 6)
    inst = Instance(
        n=6, B=1, budget=3, items=items,
        outer=constraints.cardinality(6, 6),
        utility=WeightedModular(weights=tuple([1.0] * 6)),
    )
    res = optimal_policy_value(inst, inst.utility, inst.outer)
    ref = optimal_policy_by_recursion(inst, inst.utility, inst.outer)
    assert res.value == ref.value == 3.0
    assert res.first_action == ref.first_action == 0
    assert res.tree == ref.tree


def _rounding(instance) -> float:
    """How far the table's value may lie from the recursion's, relative to it.

    The two make the same products and in-order sums on the same
    probabilities and differ only in the leaves: the table reads f from
    ``value_batch``, the recursion from ``value``, within 2 n eps relative
    of each other (the ``UtilityOracle`` contract). Every other step maps
    nonnegative terms through products, sums and maxima, which carry a
    relative change of the leaves through unchanged, so exact arithmetic on
    the two sets of leaves differs by at most 2 n eps relative; and each side
    rounds at most n layers of B products and B - 1 sums of nonnegative
    terms, at most (B + 1) eps relative per layer. The two values therefore
    lie within 2 n eps + 2 n (B + 1) eps = 2 n (B + 2) eps of each other,
    relative (8.9e-15 at n = 5, B = 3; 1.8e-14 at n = 8).
    """
    return 2 * instance.n * (instance.B + 2) * EPS


def _assert_table_matches_recursion(instance):
    res = optimal_policy_value(instance, instance.utility, instance.outer)
    ref = optimal_policy_by_recursion(instance, instance.utility, instance.outer)
    tol = _rounding(instance) * max(ref.value, 0.0)
    assert abs(res.value - ref.value) <= tol, (res.value, ref.value)
    replay = policy_tree_value(instance, instance.utility, instance.outer, res.tree)
    assert replay == pytest.approx(res.value, rel=1e-12, abs=1e-12)
    assert res.tree["action"] == (None if res.first_action is None else res.first_action + 1)
    if res.first_action != ref.first_action:
        # only a near-tie at the root may choose otherwise, and only between choices
        # the recursion also has
        assert res.first_action in ref.root_values, res.first_action
        gap = abs(ref.root_values[res.first_action] - ref.root_values[ref.first_action])
        assert gap <= tol, (res.first_action, ref.first_action, ref.root_values)


@settings(max_examples=examples(150))
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["cardinality", "partition"]),
    st.sampled_from(["modular", "concave", "coverage"]),
)
def test_table_matches_the_recursion(seed, kind, family):
    """The table's value, tree and first action against tests/reference.py's recursion
    on random instances with n <= 5 and B <= 3, under both outer kinds and all three
    families: values within :func:`_rounding`, the tree's exact value within 1e-12
    of the table's, and the first action the same unless the recursion's values of
    the two choices lie within that rounding."""
    instance = random_instance(seed, n_max=5, B_max=3, budget_max=12, kinds=(kind,),
                               families=(family,))
    _assert_table_matches_recursion(instance)


def _wide_instance(n, B, budget, outer, family, seed):
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        probs = rng.uniform(0.1, 1.0, size=B)
        costs = sorted(int(c) for c in rng.integers(1, 4, size=B))
        items.append(ItemModel(tuple((probs / probs.sum()).tolist()), tuple(costs)))
    weights = tuple(np.round(rng.uniform(0.5, 2.0, size=n), 3).tolist())
    utility = {
        "modular": WeightedModular(weights=weights),
        "concave": ConcaveOverModular(weights=weights, curve="sqrt"),
        "coverage": ThresholdCoverage(rates=tuple(int(r) for r in rng.integers(1, 4, size=n)),
                                      element_weights=(1.0, 0.7, 0.4, 1.3, 0.2)),
    }[family]
    return Instance(n=n, B=B, budget=budget, items=tuple(items), outer=outer, utility=utility)


@pytest.mark.parametrize("n, B, budget, outer, family", [
    (6, 3, 8, constraints.cardinality(6, 2), "concave"),
    (7, 2, 9, constraints.partition(7, [[0, 1, 2], [3, 4, 5, 6]], [1, 2]), "coverage"),
    (8, 3, 7, constraints.cardinality(8, 3), "modular"),
    (8, 2, 10, constraints.partition(8, [[0, 2, 4, 6], [1, 3, 5, 7]], [1, 1]), "concave"),
])
def test_table_matches_the_recursion_past_five_items(n, B, budget, outer, family):
    """n = 6 to 8, out of the old recursion's reach, with caps below the item count so
    that the family binds: the same checks as :func:`test_table_matches_the_recursion`."""
    _assert_table_matches_recursion(_wide_instance(n, B, budget, outer, family, seed=n + B))


def test_infeasible_trees_rejected(tight_pair_instance):
    overshoot = {
        "action": 1,
        "branches": {
            "1": {"action": 2, "branches": {"1": {"action": None}, "2": {"action": None}}},
            # selecting item 2 after a cost-2 realization could overshoot
            "2": {"action": 2, "branches": {"1": {"action": None}, "2": {"action": None}}},
        },
    }
    with pytest.raises(ValueError, match="overshoot"):
        policy_tree_value(
            tight_pair_instance, tight_pair_instance.utility,
            tight_pair_instance.outer, overshoot,
        )
    twice = {
        "action": 1,
        "branches": {
            "1": {"action": 1, "branches": {"1": {"action": None}, "2": {"action": None}}},
            "2": {"action": None},
        },
    }
    with pytest.raises(ValueError, match="twice"):
        policy_tree_value(
            symmetric_pair_instance(), symmetric_pair_instance().utility,
            symmetric_pair_instance().outer, twice,
        )


def test_outer_constraint_respected_by_oracle():
    inst = Instance(
        n=2, B=1, budget=5,
        items=(ItemModel(probs=(1.0,), costs=(1,)),) * 2,
        outer=constraints.cardinality(2, 1),
        utility=WeightedModular(weights=(1.0, 2.0)),
    )
    res = optimal_policy_value(inst, inst.utility, inst.outer)
    assert res.value == 2.0  # can only take the better item
    assert res.first_action == 1


def test_optimal_tree_branches_on_both_states(tight_pair_instance):
    res = optimal_policy_value(
        tight_pair_instance, tight_pair_instance.utility, tight_pair_instance.outer
    )
    assert res.tree["action"] == 1
    assert set(res.tree["branches"]) == {"1", "2"}


def test_adaptive_branching_beats_all_fixed_orders(tight_pair_instance):
    # the optimum branches on the observed state; committing to any fixed set
    # up front cannot reach it
    inst = tight_pair_instance
    opt = optimal_policy_value(inst, inst.utility, inst.outer).value
    take_one = {
        "action": 1,
        "branches": {"1": {"action": None}, "2": {"action": None}},
    }
    assert policy_tree_value(inst, inst.utility, inst.outer, take_one) < opt
