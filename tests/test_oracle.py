import pytest

from stochsubmax import constraints
from stochsubmax.errors import EnumerationLimitError
from stochsubmax.generators import random_oracle_sized_instance, symmetric_pair_instance
from stochsubmax.lattice import WeightedModular
from stochsubmax.model import Instance, ItemModel
from stochsubmax.oracle import optimal_policy_value
from tests.reference import policy_tree_value, random_feasible_tree


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
    items = tuple([ItemModel(probs=(1.0,), costs=(1,))] * 6)
    inst = Instance(
        n=6, B=1, budget=3, items=items,
        outer=constraints.cardinality(6, 6),
        utility=WeightedModular(weights=tuple([1.0] * 6)),
    )
    with pytest.raises(EnumerationLimitError):
        optimal_policy_value(inst, inst.utility, inst.outer)
    with pytest.raises(EnumerationLimitError):
        policy_tree_value(inst, inst.utility, inst.outer, {"action": None})


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
