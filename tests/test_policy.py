import json

import numpy as np
import pytest

from stochsubmax import constraints
from stochsubmax.generators import random_instance, single_item_instance
from stochsubmax.greedy import SlotSolution, run_continuous_greedy
from stochsubmax.lattice import WeightedModular
from stochsubmax.model import Instance, ItemModel, sample_realization
from stochsubmax.policy import (
    RevealLog,
    _gate_scan,
    coupled_dominance_check,
    estimate_policy_value,
    execute,
    simulate_batch,
    trace_to_json,
    traces_to_jsonl,
)
from stochsubmax.rounding import BalancedCrs


def full_mass_solution(instance, marginals):
    entries = tuple((i, 1, float(m)) for i, m in enumerate(marginals) if m > 0)
    return SlotSolution(
        n=instance.n, budget=instance.budget, entries=entries,
        marginals=np.asarray(marginals, dtype=float),
        stop_scale=1.0, steps=1, grad_samples=1, seed=0,
    )


def solved(instance, seed=21, scale=0.25, steps=15, grad_samples=800):
    return run_continuous_greedy(
        instance, instance.utility, instance.outer,
        stop_scale=scale, steps=steps, grad_samples=grad_samples, seed=seed,
    )


def test_single_item_always_selected(single_item):
    sol = full_mass_solution(single_item, [1.0])
    crs = BalancedCrs(kind="identity", scale=1.0)
    trace = execute(
        single_item, single_item.utility, single_item.outer, crs, sol,
        realization=[1], seed=0,
    )
    assert trace.selected == (0,)
    assert trace.utility == 1.0
    assert trace.reads == (0,)
    assert trace.total_cost == 1


def test_zero_marginals_empty_trace(single_item):
    sol = full_mass_solution(single_item, [0.0])
    crs = BalancedCrs(kind="identity", scale=1.0)
    trace = execute(
        single_item, single_item.utility, single_item.outer, crs, sol,
        realization=[1], seed=0,
    )
    assert trace.selected == ()
    assert trace.utility == 0.0
    assert trace.reads == ()


def test_forced_times_hand_trace(pair_instance):
    # both items survive pruning with start slot 1; the realization gives item 1
    # state 2 (cost 2): item 1 is selected at spent 0 <= 1, then item 2 fails
    # its gate because 2 > 1
    reveal = RevealLog([2, 1])
    order, records, spent, selected = _gate_scan(
        pair_instance, [0, 1], {0: 1, 1: 1}, reveal
    )
    assert order == (0, 1)
    assert selected == (0,)
    assert spent == (2, 2)
    assert records[0] == (0, 1, True, 2, 2)
    assert records[1] == (1, 1, False, None, None)
    assert reveal.reads == [0]


def test_estimate_value_degenerate_cases(single_item):
    crs = BalancedCrs(kind="identity", scale=1.0)
    mean, se = estimate_policy_value(
        single_item, single_item.utility, single_item.outer, crs,
        full_mass_solution(single_item, [1.0]), runs=200, seed=1,
    )
    assert mean == 1.0 and se == 0.0
    mean, se = estimate_policy_value(
        single_item, single_item.utility, single_item.outer, crs,
        full_mass_solution(single_item, [0.0]), runs=200, seed=1,
    )
    assert mean == 0.0 and se == 0.0


def test_certification_gate(pair_instance):
    sol = full_mass_solution(pair_instance, [1.0, 1.0])
    crs = BalancedCrs(kind="identity", scale=1.0)
    trace = execute(
        pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
        realization=[1, 1], seed=0,
    )
    assert trace.total_cost <= pair_instance.budget
    with pytest.raises(ValueError, match="certification"):
        execute(
            pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
            realization=[1, 1], seed=0, certify_scale=0.25,
        )


def test_solution_shape_checked(pair_instance):
    bad = SlotSolution(
        n=2, budget=5, entries=((0, 9, 0.5),), marginals=np.array([0.5, 0.0]),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    crs = BalancedCrs(kind="identity", scale=1.0)
    with pytest.raises(ValueError, match="slot range"):
        execute(pair_instance, pair_instance.utility, pair_instance.outer, crs, bad,
                realization=[1, 1], seed=0)


def test_realization_validated(pair_instance):
    sol = solved(pair_instance)
    crs = BalancedCrs(kind="priority", scale=0.25)
    with pytest.raises(ValueError, match="state in 1..B"):
        execute(pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
                realization=[0, 1], seed=0)


def test_trace_invariants_on_random_instances():
    for k in range(6):
        inst = random_instance(500 + k, n_max=5, B_max=3, budget_max=10,
                               kinds=("cardinality", "partition"))
        sol = solved(inst, seed=k, steps=10, grad_samples=300)
        crs = BalancedCrs(kind="priority", scale=0.25)
        for run in range(50):
            phi = sample_realization(inst, 9000 + run)
            trace = execute(inst, inst.utility, inst.outer, crs, sol, phi, seed=run)
            assert trace.total_cost <= inst.budget
            assert constraints.is_independent(inst.outer, trace.selected)
            assert set(trace.selected) <= set(trace.kept) <= set(trace.sampled)
            assert trace.reads == trace.selected
            # spending history never exceeds the budget at any prefix
            assert all(s <= inst.budget for s in trace.spent_history)


def test_simulation_counts_no_violations(pair_instance):
    sol = solved(pair_instance)
    crs = BalancedCrs(kind="priority", scale=0.25)
    summary = simulate_batch(
        pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
        runs=5000, seed=3,
    )
    assert summary.runs == 5000
    assert summary.inner_violations == 0
    assert summary.outer_violations == 0
    assert summary.adaptivity_violations == 0
    assert 0.0 < summary.mean_utility < 3.0


def test_simulation_deterministic_across_workers(pair_instance):
    sol = solved(pair_instance)
    crs = BalancedCrs(kind="priority", scale=0.25)
    one = simulate_batch(pair_instance, pair_instance.utility, pair_instance.outer,
                         crs, sol, runs=9000, seed=3, workers=1)
    two = simulate_batch(pair_instance, pair_instance.utility, pair_instance.outer,
                         crs, sol, runs=9000, seed=3, workers=2)
    assert one == two


def test_dominance_single_item_equality(single_item):
    sol = full_mass_solution(single_item, [1.0])
    crs = BalancedCrs(kind="identity", scale=1.0)
    report = coupled_dominance_check(
        single_item, single_item.utility, single_item.outer, crs, sol,
        trials=300, seed=0,
    )
    assert report.passed


def test_dominance_on_pipeline_solution(pair_instance):
    sol = solved(pair_instance)
    crs = BalancedCrs(kind="priority", scale=0.25)
    report = coupled_dominance_check(
        pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
        trials=3000, seed=1,
    )
    assert report.trials == 3000
    assert report.passed, report.violations[:1]


def test_dominance_across_random_instances():
    for k in range(5):
        inst = random_instance(700 + k, n_max=5, B_max=3, budget_max=10,
                               kinds=("cardinality", "partition"))
        sol = solved(inst, seed=k, steps=8, grad_samples=300)
        crs = BalancedCrs(kind="priority", scale=0.25)
        report = coupled_dominance_check(
            inst, inst.utility, inst.outer, crs, sol, trials=800, seed=k
        )
        assert report.passed, report.violations[:1]


def test_dominance_under_contention():
    # k = 1 with mass on all three items: some trials sample two items and the
    # scheme drops one, which the pruned vector must drop too
    items = (ItemModel(probs=(0.5, 0.5), costs=(1, 2)),) * 3
    inst = Instance(n=3, B=2, budget=5, items=items, outer=constraints.cardinality(3, 1),
                    utility=WeightedModular(weights=(1.0, 1.0, 1.0)))
    sol = SlotSolution(
        n=3, budget=5, entries=tuple((i, t, 0.1) for i in range(3) for t in (1, 2)),
        marginals=np.full(3, 0.2), stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    crs = BalancedCrs(kind="priority", scale=0.25)
    report = coupled_dominance_check(inst, inst.utility, inst.outer, crs, sol,
                                     trials=3000, seed=4)
    assert report.passed, report.violations[:1]
    runs = simulate_batch(inst, inst.utility, inst.outer, crs, sol, runs=3000, seed=4)
    assert runs.outer_violations == 0 and runs.inner_violations == 0


def test_trace_json_export(pair_instance):
    sol = solved(pair_instance)
    crs = BalancedCrs(kind="priority", scale=0.25)
    traces = [
        execute(pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
                sample_realization(pair_instance, s), seed=s)
        for s in range(3)
    ]
    line = trace_to_json(traces[0])
    doc = json.loads(line)
    assert "\n" not in line
    assert set(doc) >= {"sampled", "kept", "selected", "utility", "reads", "records"}
    assert all(i >= 1 for i in doc["sampled"])  # 1-based export
    blob = traces_to_jsonl(traces)
    assert len(blob.strip().splitlines()) == 3


def test_gate_uses_nonstrict_inequality(single_item):
    # spent == slot still selects: two unit-cost selections at slot 1 when the
    # budget leaves room
    inst = single_item_instance(budget=3)
    items = inst.items * 2
    import stochsubmax.model as model

    big = model.Instance(
        n=2, B=1, budget=3, items=items,
        outer=constraints.cardinality(2, 2),
        utility=WeightedModular(weights=(1.0, 1.0)),
    )
    reveal = RevealLog([1, 1])
    _, records, _, selected = _gate_scan(big, [0, 1], {0: 1, 1: 1}, reveal)
    # item 1 selected at spent 0; item 2 gate: spent 1 <= 1 passes
    assert selected == (0, 1)
