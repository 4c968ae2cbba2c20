import re

import pytest

from stochsubmax import constraints
from stochsubmax.generators import random_instance, single_item_instance
from stochsubmax.greedy import SlotSolution, certify_solution, run_continuous_greedy
from stochsubmax.lattice import WeightedModular
from stochsubmax.model import Instance, ItemModel, sample_realization
from stochsubmax.policy import (
    PolicyTrace,
    coupled_dominance_check,
    execute,
    gate_scan_batch,
    simulate_batch,
)
from stochsubmax.rounding import (
    MAPPINGS,
    BalancedCrs,
    estimate_set_keep_rate,
    estimate_state_keep_rates,
)


def full_mass_solution(instance, marginals):
    entries = tuple((i, 1, float(m)) for i, m in enumerate(marginals) if m > 0)
    return SlotSolution(
        n=instance.n, budget=instance.budget, entries=entries,
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
    assert trace.spent == 1


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
    sol = one_slot_solution(pair_instance, {0: (1, 0.5), 1: (1, 0.5)})
    selected, reads, revealed, spent = gate_scan_batch(
        pair_instance, [[2, 1]], [[True, True]], sol
    )
    assert selected.tolist() == [[True, False]]
    assert reads.tolist() == [[True, False]]
    assert revealed.tolist() == [[2, 0]]
    assert spent.tolist() == [2]


def test_estimate_value_degenerate_cases(single_item):
    crs = BalancedCrs(kind="identity", scale=1.0)
    summary = simulate_batch(
        single_item, single_item.utility, single_item.outer, crs,
        full_mass_solution(single_item, [1.0]), runs=200, seed=1,
    )
    assert summary.mean_utility == 1.0 and summary.se == 0.0
    summary = simulate_batch(
        single_item, single_item.utility, single_item.outer, crs,
        full_mass_solution(single_item, [0.0]), runs=200, seed=1,
    )
    assert summary.mean_utility == 0.0 and summary.se == 0.0


def test_solution_shape_checked(pair_instance):
    bad = SlotSolution(
        n=2, budget=5, entries=((0, 9, 0.5),),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    # every user of a solution makes the one fit check: item 1 starts at slot 9,
    # past its slot count 3
    inst, crs = pair_instance, BalancedCrs(kind="identity", scale=1.0)
    fit = re.escape("item 1 has slot 9, out of slot range 1..3")
    with pytest.raises(ValueError, match=fit):
        execute(inst, inst.utility, inst.outer, crs, bad, realization=[1, 1], seed=0)
    with pytest.raises(ValueError, match=fit):
        simulate_batch(inst, inst.utility, inst.outer, crs, bad, runs=10, seed=0)
    with pytest.raises(ValueError, match=fit):
        coupled_dominance_check(inst, inst.utility, inst.outer, crs, bad, trials=10, seed=0)
    for mapping in MAPPINGS:
        with pytest.raises(ValueError, match=fit):
            estimate_state_keep_rates(mapping, inst, inst.outer, crs, bad, trials=10, seed=0)
    # certification reports the misfit as its first row, and checks nothing else
    report = certify_solution(inst, inst.outer, bad, 0.25)
    assert report.rows == (("entries-in-range", 0.0, 1.0, False),) and not report.passed


@pytest.mark.parametrize("trials", [0, -5])
def test_trial_counts_below_one_rejected(pair_instance, trials):
    # no trial leaves every keep-rate row "insufficient", which min_rate reads
    # as a perfect keep rate, and a dominance check over nothing passes
    inst, sol = pair_instance, solved(pair_instance)
    crs = BalancedCrs(kind="priority", scale=0.25)
    calls = [
        lambda: estimate_set_keep_rate(crs, inst.outer, sol.marginals, trials, seed=0),
        lambda: estimate_state_keep_rates("outer", inst, inst.outer, crs, sol, trials, seed=0),
        lambda: coupled_dominance_check(inst, inst.utility, inst.outer, crs, sol, trials, seed=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"need at least one trial, got {trials}"):
            call()


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
            assert trace.spent <= inst.budget
            assert constraints.is_independent(inst.outer, trace.selected)
            assert set(trace.selected) <= set(trace.kept) <= set(trace.sampled)
            assert trace.reads == trace.selected


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


def test_simulation_pinned(pair_instance):
    # 9000 runs span three seeded blocks; the pins hold the block streams and
    # their in-order reduction fixed, bit for bit
    sol = solved(pair_instance)
    crs = BalancedCrs(kind="priority", scale=0.25)

    def summary(seed):
        return simulate_batch(pair_instance, pair_instance.utility, pair_instance.outer,
                              crs, sol, runs=9000, seed=seed)

    one = summary(3)
    assert (one.runs, one.mean_utility.hex(), one.se.hex()) == (
        9000, "0x1.801d208a5a913p-1", "0x1.55d88d5d748e1p-7"
    )
    assert (one.inner_violations, one.outer_violations, one.adaptivity_violations) == (0, 0, 0)
    assert summary(4) != one


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
        n=3, budget=5, entries=tuple((i, 1 + i % 2, 0.2) for i in range(3)),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    crs = BalancedCrs(kind="priority", scale=0.25)
    report = coupled_dominance_check(inst, inst.utility, inst.outer, crs, sol,
                                     trials=3000, seed=4)
    assert report.passed, report.violations[:1]
    assert report.dropped > 0
    runs = simulate_batch(inst, inst.utility, inst.outer, crs, sol, runs=3000, seed=4)
    assert runs.outer_violations == 0 and runs.inner_violations == 0


def test_gate_uses_nonstrict_inequality(single_item):
    # spent == slot still selects: two unit-cost selections at slot 1 when the
    # budget leaves room
    items = single_item_instance(budget=3).items * 2
    big = Instance(
        n=2, B=1, budget=3, items=items,
        outer=constraints.cardinality(2, 2),
        utility=WeightedModular(weights=(1.0, 1.0)),
    )
    sol = one_slot_solution(big, {0: (1, 0.5), 1: (1, 0.5)})
    selected, reads, _, spent = gate_scan_batch(big, [[1, 1]], [[True, True]], sol)
    # item 1 selected at spent 0; item 2 gate: spent 1 <= 1 passes
    assert selected.tolist() == [[True, True]]
    assert reads.tolist() == [[True, True]]
    assert spent.tolist() == [2]


def one_slot_solution(instance, slots_values):
    """Hand-built solution: item i starts at slot t with mass v, for each i: (t, v)."""
    entries = tuple((i, t, v) for i, (t, v) in sorted(slots_values.items()))
    return SlotSolution(n=instance.n, budget=instance.budget, entries=entries, stop_scale=0.25,
                        steps=1, grad_samples=1, seed=0)


def stream_pins(instance, sol, realization, seed):
    """Summaries of every seeded stream the rounding draws from.

    The simulate summary, the dominance report, the (events, kept) counts of
    each state keep-rate mapping's rows (which fix the rows' values and
    standard errors) and one ``execute`` trace.
    """
    crs = BalancedCrs(kind="priority", scale=0.25)
    args = (instance, instance.utility, instance.outer, crs, sol)
    s = simulate_batch(*args, runs=5000, seed=11)
    d = coupled_dominance_check(*args, trials=3000, seed=12)
    counts = {}
    for m in MAPPINGS:
        rows = estimate_state_keep_rates(m, instance, instance.outer, crs, sol, trials=4000,
                                         seed=13)
        kept = [round(r.value * r.events) if r.events else 0 for r in rows]
        assert all(r.value == k / r.events for r, k in zip(rows, kept) if r.events)
        counts[m] = ([r.events for r in rows], kept)
    return (
        (s.runs, s.mean_utility.hex(), s.se.hex(), s.inner_violations, s.outer_violations,
         s.adaptivity_violations),
        (d.trials, len(d.violations), d.dropped),
        counts,
        execute(*args, realization, seed),
    )


def test_full_support_summaries_are_pinned(partition_instance, pair_instance):
    # every item carries mass, so the block draws keep their width-n shapes and
    # streams. The partition case starts its items at slots 1, 3 and 2, so the
    # scan order is not the index order; the greedy pair solution holds each
    # item's latest slot
    inst = partition_instance
    sol = one_slot_solution(inst, {0: (1, 0.6), 1: (3, 0.6), 2: (2, 0.6)})
    simulate, dominance, counts, trace = stream_pins(inst, sol, [1, 2, 1], 1)
    assert simulate == (5000, "0x1.803db1585d0ecp+0", "0x1.e45f541b03434p-8", 0, 0, 0)
    assert dominance == (3000, 0, 1117)
    assert counts == {
        "outer": ([1230, 1198, 591, 1847, 1791, 613], [861, 830, 416, 1270, 1791, 613]),
        "schedule": ([1184, 1208, 604, 1774, 1779, 620], [1184, 1208, 487, 1479, 1779, 620]),
        "combined": ([1192, 1200, 551, 1809, 1822, 600], [847, 832, 341, 1084, 1822, 600]),
    }
    assert trace == PolicyTrace(sampled=(0, 1, 2), kept=(1, 2), start_times={1: 3, 2: 2},
                                selected=(2, 1), reads=(2, 1), utility=2.0, spent=5)
    crs = BalancedCrs(kind="priority", scale=0.25)
    pair = solved(pair_instance, seed=13, steps=20, grad_samples=1000)
    assert pair.support.tolist() == [0, 1]
    summary = simulate_batch(pair_instance, pair_instance.utility, pair_instance.outer, crs,
                             pair, runs=5000, seed=11)
    assert (summary.mean_utility, summary.se) == (0.7448, 0.013864091553611487)


def test_partial_support_summaries_are_pinned():
    # items 2 and 5 carry no mass, so the draws have the support's width
    inst = random_instance(1, n_max=6, B_max=3, budget_max=10,
                           kinds=("cardinality", "partition"))
    sol = one_slot_solution(inst, {0: (2, 0.5), 2: (5, 0.4), 3: (1, 0.7), 5: (3, 0.3)})
    assert sol.support.tolist() == [0, 2, 3, 5]
    simulate, dominance, counts, trace = stream_pins(inst, sol, [1, 2, 3, 1, 2, 3], 0)
    assert simulate == (5000, "0x1.6a78987b1ff14p+0", "0x1.03eddaf77e164p-7", 0, 0, 0)
    assert dominance == (3000, 0, 141)
    zeros = [0, 0, 0]
    assert counts == {
        "outer": ([1043, 809, 148, *zeros, 401, 424, 769, 1203, 1028, 582, *zeros, 901, 235, 107],
                  [1021, 786, 139, *zeros, 384, 415, 755, 1182, 1018, 572, *zeros, 868, 229, 101]),
        "schedule": ([978, 868, 146, *zeros, 434, 410, 854, 1199, 992, 588, *zeros, 835, 219, 102],
                     [292, 250, 58, *zeros, 337, 335, 668, 1199, 992, 588, *zeros, 379, 96, 45]),
        "combined": ([954, 918, 163, *zeros, 396, 441, 800, 1209, 940, 600, *zeros, 854, 222, 103],
                     [284, 290, 52, *zeros, 289, 337, 623, 1189, 928, 588, *zeros, 410, 83, 53]),
    }
    assert trace == PolicyTrace(sampled=(0, 3), kept=(0, 3), start_times={0: 2, 3: 1},
                                selected=(3,), reads=(3,), utility=0.9305912099305473, spent=3)
