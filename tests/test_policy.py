import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsubmax import constraints, policy
from stochsubmax.errors import InvalidInputError
from stochsubmax.generators import random_instance, single_item_instance
from stochsubmax.greedy import SlotSolution, certify_solution, run_continuous_greedy
from stochsubmax.lattice import ConcaveOverModular, ThresholdCoverage, WeightedModular
from stochsubmax.model import Instance, ItemModel, sample_realization
from stochsubmax.parallel import BLOCK_SIZE
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
from tests.conftest import edge_instances, examples
from tests.reference import simulate_by_rows


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
    crs = BalancedCrs(kind="priority", scale=1.0)
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
    crs = BalancedCrs(kind="priority", scale=1.0)
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
    crs = BalancedCrs(kind="priority", scale=1.0)
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
    inst, crs = pair_instance, BalancedCrs(kind="priority", scale=1.0)
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
    with pytest.raises(ValueError, match="state in 1..B"):
        execute(pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
                realization=[1, 1, 1], seed=0)
    # a fractional or boolean state is rejected by name, never truncated to an integer
    for bad, entry in (([1.7, 1], "realization[0]"), ([1, True], "realization[1]"),
                       (np.array([True, True]), "realization[0]")):
        with pytest.raises(InvalidInputError, match=re.escape(f"{entry} must be an integer")):
            execute(pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
                    realization=bad, seed=0)
    # integral floats pass, as they do for costs and rates
    assert execute(pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
                   realization=[2.0, 1.0], seed=0) == \
        execute(pair_instance, pair_instance.utility, pair_instance.outer, crs, sol,
                realization=[2, 1], seed=0)


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


@settings(max_examples=examples(100))
@given(edge_instances())
def test_simulation_and_dominance_on_edge_instances(case):
    """Simulation and the coupled dominance check run at k = 0, B = 1 and on an
    empty support, where every block is (R, 0) wide: no violation, and a policy
    that can select nothing is worth exactly 0."""
    inst, sol, seed = case
    crs = BalancedCrs(kind="priority", scale=0.25)
    s = simulate_batch(inst, inst.utility, inst.outer, crs, sol, runs=200, seed=seed)
    assert (s.runs, s.inner_violations, s.outer_violations, s.adaptivity_violations) \
        == (200, 0, 0, 0)
    if inst.outer.kind == "cardinality" or not len(sol.support):
        assert (s.mean_utility, s.se) == (0.0, 0.0)
    assert coupled_dominance_check(inst, inst.utility, inst.outer, crs, sol,
                                   trials=100, seed=seed).passed


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
        9000, "0x1.86a7ef9db22d1p-1", "0x1.591191f32be7ep-7"
    )
    assert (one.inner_violations, one.outer_violations, one.adaptivity_violations) == (0, 0, 0)
    assert summary(4) != one


@st.composite
def table_cases(draw):
    """An instance of n <= 6 items at B <= 3 under one of the three families and a
    cardinality or partition family whose caps bind, fit or are 0, a hand-built
    solution whose support may be empty, and a run count of more than one block:
    every (B+1)^n_s kept-state row fits in one block, so the runs read the table."""
    n = draw(st.integers(1, 6))
    B = draw(st.integers(1, 3))
    budget = draw(st.integers(2, 10))
    items = []
    for _ in range(n):
        odds = draw(st.lists(st.integers(1, 4), min_size=B, max_size=B))
        costs = sorted(draw(st.lists(st.integers(1, budget), min_size=B, max_size=B)))
        items.append(ItemModel(probs=tuple(w / sum(odds) for w in odds), costs=tuple(costs)))
    if draw(st.booleans()):
        outer = constraints.cardinality(n, draw(st.integers(0, n)))
    else:
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
        outer = constraints.partition(n, blocks, [draw(st.integers(0, len(b))) for b in blocks])
    weights = tuple(draw(st.lists(st.floats(0, 3), min_size=n, max_size=n)))
    utility = draw(st.sampled_from([
        WeightedModular(weights=weights),
        ConcaveOverModular(weights=weights, curve="sqrt"),
        ConcaveOverModular(weights=weights, curve="cap", theta=2.5),
        ThresholdCoverage(rates=tuple(int(w) for w in weights), element_weights=(1.0, 0.3, 0.7)),
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
    runs = draw(st.sampled_from([BLOCK_SIZE + 1, 5000, 9000]))
    return inst, sol, runs, draw(st.integers(0, 2**32 - 1))


def summary_bits(s):
    return (s.runs, s.mean_utility.hex(), s.se.hex(), s.inner_violations, s.outer_violations,
            s.adaptivity_violations)


@settings(max_examples=examples(60))
@given(table_cases())
def test_table_simulation_equals_the_row_reference(case):
    """Runs read off the kept-state table give the row-by-row reference's summary,
    mean and se to the bit."""
    inst, sol, runs, seed = case
    crs = BalancedCrs(kind="priority", scale=0.25)
    args = (inst, inst.utility, inst.outer, crs, sol)
    assert summary_bits(simulate_batch(*args, runs=runs, seed=seed)) == \
        summary_bits(simulate_by_rows(*args, runs=runs, seed=seed))


def test_table_tallies_count_runs_not_rows(partition_instance, monkeypatch):
    """A gate scan that marks an extra read on one kept-state row makes every run
    with that row an adaptivity violation: the table path weights the row by its
    run count, as the row reference counts it on the same draws. At BLOCK_SIZE
    runs the one block is scanned row by row."""
    inst = partition_instance
    sol = one_slot_solution(inst, {0: (1, 0.6), 1: (3, 0.6), 2: (2, 0.6)})
    crs = BalancedCrs(kind="priority", scale=0.25)
    args = (inst, inst.utility, inst.outer, crs, sol)
    target = np.array([0, 0, 2])  # only item 3 kept, at state 2
    scan, scanned, hits = policy.gate_scan_batch, [], []

    def marked(instance, states, kept, s):
        selected, reads, revealed, spent = scan(instance, states, kept, s)
        hit = (np.where(kept, states, 0) == target).all(axis=1)
        reads = reads.copy()
        reads[hit, 2] = ~reads[hit, 2]
        scanned.append(len(hit))
        hits.append(int(hit.sum()))
        return selected, reads, revealed, spent

    assert simulate_batch(*args, runs=9000, seed=5).adaptivity_violations == 0
    monkeypatch.setattr(policy, "gate_scan_batch", marked)
    table = simulate_batch(*args, runs=9000, seed=5)
    assert scanned == [(inst.B + 1) ** 3] and hits == [1]  # one scan of the table, one marked row
    scanned.clear()
    hits.clear()
    rows = simulate_by_rows(*args, runs=9000, seed=5)
    assert len(scanned) == 3  # one scan per block of runs
    assert table.adaptivity_violations == sum(hits) > 1  # the marked row's run count
    assert summary_bits(table) == summary_bits(rows)
    scanned.clear()
    hits.clear()
    one_block = simulate_batch(*args, runs=BLOCK_SIZE, seed=5)
    assert scanned == [BLOCK_SIZE]
    assert one_block.adaptivity_violations == sum(hits) > 1
    assert summary_bits(one_block) == summary_bits(simulate_by_rows(*args, runs=BLOCK_SIZE, seed=5))


def test_dominance_single_item_equality(single_item):
    sol = full_mass_solution(single_item, [1.0])
    crs = BalancedCrs(kind="priority", scale=1.0)
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
    # every item carries mass, so the block draws keep their width-n shapes.
    # The ``execute`` trace draws from seeds.derive_rng, whose stream never
    # moved. The partition case starts its items at slots 1, 3 and 2, so the
    # scan order is not the index order; the greedy pair solution holds each
    # item's latest slot
    inst = partition_instance
    sol = one_slot_solution(inst, {0: (1, 0.6), 1: (3, 0.6), 2: (2, 0.6)})
    simulate, dominance, counts, trace = stream_pins(inst, sol, [1, 2, 1], 1)
    assert simulate == (5000, "0x1.7dfaf35c3c5f2p+0", "0x1.d92f571ba784ep-8", 0, 0, 0)
    assert dominance == (3000, 0, 1077)
    assert counts == {
        "outer": ([1181, 1187, 593, 1763, 1780, 617], [810, 856, 411, 1247, 1780, 617]),
        "schedule": ([1192, 1197, 618, 1820, 1822, 615], [1192, 1197, 495, 1482, 1822, 615]),
        "combined": ([1211, 1199, 597, 1768, 1836, 605], [863, 856, 357, 1052, 1836, 605]),
    }
    assert trace == PolicyTrace(sampled=(0, 1, 2), kept=(1, 2), start_times={1: 3, 2: 2},
                                selected=(2, 1), reads=(2, 1), utility=2.0, spent=5)
    crs = BalancedCrs(kind="priority", scale=0.25)
    pair = solved(pair_instance, seed=13, steps=20, grad_samples=1000)
    assert pair.support.tolist() == [0, 1]
    summary = simulate_batch(pair_instance, pair_instance.utility, pair_instance.outer, crs,
                             pair, runs=5000, seed=11)
    assert (summary.mean_utility, summary.se) == (0.7454, 0.013879275732507508)


def test_partial_support_summaries_are_pinned():
    # items 2 and 5 carry no mass, so the draws have the support's width
    inst = random_instance(1, n_max=6, B_max=3, budget_max=10,
                           kinds=("cardinality", "partition"))
    sol = one_slot_solution(inst, {0: (2, 0.5), 2: (5, 0.4), 3: (1, 0.7), 5: (3, 0.3)})
    assert sol.support.tolist() == [0, 2, 3, 5]
    simulate, dominance, counts, trace = stream_pins(inst, sol, [1, 2, 3, 1, 2, 3], 0)
    assert simulate == (5000, "0x1.6db73946ac25fp+0", "0x1.03512b36f464dp-7", 0, 0, 0)
    assert dominance == (3000, 0, 124)
    zeros = [0, 0, 0]
    assert counts == {
        "outer": ([983, 827, 156, *zeros, 394, 406, 762, 1229, 974, 622, *zeros, 825, 221, 125],
                  [963, 813, 153, *zeros, 386, 396, 742, 1208, 961, 610, *zeros, 801, 214, 123]),
        "schedule": ([985, 877, 133, *zeros, 397, 438, 795, 1257, 972, 621, *zeros, 862, 210, 106],
                     [282, 253, 30, *zeros, 318, 346, 609, 1257, 972, 621, *zeros, 368, 90, 43]),
        "combined": ([996, 869, 159, *zeros, 388, 443, 745, 1210, 1012, 611, *zeros, 885, 228, 121],
                     [307, 242, 54, *zeros, 292, 345, 552, 1192, 996, 605, *zeros, 426, 107, 52]),
    }
    assert trace == PolicyTrace(sampled=(0, 3), kept=(0, 3), start_times={0: 2, 3: 1},
                                selected=(3,), reads=(3,), utility=0.9305912099305473, spent=3)
