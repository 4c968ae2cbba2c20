"""The batched rounding kernel against the scalar reference, tests/reference.py, on equal draws."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsubmax import constraints
from stochsubmax.constraints import in_scaled_polytope
from stochsubmax.greedy import SlotSolution
from stochsubmax.lattice import (
    ConcaveOverModular,
    ThresholdCoverage,
    WeightedModular,
    scatter_columns,
)
from stochsubmax.model import Instance, ItemModel, sample_realization_batch
from stochsubmax.policy import coupled_dominance_check, execute, run_policy_batch, simulate_batch
from stochsubmax.rounding import (
    MAPPINGS,
    BalancedCrs,
    BlockDraws,
    crs_keep_batch,
    draw_block,
    estimate_set_keep_rate,
    estimate_state_keep_rates,
    schedule_keep_batch,
    state_keep_batch,
)
from stochsubmax.seeds import derive_rng
from tests.conftest import examples
from tests.reference import _run_policy, greedy_keep, schedule_keep_set


def _outer(draw, n):
    if draw(st.sampled_from(["cardinality", "partition"])) == "cardinality":
        return constraints.cardinality(n, draw(st.integers(0, n)))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
    caps = [draw(st.integers(0, len(b))) for b in blocks]
    return constraints.partition(n, blocks, caps)


@st.composite
def policy_cases(draw):
    """Instance, outer family, utility, scheme and hand-built solution, with a draw seed.

    Costs reach past the budget, so some items have no start slot; items with
    slots may still get no solution mass. Each item with mass has one slot.
    """
    n = draw(st.integers(1, 6))
    B = draw(st.integers(1, 3))
    budget = draw(st.integers(1, 8))
    items = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(1, 4), min_size=B, max_size=B))
        costs = sorted(draw(st.lists(st.integers(1, budget + 1), min_size=B, max_size=B)))
        items.append(
            ItemModel(probs=tuple(w / sum(weights) for w in weights), costs=tuple(costs))
        )
    outer = _outer(draw, n)
    weights = tuple(float(w) for w in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    utility = draw(st.sampled_from([
        WeightedModular(weights=weights),
        ConcaveOverModular(weights=weights, curve="sqrt"),
        ThresholdCoverage(rates=tuple(int(w) for w in weights), element_weights=(1.0, 0.5, 0.25)),
    ]))
    inst = Instance(n=n, B=B, budget=budget, items=tuple(items), outer=outer, utility=utility)
    inst.require_valid()

    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    entries = []
    for i, slots in enumerate(inst.slot_counts):
        if slots == 0 or rng.random() < 0.2:
            continue
        mass = 1.0 if rng.random() < 0.2 else rng.random()
        if mass > 0:
            entries.append((i, int(rng.integers(1, slots + 1)), float(mass)))
    sol = SlotSolution(
        n=n, budget=budget, entries=tuple(entries),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    crs = BalancedCrs(kind="priority", scale=0.25)
    rows = draw(st.sampled_from([1, 2, 7]))
    return inst, sol, crs, rows, seed


def reference_draws(inst, sol, d):
    """The support-width thinned block and priorities of ``d`` at width n, 0 off
    the support: the draws the scalar reference reads (an item of marginal 0 is
    never sampled)."""
    return [scatter_columns(a, sol.support, inst.n) for a in (d.thinned, d.priorities)]


def assert_batch_is_reference_run(inst, sol, crs, rows, seed):
    """``run_policy_batch`` on a block of ``rows`` draws against the scalar reference
    row by row, and the block's outer tally against the oracle on each selected set."""
    f, outer = inst.utility, inst.outer
    d = draw_block(inst, sol, np.random.default_rng(seed), rows)
    thinned, priorities = reference_draws(inst, sol, d)
    traces = [_run_policy(inst, f, outer, sol, thinned[r], priorities[r]) for r in range(rows)]
    run = run_policy_batch(inst, f, outer, crs, sol, d)
    support = sol.support
    tally = constraints.independent_rows(outer, run.selected, support)
    for r, tr in enumerate(traces):
        assert tuple(support[run.sampled[r]]) == tr.sampled
        assert tuple(support[run.kept[r]]) == tr.kept
        assert dict(zip(support[run.kept[r]].tolist(), sol.slots[run.kept[r]].tolist())) \
            == tr.start_times
        assert tuple(support[run.selected[r]]) == tuple(sorted(tr.selected))
        assert tuple(support[run.reads[r]]) == tuple(sorted(tr.reads))
        assert int(run.spent[r]) == tr.total_cost
        assert float(run.utility[r]) == tr.utility
        assert tally[r] == constraints.is_independent(outer, tr.selected)


@settings(max_examples=examples(300))
@given(policy_cases())
def test_batch_matches_scalar_policy_on_identical_draws(case):
    assert_batch_is_reference_run(*case)


@st.composite
def wide_policy_cases(draw):
    """An instance of up to 40 items under cardinality or a partition, and a
    hand-built solution with at least 10 support columns, with a draw seed.

    Costs stay at most a third of the budget, so every item has a start slot,
    and slots are drawn from a few values, so columns tie.
    """
    n = draw(st.integers(10, 40))
    B = draw(st.integers(1, 3))
    budget = draw(st.integers(12, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        w = rng.integers(1, 5, size=B)
        costs = sorted(int(c) for c in rng.integers(1, budget // 3 + 1, size=B))
        items.append(ItemModel(probs=tuple(w / w.sum()), costs=tuple(costs)))
    if draw(st.booleans()):
        outer = constraints.cardinality(n, draw(st.integers(0, n)))
    else:
        labels = rng.integers(0, 4, size=n)
        blocks = [np.flatnonzero(labels == b) for b in np.unique(labels)]
        outer = constraints.partition(n, blocks, [int(rng.integers(0, len(b) + 1))
                                                  for b in blocks])
    weights = tuple(float(w) for w in rng.integers(0, 4, size=n))
    utility = draw(st.sampled_from([
        WeightedModular(weights=weights),
        ConcaveOverModular(weights=weights, curve="sqrt"),
        ThresholdCoverage(rates=tuple(int(w) for w in weights), element_weights=(1.0, 0.5, 0.25)),
    ]))
    inst = Instance(n=n, B=B, budget=budget, items=tuple(items), outer=outer, utility=utility)
    inst.require_valid()
    support = np.sort(rng.choice(n, size=draw(st.integers(10, n)), replace=False))
    top = rng.integers(1, 4, size=n) * (inst.slot_counts // 3) + 1  # a few slot values
    entries = tuple(
        (int(i), int(min(top[i], inst.slot_counts[i])), 1.0 if rng.random() < 0.2
         else float(rng.uniform(0.05, 1.0)))
        for i in support
    )
    sol = SlotSolution(n=n, budget=budget, entries=entries, stop_scale=0.25, steps=1,
                       grad_samples=1, seed=0)
    assert len(sol.support) >= 10
    crs = BalancedCrs(kind="priority", scale=0.25)
    return inst, sol, crs, draw(st.sampled_from([1, 7, 64])), seed


@settings(max_examples=examples(40))
@given(wide_policy_cases())
def test_wide_supports_match_scalar_policy(case):
    """The gate scan and the outer tally over 10 to 40 support columns, against
    the scalar reference on identical draws."""
    assert_batch_is_reference_run(*case)


def assert_execute_is_reference_run(inst, sol, crs, states, seed):
    """``execute`` against the reference run on its draws: the rows of one "policy"
    stream, the first thinning the realization ``states`` by the marginals."""
    f, outer = inst.utility, inst.outer
    u_sample, priorities = derive_rng(seed, "policy").random((2, inst.n))
    thinned = np.where(u_sample < sol.marginals, states, 0)
    ref = _run_policy(inst, f, outer, sol, thinned, priorities)
    trace = execute(inst, f, outer, crs, sol, states, seed)
    assert (trace.sampled, trace.kept) == (ref.sampled, ref.kept)
    assert trace.start_times == ref.start_times
    assert trace.selected == ref.selected and trace.reads == ref.reads
    assert trace.spent == ref.total_cost
    assert trace.utility == ref.utility


@settings(max_examples=examples(100))
@given(policy_cases())
def test_execute_is_the_reference_run_on_the_policy_draws(case):
    inst, sol, crs, _, seed = case
    states = sample_realization_batch(inst, np.random.default_rng(seed), 1)[0]
    assert_execute_is_reference_run(inst, sol, crs, states, seed)


def test_execute_is_the_reference_run_on_a_fixed_case(partition_instance):
    # hand-built solution whose items start at slot 1 or at their latest slot,
    # so the scan order differs from the index order
    inst = partition_instance
    entries = tuple((i, 1 if i % 2 else int(inst.slot_counts[i]), 0.6) for i in range(inst.n))
    sol = SlotSolution(n=inst.n, budget=inst.budget, entries=entries, stop_scale=0.25,
                       steps=1, grad_samples=1, seed=0)
    crs = BalancedCrs(kind="priority", scale=0.25)
    states = sample_realization_batch(inst, np.random.default_rng(3), 40)
    for seed in range(40):
        assert_execute_is_reference_run(inst, sol, crs, states[seed], seed)


def test_batch_edge_cases_match_scalar():
    # k = 0, B = 1, an item with no slot (cost equal to the budget), a cost
    # equal to its slot, and a run of many rows
    items = (
        ItemModel(probs=(1.0,), costs=(3,)),
        ItemModel(probs=(1.0,), costs=(1,)),
        ItemModel(probs=(1.0,), costs=(2,)),
    )
    sol = SlotSolution(
        n=3, budget=3, entries=((1, 2, 1.0), (2, 1, 1.0)),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    for outer in (constraints.cardinality(3, 0), constraints.cardinality(3, 2)):
        inst = Instance(n=3, B=1, budget=3, items=items, outer=outer,
                        utility=WeightedModular(weights=(1.0, 2.0, 3.0)))
        crs = BalancedCrs(kind="priority", scale=0.25)
        d = draw_block(inst, sol, np.random.default_rng(5), 64)
        run = run_policy_batch(inst, inst.utility, outer, crs, sol, d)
        thinned, priorities = reference_draws(inst, sol, d)
        for r in range(64):
            tr = _run_policy(inst, inst.utility, outer, sol, thinned[r], priorities[r])
            assert tuple(sol.support[run.selected[r]]) == tuple(sorted(tr.selected))
            assert int(run.spent[r]) == tr.total_cost
        if outer.k == 0:
            assert not run.kept.any() and not run.selected.any()
        else:
            assert run.selected.any() and np.all(run.spent <= 3)


def test_solution_slots_are_one_per_support_item():
    # the slot vector holds the support columns' slots; an item of marginal 0
    # is no column, whatever its entry, and an item with two entries breaks the
    # one-slot rule, as does an item outside 1..n
    kw = dict(n=3, budget=3, stop_scale=0.25, steps=1, grad_samples=1, seed=0)
    sol = SlotSolution(entries=((0, 2, 0.5), (1, 3, 0.0), (2, 1, 0.25)), **kw)
    assert sol.marginals.tolist() == [0.5, 0.0, 0.25]
    assert sol.support.tolist() == [0, 2] and sol.slots.tolist() == [2, 1]
    with pytest.raises(ValueError, match="item 3 has more than one slot entry"):
        SlotSolution(entries=((2, 1, 0.25), (2, 2, 0.25)), **kw)
    for item in (3, -1):
        with pytest.raises(ValueError, match=f"solution item {item + 1} is outside 1..3"):
            SlotSolution(entries=((0, 1, 0.25), (item, 1, 0.25)), **kw)


def _random_outer(rng, n):
    if rng.integers(2) == 0:
        return constraints.cardinality(n, rng.integers(0, n + 1))
    labels = rng.integers(0, 3, size=n)
    blocks = [np.flatnonzero(labels == b) for b in np.unique(labels)]
    return constraints.partition(n, blocks, [rng.integers(0, len(b) + 1) for b in blocks])


def test_independent_rows_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        outer = _random_outer(rng, n)
        mask = rng.random((20, n)) < rng.random()
        expected = [constraints.is_independent(outer, np.flatnonzero(row)) for row in mask]
        assert constraints.independent_rows(outer, mask).tolist() == expected


def _random_support(rng, n):
    """All n items half the time, else a random subset, by increasing id."""
    if rng.random() < 0.5:
        return np.arange(n)
    return np.flatnonzero(rng.random(n) < 0.6)


def test_crs_keep_batch_matches_greedy_keep():
    rng = np.random.default_rng(9)
    crs = BalancedCrs(kind="priority", scale=0.25)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        outer = _random_outer(rng, n)
        support = _random_support(rng, n)
        sampled = rng.random((20, len(support))) < 0.6
        priorities = rng.random((20, len(support)))
        priorities[:, : len(support) // 2] = 0.5  # ties fall back to the least index
        kept = crs_keep_batch(crs, outer, sampled, priorities, support)
        for r in range(20):
            by_item = dict(zip(support.tolist(), priorities[r]))
            expected = greedy_keep(outer, support[sampled[r]], by_item)
            assert set(support[kept[r]]) == expected


def test_schedule_keep_batch_matches_schedule_keep_set():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n, B, budget = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        items = tuple(
            ItemModel(probs=(1.0 / B,) * B,
                      costs=tuple(sorted(int(c) for c in rng.integers(1, budget + 1, size=B))))
            for _ in range(n)
        )
        inst = Instance(n=n, B=B, budget=budget, items=items,
                        outer=constraints.cardinality(n, n),
                        utility=WeightedModular(weights=(1.0,) * n))
        support = _random_support(rng, n)
        width = (15, len(support))
        v = np.where(rng.random(width) < 0.7, rng.integers(1, B + 1, size=width), 0)
        slots = rng.integers(1, budget + 1, size=len(support))
        sol = SlotSolution(n=n, budget=budget,
                           entries=tuple((int(i), int(t), 0.5) for i, t in zip(support, slots)),
                           stop_scale=0.25, steps=1, grad_samples=1, seed=0)
        kept = schedule_keep_batch(inst, v, sol)
        wide_v = scatter_columns(v, support, n)
        times = dict(zip(support.tolist(), slots.tolist()))
        for r in range(15):
            on = np.flatnonzero(wide_v[r])
            expected = schedule_keep_set(inst, wide_v[r], {int(i): times[int(i)] for i in on})
            assert set(support[kept[r]]) == expected


@st.composite
def padded_cases(draw):
    """A ThresholdCoverage instance and solution, and the same with items of
    marginal 0 inserted at random positions.

    Returns (instance, solution, padded instance, padded solution, new id of
    each original item, seed).
    """
    n = draw(st.integers(1, 5))
    pad = draw(st.integers(1, 4))
    B = draw(st.integers(1, 3))
    budget = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    total = n + pad
    new_id = np.sort(rng.choice(total, size=n, replace=False))

    def item():
        w = rng.integers(1, 4, size=B)
        costs = sorted(int(c) for c in rng.integers(1, budget, size=B))
        return ItemModel(probs=tuple(w / w.sum()), costs=tuple(costs))

    items = [item() for _ in range(total)]
    rates = [int(r) for r in rng.integers(0, 4, size=total)]
    if draw(st.sampled_from(["cardinality", "partition"])) == "cardinality":
        k = draw(st.integers(0, n))
        outers = constraints.cardinality(n, k), constraints.cardinality(total, k)
    else:
        labels = rng.integers(0, 2, size=total)  # padded items join a block too
        blocks = [b for b in (np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)) if b.size]
        caps = [int(rng.integers(0, len(b) + 1)) for b in blocks]
        position = {int(j): i for i, j in enumerate(new_id)}
        small = [[position[j] for j in b.tolist() if j in position] for b in blocks]
        nonempty = [(b, c) for b, c in zip(small, caps) if b]
        outers = (
            constraints.partition(n, [b for b, _ in nonempty], [c for _, c in nonempty]),
            constraints.partition(total, blocks, caps),
        )
    weights = (1.0, 0.5, 0.25, 2.0)
    small = Instance(n=n, B=B, budget=budget, items=tuple(items[j] for j in new_id),
                     outer=outers[0],
                     utility=ThresholdCoverage(rates=tuple(rates[j] for j in new_id),
                                               element_weights=weights))
    big = Instance(n=total, B=B, budget=budget, items=tuple(items), outer=outers[1],
                   utility=ThresholdCoverage(rates=tuple(rates), element_weights=weights))
    small.require_valid()
    big.require_valid()

    entries = [
        (i, int(rng.integers(1, slots + 1)), float(rng.uniform(0.05, 0.5)))
        for i, slots in enumerate(small.slot_counts)
        if slots and rng.random() >= 0.2
    ]

    def solution(width, ids):
        mapped = tuple((int(ids[i]), t, v) for i, t, v in entries)
        return SlotSolution(n=width, budget=budget, entries=mapped, stop_scale=0.25, steps=1,
                            grad_samples=1, seed=0)

    return small, solution(n, np.arange(n)), big, solution(total, new_id), new_id, seed


def _row_values(row):
    """A keep-rate row without its item id; NaN compares equal to NaN."""
    return (row.state, row.mapping, repr(row.value), repr(row.se), row.events, row.status)


@settings(max_examples=examples(60))
@given(padded_cases())
def test_zero_marginal_items_change_nothing(case):
    """Items of marginal 0 are never drawn for: padding with them leaves the
    simulation summary, the dominance report and the keep-rate rows of the
    original items bit for bit, and the padded items' rows insufficient."""
    small, sol, big, padded, new_id, seed = case
    crs = BalancedCrs(kind="priority", scale=1.0)
    assert padded.support.tolist() == new_id[sol.support].tolist()
    inside = in_scaled_polytope(small.outer, sol.marginals, 1.0)
    assert in_scaled_polytope(big.outer, padded.marginals, 1.0) == inside
    args = [(inst, inst.utility, inst.outer, crs, s) for inst, s in ((small, sol), (big, padded))]
    assert simulate_batch(*args[0], 300, seed) == simulate_batch(*args[1], 300, seed)
    assert coupled_dominance_check(*args[0], 300, seed) == coupled_dominance_check(
        *args[1], 300, seed
    )
    outside = np.setdiff1d(np.arange(big.n), new_id)
    estimates = [
        lambda inst, s, m=m: estimate_state_keep_rates(m, inst, inst.outer, crs, s, 300, seed)
        for m in MAPPINGS
    ]
    if inside:
        estimates.append(
            lambda inst, s: estimate_set_keep_rate(crs, inst.outer, s.marginals, 300, seed)
        )
    for estimate in estimates:
        rows = estimate(small, sol)
        by_item = {(r.item, r.state): r for r in estimate(big, padded)}
        assert len(by_item) == len(rows) // small.n * big.n
        for r in rows:
            assert _row_values(by_item[int(new_id[r.item]), r.state]) == _row_values(r)
        assert all(r.status == "insufficient" for (i, _), r in by_item.items() if i in outside)


@st.composite
def lazy_cases(draw):
    """An instance of up to 8 items, a hand-built solution and a scheme, with a draw seed.

    The family is cardinality with k = 0, cardinality with k = n (at least
    every support's width), or one of :func:`_outer`'s: cardinality or a
    partition.
    """
    n = draw(st.integers(1, 8))
    B = draw(st.integers(1, 3))
    budget = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        w = rng.integers(1, 5, size=B)
        costs = sorted(int(c) for c in rng.integers(1, budget + 1, size=B))
        items.append(ItemModel(probs=tuple(w / w.sum()), costs=tuple(costs)))
    family = draw(st.sampled_from(["k = 0", "k = n", "drawn"]))
    if family == "drawn":
        outer = _outer(draw, n)
    else:
        outer = constraints.cardinality(n, 0 if family == "k = 0" else n)
    weights = tuple(float(w) for w in rng.integers(0, 4, size=n))
    inst = Instance(n=n, B=B, budget=budget, items=tuple(items), outer=outer,
                    utility=WeightedModular(weights=weights))
    inst.require_valid()
    entries = tuple(
        (i, int(rng.integers(1, slots + 1)), 1.0 if rng.random() < 0.2 else float(rng.random()))
        for i, slots in enumerate(inst.slot_counts.tolist())
        if slots and rng.random() < 0.8
    )
    sol = SlotSolution(n=n, budget=budget, entries=entries, stop_scale=0.25, steps=1,
                       grad_samples=1, seed=0)
    crs = BalancedCrs(kind="priority", scale=0.25)
    return inst, sol, crs, draw(st.sampled_from([1, 5, 40])), seed


def reads_priorities(outer, sampled, support) -> bool:
    """Does the scheme read priorities on this block: a row over k or over a block's cap?"""
    if outer.kind == "cardinality":
        return bool(np.any(sampled.sum(axis=1) > outer.k))
    return any(np.any(sampled[:, np.isin(support, block)].sum(axis=1) > cap)
               for block, cap in zip(outer.blocks, outer.caps))


@st.composite
def one_rule_cases(draw):
    """A cardinality or partition family over n <= 12 items, caps 0 to 3, a support
    and a block of sampled rows with priorities rounded to one decimal, so that
    ties occur.

    Half the supports are drawn inside every cap, so they fit; the others are
    any set of items, empty included. Blocks may get no support column.
    """
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        outer, blocks, caps = constraints.cardinality(n, k), [list(range(n))], [k]
    else:
        labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
        caps = draw(st.lists(st.integers(0, 3), min_size=len(blocks), max_size=len(blocks)))
        outer = constraints.partition(n, blocks, caps)
    if draw(st.booleans()):
        support = {i for b, cap in zip(blocks, caps)
                   for i in draw(st.sets(st.sampled_from(b), max_size=cap))}
    else:
        support = draw(st.sets(st.integers(0, n - 1)))
    support = np.array(sorted(support), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 8)), len(support))
    sampled = rng.random(shape) < draw(st.sampled_from([0.2, 0.5, 0.9]))
    return outer, support, sampled, np.round(rng.random(shape), 1)


@settings(max_examples=examples(300))
@given(one_rule_cases())
def test_one_priority_rule_matches_reference(case):
    """The priority rule keeps, row by row on the item ids, what
    tests/reference.py::greedy_keep keeps, and reads the priorities iff a row is over
    some cap (:func:`reads_priorities`)."""
    outer, support, sampled, priorities = case
    crs = BalancedCrs(kind="priority", scale=0.25)
    reads = []
    kept = crs_keep_batch(crs, outer, sampled, lambda: reads.append(1) or priorities, support)
    assert bool(reads) == reads_priorities(outer, sampled, support)
    for r in range(len(sampled)):
        by_item = dict(zip(support.tolist(), priorities[r].tolist()))
        expected = greedy_keep(outer, support[sampled[r]].tolist(), by_item)
        assert set(support[kept[r]].tolist()) == expected, r


def outcome(fn, draws):
    """The arrays ``fn(draws)`` returns, as lists."""
    return [np.asarray(a).tolist() for a in fn(draws)]


@settings(max_examples=examples(150))
@given(lazy_cases())
def test_lazy_priorities_move_no_bit(case):
    """Every kernel gives on lazily drawn priorities what it gives on the second
    half of one eager ``random((2, R, n_s))`` draw, whose first half the thinned
    block reads as ``(n_s, R)``; the generator draws the priorities exactly where
    a row needs them."""
    inst, sol, crs, rows, seed = case
    f, outer, support = inst.utility, inst.outer, sol.support

    def lazy():
        rng = np.random.default_rng(seed)
        return draw_block(inst, sol, rng, rows), rng

    after_all = np.random.default_rng(seed)
    priorities = after_all.random((2, rows, len(support)))[1]
    e = BlockDraws(lazy()[0].thinned, priorities)
    after_uniforms = np.random.default_rng(seed)
    after_uniforms.random((rows, len(support)))
    sampled = e.thinned > 0
    needed = reads_priorities(outer, sampled, support)
    consumers = {
        "crs": (lambda d: [crs_keep_batch(crs, outer, sampled, lambda: d.priorities, support)],
                needed),
        "policy": (lambda d: astuple(run_policy_batch(inst, f, outer, crs, sol, d)), needed),
    }
    for mapping in MAPPINGS:
        consumers[mapping] = (lambda d, m=mapping: state_keep_batch(m, inst, outer, crs, sol, d),
                              needed and mapping != "schedule")
    for name, (run, draws_priorities) in consumers.items():
        d, rng = lazy()
        assert outcome(run, d) == outcome(run, e), name
        ended = (after_all if draws_priorities else after_uniforms).bit_generator.state
        assert rng.bit_generator.state == ended, name
