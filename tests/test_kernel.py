"""The batched rounding kernel against the scalar reference path on identical draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsubmax import constraints
from stochsubmax.greedy import SlotSolution
from stochsubmax.lattice import ConcaveOverModular, ThresholdCoverage, WeightedModular
from stochsubmax.model import Instance, ItemModel
from stochsubmax.policy import _run_policy, run_policy_batch
from stochsubmax.rounding import (
    BalancedCrs,
    crs_keep_batch,
    draw_block,
    greedy_keep,
    schedule_keep_batch,
    schedule_keep_set,
)


def _outer(draw, n):
    kind = draw(st.sampled_from(["cardinality", "partition", "explicit"]))
    if kind == "cardinality":
        return constraints.cardinality(n, draw(st.integers(0, n)))
    if kind == "partition":
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
        caps = [draw(st.integers(0, len(b))) for b in blocks]
        return constraints.partition(n, blocks, caps)
    maximal = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=3)
    )
    return constraints.explicit(n, maximal)


@st.composite
def policy_cases(draw):
    """Instance, outer family, utility, scheme and hand-built solution, with a draw seed.

    Costs reach past the budget, so some items have no start slot; items with
    slots may still get no solution mass.
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
        ts = sorted(rng.choice(np.arange(1, slots + 1), size=rng.integers(1, slots + 1),
                               replace=False).tolist())
        mass = 1.0 if rng.random() < 0.2 else rng.random()
        vs = rng.dirichlet(np.ones(len(ts))) * mass
        entries.extend((i, int(t), float(v)) for t, v in zip(ts, vs) if v > 0)
    marginals = np.zeros(n)
    for i, _, v in entries:
        marginals[i] += v
    sol = SlotSolution(
        n=n, budget=budget, entries=tuple(entries), marginals=marginals,
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    crs = BalancedCrs(kind=draw(st.sampled_from(["priority", "identity"])), scale=0.25)
    rows = draw(st.sampled_from([1, 2, 7]))
    return inst, sol, crs, rows, seed


@settings(max_examples=300)
@given(policy_cases())
def test_batch_matches_scalar_policy_on_identical_draws(case):
    inst, sol, crs, rows, seed = case
    f, outer = inst.utility, inst.outer
    d = draw_block(inst, np.random.default_rng(seed), rows)
    traces = []
    for r in range(rows):
        try:
            traces.append(_run_policy(
                inst, f, outer, crs, sol, d.states[r], d.u_sample[r], d.priorities[r], d.u_slot[r]
            ))
        except ValueError as exc:  # the identity scheme refuses a set outside the family
            assert crs.kind == "identity", exc
            with pytest.raises(ValueError, match="outside the outer family"):
                run_policy_batch(inst, f, outer, crs, sol, d)
            return
    run = run_policy_batch(inst, f, outer, crs, sol, d)
    for r, tr in enumerate(traces):
        assert tuple(np.flatnonzero(run.sampled[r])) == tr.sampled
        assert tuple(np.flatnonzero(run.kept[r])) == tr.kept
        assert {i: int(run.slots[r, i]) for i in tr.kept} == tr.start_times
        assert tuple(np.flatnonzero(run.selected[r])) == tuple(sorted(tr.selected))
        assert tuple(np.flatnonzero(run.reads[r])) == tuple(sorted(tr.reads))
        assert int(run.spent[r]) == tr.total_cost
        assert float(run.utility[r]) == tr.utility


def test_batch_edge_cases_match_scalar():
    # k = 0, B = 1, an item with no slot (cost equal to the budget), a cost
    # equal to its slot, and a run of many rows
    items = (
        ItemModel(probs=(1.0,), costs=(3,)),
        ItemModel(probs=(1.0,), costs=(1,)),
        ItemModel(probs=(1.0,), costs=(2,)),
    )
    sol = SlotSolution(
        n=3, budget=3, entries=((1, 1, 0.5), (1, 2, 0.5), (2, 1, 1.0)),
        marginals=np.array([0.0, 1.0, 1.0]), stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    for outer in (constraints.cardinality(3, 0), constraints.cardinality(3, 2)):
        inst = Instance(n=3, B=1, budget=3, items=items, outer=outer,
                        utility=WeightedModular(weights=(1.0, 2.0, 3.0)))
        crs = BalancedCrs(kind="priority", scale=0.25)
        d = draw_block(inst, np.random.default_rng(5), 64)
        run = run_policy_batch(inst, inst.utility, outer, crs, sol, d)
        for r in range(64):
            tr = _run_policy(inst, inst.utility, outer, crs, sol, d.states[r],
                             d.u_sample[r], d.priorities[r], d.u_slot[r])
            assert tuple(np.flatnonzero(run.selected[r])) == tuple(sorted(tr.selected))
            assert int(run.spent[r]) == tr.total_cost
        if outer.k == 0:
            assert not run.kept.any() and not run.selected.any()
        else:
            assert run.selected.any() and np.all(run.spent <= 3)


def test_sample_slots_rejects_masked_item_without_mass():
    sol = SlotSolution(
        n=2, budget=3, entries=((0, 1, 0.5),), marginals=np.array([0.5, 0.0]),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    u = np.full((2, 2), 0.3)
    assert sol.sample_slots(u, np.zeros((2, 2), dtype=bool)).tolist() == [[1, 0], [1, 0]]
    with pytest.raises(ValueError, match="item 1 has no slot mass"):
        sol.sample_slots(u, np.array([[True, False], [False, True]]))


def _random_outer(rng, n):
    kind = rng.integers(3)
    if kind == 0:
        return constraints.cardinality(n, rng.integers(0, n + 1))
    if kind == 1:
        labels = rng.integers(0, 3, size=n)
        blocks = [np.flatnonzero(labels == b) for b in np.unique(labels)]
        return constraints.partition(n, blocks, [rng.integers(0, len(b) + 1) for b in blocks])
    return constraints.explicit(
        n, [np.flatnonzero(rng.random(n) < 0.6) for _ in range(rng.integers(1, 4))]
    )


def test_independent_rows_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        outer = _random_outer(rng, n)
        mask = rng.random((20, n)) < rng.random()
        expected = [constraints.is_independent(outer, np.flatnonzero(row)) for row in mask]
        assert constraints.independent_rows(outer, mask).tolist() == expected


def test_crs_keep_batch_matches_greedy_keep():
    rng = np.random.default_rng(9)
    crs = BalancedCrs(kind="priority", scale=0.25)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        outer = _random_outer(rng, n)
        sampled = rng.random((20, n)) < 0.6
        priorities = rng.random((20, n))
        priorities[:, : n // 2] = 0.5  # ties fall back to the least index
        kept = crs_keep_batch(crs, outer, sampled, priorities)
        for r in range(20):
            expected = greedy_keep(outer, np.flatnonzero(sampled[r]), priorities[r])
            assert set(np.flatnonzero(kept[r])) == expected


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
        v = np.where(rng.random((15, n)) < 0.7, rng.integers(1, B + 1, size=(15, n)), 0)
        times = rng.integers(1, budget + 1, size=(15, n))
        kept = schedule_keep_batch(inst, v, times)
        for r in range(15):
            on = np.flatnonzero(v[r])
            expected = schedule_keep_set(inst, v[r], {int(i): int(times[r, i]) for i in on})
            assert set(np.flatnonzero(kept[r])) == expected
