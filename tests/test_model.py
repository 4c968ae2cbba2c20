import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from stochsubmax import constraints
from stochsubmax.generators import random_instance
from stochsubmax.lattice import WeightedModular
from stochsubmax.model import (
    Instance,
    ItemModel,
    expected_truncated_cost,
    instance_from_json,
    instance_to_json,
    sample_realization,
    sample_realization_batch,
    validate_instance,
)
from tests.conftest import examples


def build(items, budget=5, outer=None, weights=None):
    n = len(items)
    B = len(items[0].probs)
    return Instance(
        n=n,
        B=B,
        budget=budget,
        items=tuple(items),
        outer=outer or constraints.cardinality(n, n),
        utility=WeightedModular(weights=weights or tuple([1.0] * n)),
    )


def test_valid_instance_has_no_violations(pair_instance):
    assert validate_instance(pair_instance) == []


def test_decreasing_costs_flagged():
    inst = build([ItemModel(probs=(0.5, 0.5), costs=(2, 1))])
    msgs = validate_instance(inst)
    assert any("nondecreasing" in m for m in msgs)


def test_unnormalized_distribution_flagged():
    inst = build([ItemModel(probs=(0.5, 0.4), costs=(1, 2))])
    msgs = validate_instance(inst)
    assert any("sums to 0.9" in m for m in msgs)


def test_zero_cost_flagged():
    inst = build([ItemModel(probs=(1.0,), costs=(0,))])
    assert any("integers >= 1" in m for m in validate_instance(inst))


def test_bad_budget_flagged():
    inst = build([ItemModel(probs=(1.0,), costs=(1,))], budget=0)
    assert any("budget" in m for m in validate_instance(inst))


def test_wrong_outer_size_flagged():
    inst = build(
        [ItemModel(probs=(1.0,), costs=(1,))], outer=constraints.cardinality(3, 1)
    )
    assert validate_instance(inst)


def test_truncated_cost_values():
    item = ItemModel(probs=(0.5, 0.5), costs=(1, 2))
    assert expected_truncated_cost(item, 1) == 1.0
    assert expected_truncated_cost(item, 2) == 1.5
    assert expected_truncated_cost(item, 0) == 0.0
    with pytest.raises(ValueError):
        expected_truncated_cost(item, -1)


@given(
    st.lists(st.floats(0.01, 1), min_size=1, max_size=4),
    st.lists(st.integers(0, 10), min_size=2, max_size=2),
)
@settings(max_examples=60)
def test_truncated_cost_monotone_and_capped(raw_probs, ts):
    probs = tuple(p / sum(raw_probs) for p in raw_probs)
    costs = tuple(range(1, len(probs) + 1))
    item = ItemModel(probs=probs, costs=costs)
    lo, hi = sorted(ts)
    assert expected_truncated_cost(item, lo) <= expected_truncated_cost(item, hi) + 1e-12
    assert expected_truncated_cost(item, hi) <= min(hi, costs[-1]) + 1e-12


def test_sampling_deterministic(pair_instance):
    a = sample_realization(pair_instance, 42)
    b = sample_realization(pair_instance, 42)
    assert_array_equal(a, b)
    assert a.dtype == np.int64


def test_sampling_degenerate_cases():
    one_state = build([ItemModel(probs=(1.0,), costs=(1,))] * 3, budget=4)
    assert_array_equal(sample_realization(one_state, 7), [1, 1, 1])
    point_mass = build([ItemModel(probs=(0.0, 1.0), costs=(1, 2))], budget=4)
    for seed in range(20):
        assert sample_realization(point_mass, seed)[0] == 2


def test_sampling_frequency(pair_instance):
    draws = np.array([sample_realization(pair_instance, s)[0] for s in range(10_000)])
    freq = np.mean(draws == 1)
    se = np.sqrt(0.25 / len(draws))
    assert abs(freq - 0.5) < 3 * se


def test_batch_sampling_matches_per_item_searchsorted():
    # the row-by-row inverse CDF the batch sampler replaces; zero-probability
    # states tie cumulative entries and uniforms may hit one exactly
    items = [
        ItemModel(probs=(0.25, 0.0, 0.75), costs=(1, 2, 3)),
        ItemModel(probs=(0.0, 0.5, 0.5), costs=(1, 1, 2)),
        ItemModel(probs=(1.0, 0.0, 0.0), costs=(1, 1, 1)),
    ]
    inst = build(items)
    u = np.random.default_rng(3).random((5000, 3))
    u[:4] = [[0.25, 0.5, 1.0 - 1e-16], [0.0, 0.0, 0.0], [0.25, 0.5, 0.5], [0.3, 0.7, 0.1]]
    states = sample_realization_batch(inst, _FixedUniforms(u), 5000)
    cum = inst.state_cum_probs
    expected = np.stack(
        [1 + np.searchsorted(cum[i], u[:, i], side="right") for i in range(3)], axis=1
    )
    assert_array_equal(states, np.minimum(expected, 3))


class _FixedUniforms:
    """Generator stand-in whose ``random`` returns a fixed array."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert shape == self.u.shape
        return self.u


def test_sampling_rejects_invalid():
    inst = build([ItemModel(probs=(0.5, 0.4), costs=(1, 2))])
    with pytest.raises(ValueError):
        sample_realization(inst, 0)


def test_json_round_trip_bit_exact(pair_instance, partition_instance):
    for inst in (pair_instance, partition_instance):
        text = instance_to_json(inst)
        again = instance_from_json(text)
        assert again == inst
        assert instance_to_json(again) == text


@settings(max_examples=examples(100))
@given(
    seed=st.integers(0, 2**32 - 1),
    n_max=st.integers(1, 12),
    B_max=st.integers(1, 4),
    budget_max=st.integers(2, 20),
)
def test_random_instance_json_round_trip_bit_exact(seed, n_max, B_max, budget_max):
    inst = random_instance(seed, n_max=n_max, B_max=B_max, budget_max=budget_max)
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again == inst
    assert again.prob_matrix.tobytes() == inst.prob_matrix.tobytes()
    assert again.cost_matrix.tobytes() == inst.cost_matrix.tobytes()
    assert instance_to_json(again) == text


def test_json_uses_one_based_ids(partition_instance):
    doc = json.loads(instance_to_json(partition_instance))
    assert doc["outer"]["blocks"] == [[1, 2], [3]]


def test_json_round_trip_explicit_outer():
    inst = build(
        [ItemModel(probs=(1.0,), costs=(1,))] * 3,
        outer=constraints.explicit(3, [[0, 1], [2]]),
    )
    doc = json.loads(instance_to_json(inst))
    assert doc["outer"]["maximal"] == [[1, 2], [3]]
    assert instance_from_json(instance_to_json(inst)) == inst


def test_slot_counts(pair_instance):
    assert_array_equal(pair_instance.slot_counts, [3, 3])
    blocked = build([ItemModel(probs=(1.0,), costs=(6,))], budget=5)
    assert_array_equal(blocked.slot_counts, [0])


def test_random_instances_serialize_for_every_outer_kind():
    # constructors must normalize array-backed ids into plain ints
    seen = set()
    seed = 0
    while seen != {"cardinality", "partition", "explicit"}:
        inst = random_instance(seed)
        seen.add(inst.outer.kind)
        assert instance_from_json(instance_to_json(inst)) == inst
        seed += 1


def _pair_doc():
    from stochsubmax.generators import symmetric_pair_instance

    return json.loads(instance_to_json(symmetric_pair_instance()))


def _set(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("path,value,field", [
    (("items", 0, "costs", 0), 1.7, "items[0].costs[0]"),
    (("items", 1, "costs", 1), "2", "items[1].costs[1]"),
    (("budget",), 5.9, "budget"),
    (("budget",), True, "budget"),
    (("n",), 2.5, "n"),
    (("B",), 2.2, "B"),
    (("outer", "k"), 1.5, "outer.k"),
])
def test_from_json_rejects_non_integral_values(path, value, field):
    text = _set(_pair_doc(), path, value)
    with pytest.raises(ValueError, match=field.replace("[", r"\[").replace(".", r"\.")):
        instance_from_json(text)


@pytest.mark.parametrize("outer,field", [
    ({"kind": "partition", "blocks": [[1, 2.5]], "caps": [1]}, r"outer\.blocks\[0\]\[1\]"),
    ({"kind": "partition", "blocks": [[1, 2]], "caps": [1.5]}, r"outer\.caps\[0\]"),
    ({"kind": "explicit", "maximal": [[1], [2.0001]]}, r"outer\.maximal\[1\]\[0\]"),
])
def test_from_json_rejects_non_integral_outer_entries(outer, field):
    doc = _pair_doc()
    doc["outer"] = outer
    with pytest.raises(ValueError, match=field):
        instance_from_json(json.dumps(doc))


def test_from_json_rejects_non_numeric_probability():
    text = _set(_pair_doc(), ("items", 0, "probs", 1), "0.5")
    with pytest.raises(ValueError, match=r"items\[0\]\.probs\[1\]"):
        instance_from_json(text)


def test_from_json_accepts_integral_floats():
    inst = instance_from_json(_set(_pair_doc(), ("budget",), 5.0))
    assert inst.budget == 5 and type(inst.budget) is int
    assert validate_instance(inst) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_probability_flagged(bad):
    inst = build([ItemModel(probs=(bad, 0.5), costs=(1, 2))])
    assert any("non-finite state probability" in m for m in validate_instance(inst))


def test_nan_probability_from_json_flagged():
    inst = instance_from_json(
        instance_to_json(build([ItemModel(probs=(0.5, 0.5), costs=(1, 2))]))
        .replace("0.5,", "NaN,", 1)
    )
    assert np.isnan(inst.items[0].probs[0])
    assert any("non-finite" in m for m in validate_instance(inst))


INSTANCE_MUTATIONS = ("cost fraction", "count fraction", "probability nan",
                      "probability negative", "cost decreasing", "item count", "B mismatch",
                      "outer kind", "outer id")


@settings(max_examples=examples(100))
@given(st.integers(0, 2**32 - 1), st.sampled_from(INSTANCE_MUTATIONS))
def test_mutated_instance_documents_are_rejected_by_name(seed, mutation):
    """A mutated ``instance_to_json`` document fails its load or its validation.

    The load's ``ValueError`` starts with the mutated field, or a violation
    starts with it or with the mutated item; any other exception, or a
    document that loads and validates clean, fails the test.
    """
    rng = np.random.default_rng(seed)
    kinds = ("partition", "explicit") if mutation == "outer id" else (
        "cardinality", "partition", "explicit")
    inst = random_instance(seed, n_max=6, kinds=kinds)
    doc = json.loads(instance_to_json(inst))
    i, s = int(rng.integers(inst.n)), int(rng.integers(inst.B))
    item, field = doc["items"][i], f"item {i + 1}:"
    if mutation == "cost fraction":
        item["costs"][s] += 0.5
        field = f"items[{i}].costs[{s}]"
    elif mutation == "count fraction":
        field = str(rng.choice(["n", "B", "budget"]))
        doc[field] += 0.5
    elif mutation == "probability nan":
        item["probs"][s] = float("nan")
    elif mutation == "probability negative":
        item["probs"][s] = -item["probs"][s]
    elif mutation == "cost decreasing":
        assume(inst.B >= 2)
        s = max(s, 1)
        costs = item["costs"]
        if costs[s - 1] > 1:
            costs[s] = costs[s - 1] - 1
        else:
            costs[s - 1] = costs[s] + 1
    elif mutation == "item count":
        if rng.random() < 0.5:
            doc["items"].pop()
        else:
            doc["items"].append(item)
        field = f"expected {inst.n} items"
    elif mutation == "B mismatch":
        doc["B"] = inst.B + 1 if inst.B == 1 or rng.random() < 0.5 else inst.B - 1
    elif mutation == "outer kind":
        doc["outer"]["kind"] = str(rng.choice(["matroid", "Cardinality", ""]))
        field = "outer.kind"
    else:
        key = "blocks" if inst.outer.kind == "partition" else "maximal"
        groups = [r for r, group in enumerate(doc["outer"][key]) if group]
        assume(groups)
        r = int(rng.choice(groups))
        j = int(rng.integers(len(doc["outer"][key][r])))
        doc["outer"][key][r][j] = int(rng.choice([0, -1, inst.n + 1]))
        field = f"outer.{key}[{r}][{j}]"
    try:
        loaded = instance_from_json(json.dumps(doc))
    except ValueError as exc:
        assert str(exc).startswith(field + " "), str(exc)
        return
    violations = validate_instance(loaded)
    assert any(v.startswith(field) for v in violations), violations
