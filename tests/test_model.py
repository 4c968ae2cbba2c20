import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from stochsubmax import constraints
from stochsubmax.errors import InvalidInputError
from stochsubmax.generators import random_instance
from stochsubmax.lattice import FAMILY_COVERAGE, WeightedModular
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
from tests import reference
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
    # the oracle-only explicit kind is gone: its documents fail the load by name
    doc = _pair_doc()
    doc["outer"] = {"kind": "explicit", "maximal": [[1], [2]]}
    with pytest.raises(InvalidInputError,
                       match="outer.kind must be cardinality or partition, got 'explicit'"):
        instance_from_json(json.dumps(doc))


def test_slot_counts(pair_instance):
    assert_array_equal(pair_instance.slot_counts, [3, 3])
    blocked = build([ItemModel(probs=(1.0,), costs=(6,))], budget=5)
    assert_array_equal(blocked.slot_counts, [0])


def test_random_instances_serialize_for_every_outer_kind():
    # constructors must normalize array-backed ids into plain ints
    seen = set()
    for seed in range(20):
        inst = random_instance(seed)
        seen.add(inst.outer.kind)
        assert instance_from_json(instance_to_json(inst)) == inst
    assert seen == {"cardinality", "partition"}


def _pair_doc():
    from stochsubmax.generators import symmetric_pair_instance

    return json.loads(instance_to_json(symmetric_pair_instance()))


def _set(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


_CONCAVE = {"family": "concave-over-modular"}
_COVERAGE = {"family": "weighted-coverage-by-threshold"}


@pytest.mark.parametrize("path,value,field", [
    (("items", 0, "costs", 0), 1.7, "items[0].costs[0]"),
    (("items", 1, "costs", 1), "2", "items[1].costs[1]"),
    (("budget",), 5.9, "budget"),
    (("budget",), True, "budget"),
    (("n",), 2.5, "n"),
    (("B",), 2.2, "B"),
    (("outer", "k"), 1.5, "outer.k"),
    (("utility", "params", "weights", 0), True, "utility.params.weights[0]"),
    (("utility", "params", "weights", 1), "1.0", "utility.params.weights[1]"),
    (("utility", "params", "weights", 0), float("nan"), "utility.params.weights[0]"),
    (("utility", "params", "weights", 1), -1.0, "utility.params.weights[1]"),
    (("utility", "params", "weights"), [1.0, 1.0, 1.0],
     "utility.params.weights is over 3 items, instance has 2"),
    (("utility", "family"), "modular", "utility.family"),
    (("utility",), _CONCAVE | {"params": {"weights": [1.0, 1.0], "curve": "cap", "theta": True}},
     "utility.params.theta"),
    (("utility",), _CONCAVE | {"params": {"weights": [1.0, 1.0], "curve": "cap", "theta": "2"}},
     "utility.params.theta"),
    (("utility",), _CONCAVE | {"params": {"weights": [1.0, 1.0], "curve": "log"}},
     "utility.params.curve"),
    (("utility",), _COVERAGE | {"params": {"rates": [1, 2], "element_weights": [0.5, True]}},
     "utility.params.element_weights[1]"),
    (("utility",), _COVERAGE | {"params": {"rates": [1, 2, 1], "element_weights": [0.5]}},
     "utility.params.rates is over 3 items, instance has 2"),
    (("utility",), 3, "utility must be an object, got 3"),
    (("utility", "params"), 3, "utility.params must be an object, got 3"),
    (("utility", "params"), [1.0, 1.0], "utility.params must be an object"),
    (("outer",), 3, "outer must be an object, got 3"),
    (("outer",), None, "outer must be an object, got None"),
])
def test_from_json_rejects_non_integral_values(path, value, field):
    text = _set(_pair_doc(), path, value)
    with pytest.raises(InvalidInputError, match=field.replace("[", r"\[").replace(".", r"\.")):
        instance_from_json(text)


@pytest.mark.parametrize("outer,field", [
    ({"kind": "partition", "blocks": [[1, 2.5]], "caps": [1]}, r"outer\.blocks\[0\]\[1\]"),
    ({"kind": "partition", "blocks": [[1, 2]], "caps": [1.5]}, r"outer\.caps\[0\]"),
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
                      "outer kind", "outer id", "utility weight", "utility theta",
                      "utility family", "utility count", "not an object", "missing params",
                      "missing caps", "missing costs", "missing budget")


@settings(max_examples=examples(100))
@given(st.integers(0, 2**32 - 1), st.sampled_from(INSTANCE_MUTATIONS))
def test_mutated_instance_documents_are_rejected_by_name(seed, mutation):
    """A mutated ``instance_to_json`` document fails its load or its validation.

    The load's ``ValueError`` starts with the mutated field, or a violation
    starts with it or with the mutated item. A document that lacks a required
    key fails its load with a ``KeyError`` (a malformed file) whose message
    starts with the key's path. Any other exception, or a document that loads
    and validates clean, fails the test.
    """
    rng = np.random.default_rng(seed)
    partition_only = mutation in ("outer id", "missing caps")
    kinds = ("partition",) if partition_only else ("cardinality", "partition")
    families = ("concave",) if mutation == "utility theta" else ("modular", "concave", "coverage")
    inst = random_instance(seed, n_max=6, kinds=kinds, families=families)
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
    elif mutation == "not an object":
        field = str(rng.choice(["utility", "utility.params", "outer"]))
        owner, key = (doc["utility"], "params") if field == "utility.params" else (doc, field)
        owner[key] = [3, "3", [], None, True][int(rng.integers(5))]
    elif mutation == "missing params":
        del doc["utility"]["params"]
        field = "utility.params." + ("rates" if inst.utility.family == FAMILY_COVERAGE
                                     else "weights")
    elif mutation == "missing caps":
        del doc["outer"]["caps"]
        field = "outer.caps"
    elif mutation == "missing costs":
        del item["costs"]
        field = f"items[{i}].costs"
    elif mutation == "missing budget":
        del doc["budget"]
        field = "budget"
    elif mutation == "outer kind":
        doc["outer"]["kind"] = str(rng.choice(["matroid", "Cardinality", "", "explicit"]))
        field = "outer.kind"
    elif mutation.startswith("utility"):
        utility, bad = doc["utility"], [True, "1.5", float("nan"), -0.5][int(rng.integers(4))]
        params = utility["params"]
        if mutation == "utility weight":
            key = str(rng.choice([k for k in ("weights", "element_weights") if k in params]))
            j = int(rng.integers(len(params[key])))
            params[key][j] = bad
            field = f"utility.params.{key}[{j}]"
        elif mutation == "utility theta":
            params["theta"] = bad
            field = "utility.params.theta"
        elif mutation == "utility family":
            utility["family"] = str(rng.choice(["modular", "", "Weighted-Modular", "explicit"]))
            field = "utility.family"
        else:
            key = "rates" if "rates" in params else "weights"
            if rng.random() < 0.5:
                params[key].pop()
            else:
                params[key].append(params[key][0])
            field = f"utility.params.{key} is over {len(params[key])} items, instance has"
    else:
        blocks = doc["outer"]["blocks"]
        groups = [r for r, group in enumerate(blocks) if group]
        assume(groups)
        r = int(rng.choice(groups))
        j = int(rng.integers(len(blocks[r])))
        blocks[r][j] = int(rng.choice([0, -1, inst.n + 1]))
        field = f"outer.blocks[{r}][{j}]"
    try:
        loaded = instance_from_json(json.dumps(doc))
    except (ValueError, KeyError) as exc:
        assert isinstance(exc, KeyError) == mutation.startswith("missing"), repr(exc)
        assert str(exc).startswith(field + " "), str(exc)
        return
    violations = validate_instance(loaded)
    assert any(v.startswith(field) for v in violations), violations


def _mutate_item(item, s, rng, mutation):
    """Apply one item-level mutation to an item of an instance document.

    Each one sets values rather than changing the old ones, so that they
    compose whatever an earlier mutation left there.
    """
    probs, costs = item["probs"], item["costs"]
    cost = int(rng.integers(1, 9))
    if mutation == "cost fraction":
        costs[s] = cost + 0.5
    elif mutation == "cost integral float":
        costs[s] = float(cost)
    elif mutation == "cost bool":
        costs[s] = bool(rng.random() < 0.5)
    elif mutation == "cost string":
        costs[s] = str(cost)
    elif mutation == "cost below 1":
        costs[s] = 1 - cost
    elif mutation == "cost decreasing":
        item["costs"] = list(range(len(costs) + 1, 1, -1))
    elif mutation == "probability nan":
        probs[s] = float(rng.choice([np.nan, np.inf, -np.inf]))
    elif mutation == "probability negative":
        probs[s] = -float(rng.uniform(0.01, 1.0))
    elif mutation == "probability integer":
        probs[s] = int(rng.integers(0, 2))
    elif mutation == "probability string":
        probs[s] = "0.5"
    elif mutation == "probability bool":
        probs[s] = bool(rng.random() < 0.5)
    elif mutation == "probabilities scaled":
        factor = float(rng.choice([1.01, 1 + 1e-13, 1 + 1e-11, 0.5]))
        item["probs"] = [p * factor if type(p) is float else p for p in probs]
    elif mutation == "probabilities ragged":
        probs.pop() if rng.random() < 0.5 else probs.append(0.0)
    elif mutation == "costs ragged":
        costs.pop() if rng.random() < 0.5 else costs.append(cost)
    elif mutation == "field missing":
        del item[str(rng.choice(["probs", "costs"]))]
    elif mutation == "field not a list":
        item[str(rng.choice(["probs", "costs"]))] = [3, "ab", None, {}][int(rng.integers(4))]


ITEM_MUTATIONS = ("cost fraction", "cost integral float", "cost bool", "cost string",
                  "cost below 1", "cost decreasing", "probability nan", "probability negative",
                  "probability integer", "probability string", "probability bool",
                  "probabilities scaled",
                  "probabilities ragged", "costs ragged", "field missing", "field not a list")
DOCUMENT_MUTATIONS = ("item not an object", "item count", "B change", "budget below 1",
                      "outer id repeated", "outer id out of range", "outer id dropped")


def _outcome(fn, *args):
    """``fn(*args)``, or the type and text of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


@settings(max_examples=examples(300))
@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(ITEM_MUTATIONS + DOCUMENT_MUTATIONS), max_size=3))
def test_sweeps_equal_the_item_by_item_reference(seed, mutations):
    """The parser and validator against ``tests/reference.py``'s field-by-field ones.

    On a random instance document with up to three mutations, both parsers
    give an instance with the same fields and field types, or the same
    exception with the same text; a parsed instance gets the same violations
    in the same order from both validators.
    """
    rng = np.random.default_rng(seed)
    inst = random_instance(seed, n_max=6, B_max=4)
    doc = json.loads(instance_to_json(inst))
    for mutation in mutations:
        items = doc["items"]
        i = int(rng.integers(len(items))) if items else 0
        if not items:
            continue
        if mutation in ITEM_MUTATIONS:
            if isinstance(items[i], dict) and all(
                    isinstance(items[i].get(k), list) and len(items[i][k]) == inst.B
                    for k in ("probs", "costs")):
                _mutate_item(items[i], int(rng.integers(inst.B)), rng, mutation)
        elif mutation == "item not an object":
            items[i] = [1, 2]
        elif mutation == "item count":
            items.pop() if rng.random() < 0.5 else items.append(items[i])
        elif mutation == "B change":
            doc["B"] += int(rng.choice([-1, 1]))
        elif mutation == "budget below 1":
            doc["budget"] = int(rng.choice([0, -2]))
        elif doc["outer"]["kind"] == "partition":
            blocks = doc["outer"]["blocks"]
            groups = [g for g in blocks if g]
            if not groups:
                continue
            group = groups[int(rng.integers(len(groups)))]
            if mutation == "outer id repeated":
                blocks[int(rng.integers(len(blocks)))].append(group[0])
            elif mutation == "outer id out of range":
                group[int(rng.integers(len(group)))] = int(rng.choice([0, -1, inst.n + 1]))
            else:
                group.pop()
    text = json.dumps(doc)
    expected = _outcome(reference.instance_from_json_by_field, text)
    got = _outcome(instance_from_json, text)
    if isinstance(expected, tuple):
        assert got == expected
        return
    for field in ("n", "B", "budget", "outer", "utility"):
        assert getattr(got, field) == getattr(expected, field)
    # repr compares NaN probabilities, and type() tells 3 from 3.0
    assert repr(got.items) == repr(expected.items)
    assert ([[type(v) for v in it.probs + it.costs] for it in got.items]
            == [[type(v) for v in it.probs + it.costs] for it in expected.items])
    assert (_outcome(validate_instance, got)
            == _outcome(reference.validate_instance_by_item, expected))


@pytest.mark.parametrize("costs", [(1.5, 2), (2.0, 2), (True, 2), (np.int32(1), np.int64(3)),
                                   ("1", 2), (0, 2), (2, 1), (1.5, 0), (2**70, 2**71)])
@pytest.mark.parametrize("probs", [(0.5, 0.5), (1, 0), (0.5, np.float64(0.5)), (-0.5, 1.5),
                                   (float("nan"), 1.0), (0.3, 0.3), (0.5,), (0.2, 0.3, 0.5)])
def test_validator_equals_the_reference_on_values_only_code_builds(probs, costs):
    # values a document cannot hold: floats, strings, numpy scalars and
    # out-of-int64 costs, and probabilities of numpy type, next to valid items
    items = (ItemModel(probs=(0.25, 0.75), costs=(1, 2)), ItemModel(probs=probs, costs=costs),
             ItemModel(probs=(1.0, 0.0), costs=(2, 2)))
    inst = build(list(items))
    assert (_outcome(validate_instance, inst)
            == _outcome(reference.validate_instance_by_item, inst))
