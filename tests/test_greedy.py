import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsubmax import constraints, greedy, lp
from stochsubmax.errors import InvalidInputError, LpCertificateError
from stochsubmax.generators import (
    partition_demo_instance,
    random_instance,
    single_item_instance,
)
from stochsubmax.greedy import (
    SlotSolution,
    certify_solution,
    check_solution_shape,
    estimate_marginal_gains,
    run_continuous_greedy,
    solution_from_json,
    solution_to_json,
)
from stochsubmax.lattice import ConcaveOverModular, ThresholdCoverage, WeightedModular
from stochsubmax.model import (
    Instance,
    ItemModel,
    expected_truncated_cost,
    instance_from_json,
    instance_to_json,
)
from stochsubmax.parallel import map_blocks, mean_se
from tests.conftest import examples
from tests.reference import expected_set_value_exact, greedy_steps, multilinear_exact


def test_gains_at_origin_match_exact_marginals(pair_instance):
    f = pair_instance.utility
    gains, ses = estimate_marginal_gains(
        pair_instance, f, np.zeros(2), samples=20_000, seed=3
    )
    expected = expected_set_value_exact(pair_instance, f, [0]) - 0.0
    for i in range(2):
        assert abs(gains[i] - expected) <= 3 * max(ses[i], 1e-9)


def test_gains_constant_function_zero(pair_instance):
    flat = WeightedModular(weights=(0.0, 0.0))
    gains, _ = estimate_marginal_gains(pair_instance, flat, np.zeros(2), samples=500, seed=0)
    assert np.all(gains == 0.0)


def test_gains_deterministic(pair_instance):
    a = estimate_marginal_gains(pair_instance, pair_instance.utility, [0.2, 0.4], 4000, seed=9)
    b = estimate_marginal_gains(pair_instance, pair_instance.utility, [0.2, 0.4], 4000, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_run_certifies_at_quarter_scale(pair_instance):
    sol = run_continuous_greedy(
        pair_instance, pair_instance.utility, pair_instance.outer,
        stop_scale=0.25, steps=25, grad_samples=1500, seed=11,
    )
    assert float(sol.marginals.sum()) <= 0.25 * 2 + 1e-7
    report = certify_solution(pair_instance, pair_instance.outer, sol, 0.25)
    assert report.passed, report.failures()


def test_run_single_item_closed_form():
    inst = single_item_instance(budget=2)
    sol = run_continuous_greedy(
        inst, inst.utility, inst.outer, stop_scale=1.0, steps=50, grad_samples=400, seed=1
    )
    assert sol.marginals[0] == pytest.approx(1.0, abs=1e-9)
    assert multilinear_exact(inst, inst.utility, sol.marginals) == pytest.approx(1.0, abs=1e-9)
    assert certify_solution(inst, inst.outer, sol, 1.0).passed


def test_run_constant_utility(pair_instance):
    flat = WeightedModular(weights=(0.0, 0.0))
    sol = run_continuous_greedy(
        pair_instance, flat, pair_instance.outer,
        stop_scale=0.25, steps=10, grad_samples=200, seed=2,
    )
    assert certify_solution(pair_instance, pair_instance.outer, sol, 0.25).passed
    assert multilinear_exact(pair_instance, flat, sol.marginals) == 0.0


def test_monotone_progress(partition_instance):
    history = []
    run_continuous_greedy(
        partition_instance, partition_instance.utility, partition_instance.outer,
        stop_scale=0.25, steps=15, grad_samples=800, seed=4, history=history,
    )
    values = [
        multilinear_exact(partition_instance, partition_instance.utility, m)
        for m in history
    ]
    for earlier, later in zip(values, values[1:]):
        assert later >= earlier - 1e-12


def test_certify_flags_violated_time_row(pair_instance):
    sol = SlotSolution(
        n=2, budget=5,
        entries=((0, 1, 1.0), (1, 1, 1.0)),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    report = certify_solution(pair_instance, pair_instance.outer, sol, 0.25)
    assert not report.passed
    failing = {label for label, *_ in report.failures()}
    assert "time[1]" in failing


def test_certificate_rows_are_the_fit_outer_and_time_rows(pair_instance):
    # entries-in-range holds every value to 1 + MARGINAL_TOL, so no item-cap row
    # repeats it; a value past that fails the fit row alone
    sol = SlotSolution(n=2, budget=5, entries=((0, 1, 0.25), (1, 2, 0.125)),
                       stop_scale=0.25, steps=1, grad_samples=1, seed=0)
    report = certify_solution(pair_instance, pair_instance.outer, sol, 0.25)
    assert [label for label, *_ in report.rows] == (
        ["entries-in-range", "outer[0]"] + [f"time[{t}]" for t in range(1, 6)]
    )
    over = SlotSolution(n=2, budget=5, entries=((0, 1, 1.0 + 2e-9),),
                        stop_scale=0.25, steps=1, grad_samples=1, seed=0)
    report = certify_solution(pair_instance, pair_instance.outer, over, 1.0)
    assert report.rows == (("entries-in-range", 0.0, 1.0, False),) and not report.passed


def test_certify_zero_solution(pair_instance):
    sol = SlotSolution(
        n=2, budget=5, entries=(),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    assert certify_solution(pair_instance, pair_instance.outer, sol, 0.25).passed


def test_invariant_marginals_match_entries(pair_instance):
    sol = run_continuous_greedy(
        pair_instance, pair_instance.utility, pair_instance.outer,
        stop_scale=0.25, steps=8, grad_samples=300, seed=5,
    )
    sums = np.zeros(2)
    for i, _, v in sol.entries:
        sums[i] += v
    assert np.max(np.abs(sums - sol.marginals)) <= 1e-9


def test_solution_json_round_trip(partition_instance):
    sol = run_continuous_greedy(
        partition_instance, partition_instance.utility, partition_instance.outer,
        stop_scale=0.25, steps=8, grad_samples=300, seed=6,
    )
    text = solution_to_json(sol)
    again = solution_from_json(text)
    assert again.entries == sol.entries
    assert again.stop_scale == sol.stop_scale
    assert again.steps == sol.steps
    assert again.seed == sol.seed
    assert again.grad_samples == sol.grad_samples
    assert np.allclose(again.marginals, sol.marginals, atol=1e-12)
    assert solution_to_json(again) == text


@settings(max_examples=examples(50))
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 6),
    grad_samples=st.integers(1, 64),
)
def test_random_solution_json_round_trip_bit_exact(seed, steps, grad_samples):
    inst = random_instance(seed, kinds=("cardinality", "partition"))
    sol = run_continuous_greedy(
        inst, inst.utility, inst.outer, stop_scale=0.25, steps=steps,
        grad_samples=grad_samples, seed=seed,
    )
    text = solution_to_json(sol)
    again = solution_from_json(text)
    assert [(i, t, v.hex()) for i, t, v in again.entries] == [
        (i, t, v.hex()) for i, t, v in sol.entries
    ]
    assert again.marginals.tobytes() == sol.marginals.tobytes()
    assert (again.n, again.budget, again.stop_scale, again.steps, again.grad_samples,
            again.seed) == (sol.n, sol.budget, sol.stop_scale, sol.steps,
                            sol.grad_samples, sol.seed)
    assert solution_to_json(again) == text


SOLUTION_DOC = {
    "meta": {"l": 0.25, "T": 4, "seed": 1, "grad_samples": 100, "n": 2, "budget": 5},
    "x": [{"i": 1, "t": 3, "value": 0.125}, {"i": 2, "t": 3, "value": 0.25}],
}


def solution_doc_with(path, value):
    """A copy of SOLUTION_DOC with the field at ``path`` (keys and indices) set to ``value``."""
    doc = json.loads(json.dumps(SOLUTION_DOC))
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return json.dumps(doc)


def test_solution_loader_accepts_integral_floats():
    sol = solution_from_json(solution_doc_with(("meta", "T"), 4.0))
    assert sol.steps == 4 and type(sol.steps) is int
    sol = solution_from_json(solution_doc_with(("x", 0, "t"), 3.0))
    assert sol.entries == ((0, 3, 0.125), (1, 3, 0.25))
    assert all(type(t) is int for _, t, _ in sol.entries)
    assert np.array_equal(sol.marginals, [0.125, 0.25])


@pytest.mark.parametrize("path,value,field", [
    (("meta", "n"), 2.5, "meta.n"),
    (("meta", "budget"), 5.5, "meta.budget"),
    (("meta", "T"), 3.9, "meta.T"),
    (("meta", "seed"), 1.5, "meta.seed"),
    (("meta", "grad_samples"), 100.5, "meta.grad_samples"),
    (("meta", "T"), True, "meta.T"),
    (("meta", "seed"), "1", "meta.seed"),
    (("x", 0, "i"), 1.5, "x[0].i"),
    (("x", 1, "t"), 2.5, "x[1].t"),
    (("x", 1, "t"), "3", "x[1].t"),
    (("x", 0, "value"), "0.125", "x[0].value"),
    (("meta", "l"), None, "meta.l"),
    (("x", 1, "i"), 3, "solution item 3 is outside 1..2"),
    (("x", 0, "i"), 0, "solution item 0 is outside 1..2"),
    (("x", 0, "t"), 0, "x[0].t"),
    (("x", 1, "value"), 1.5, "x[1].value"),
    (("x", 1, "value"), -0.25, "x[1].value"),
    (("x", 0, "value"), float("nan"), "x[0].value"),
    (("x", 1, "i"), 1, "item 1"),
])
def test_solution_loader_rejects_bad_fields(path, value, field):
    with pytest.raises(InvalidInputError, match=re.escape(field)):
        solution_from_json(solution_doc_with(path, value))


MUTATIONS = ("repeat", "slot 0", "slot past", "i fraction", "t fraction", "i outside",
             "value nan", "value outside")


@settings(max_examples=examples(100))
@given(st.integers(0, 2**32 - 1), st.sampled_from(MUTATIONS))
def test_mutated_solution_documents_are_rejected_by_name(seed, mutation):
    """A mutated ``solution_to_json`` document fails its load or its shape check.

    The ``ValueError`` names the mutated field or item; any other exception,
    or a document that loads and checks clean, fails the test.
    """
    rng = np.random.default_rng(seed)
    inst = random_instance(seed, n_max=6, kinds=("cardinality",), all_schedulable=True)
    slots = inst.slot_counts
    chosen = [i for i in range(inst.n) if rng.random() < 0.6] or [0]
    marginals = np.zeros(inst.n)
    marginals[chosen] = rng.uniform(0.05, 1.0, size=len(chosen))
    entries = tuple((i, int(rng.integers(1, slots[i] + 1)), float(marginals[i])) for i in chosen)
    sol = SlotSolution(n=inst.n, budget=inst.budget, entries=entries, stop_scale=0.25,
                       steps=1, grad_samples=1, seed=0)
    doc = json.loads(solution_to_json(sol))
    j = int(rng.integers(len(doc["x"])))
    e = doc["x"][j]
    item, field = e["i"], f"x[{j}]."
    if mutation == "repeat":
        doc["x"].append(dict(e, t=int(rng.integers(1, slots[item - 1] + 1))))
        field = f"item {item} "
    elif mutation == "slot 0":
        e["t"], field = 0, field + "t"
    elif mutation == "slot past":
        e["t"] = int(slots[item - 1]) + int(rng.integers(1, 4))
        field = f"item {item} "
    elif mutation == "i fraction":
        e["i"], field = item + 0.5, field + "i"
    elif mutation == "t fraction":
        e["t"], field = e["t"] - 0.5, field + "t"
    elif mutation == "i outside":
        e["i"] = int(rng.choice([0, -1, inst.n + 1]))
        field = f"solution item {e['i']} is outside 1..{inst.n}"
    elif mutation == "value nan":
        e["value"], field = float("nan"), field + "value"
    else:
        e["value"], field = float(rng.choice([-0.5, 1.5, 1e300])), field + "value"
    with pytest.raises(ValueError, match=re.escape(field)):
        check_solution_shape(inst, solution_from_json(json.dumps(doc)))


def test_run_rejects_bad_parameters(pair_instance):
    with pytest.raises(ValueError):
        run_continuous_greedy(
            pair_instance, pair_instance.utility, pair_instance.outer,
            stop_scale=0.0, steps=5,
        )
    with pytest.raises(ValueError):
        run_continuous_greedy(
            pair_instance, pair_instance.utility, pair_instance.outer,
            stop_scale=0.5, steps=0,
        )


def test_greedy_solution_starts_each_item_at_its_latest_slot(partition_instance):
    inst = partition_instance
    sol = run_continuous_greedy(inst, inst.utility, inst.outer, stop_scale=0.25, steps=10,
                                grad_samples=400, seed=8)
    assert sol.support.size and [i for i, _, _ in sol.entries] == sol.support.tolist()
    assert sol.slots.tolist() == inst.slot_counts[sol.support].tolist()


def test_gains_bit_identical_on_pinned_instance():
    # solutions follow the gains, so their reduction must not move a bit;
    # 9000 samples span three blocks. The greedy enumerates this instance's 27
    # joint levels instead, so the sampled path is called directly
    inst = partition_demo_instance()
    gains, ses = greedy._sampled_gains(
        inst, inst.utility, np.full(inst.n, 0.3), samples=9000, seed=4
    )
    assert [float(g).hex() for g in gains] == [
        "0x1.a7ed112c22522p-1", "0x1.34ccfabf8a894p+0", "0x1.769042da231a5p-1",
    ]
    assert [float(s).hex() for s in ses] == [
        "0x1.21d15946017b5p-8", "0x1.38c7f7133bfdfp-8", "0x1.11aaa9c476433p-8",
    ]


def test_coverage_gains_bit_identical_on_pinned_instance():
    # rates up to 3 over 5 elements at B = 3, so many lengths are capped at m;
    # 6000 samples span two blocks. The greedy takes this family's exact gains,
    # so the sampled path is called directly: the pins check its reduction and
    # the generic gains_batch sweep bit for bit
    inst = random_instance(1, families=("coverage",))
    gains, ses = greedy._sampled_gains(
        inst, inst.utility, np.linspace(0.1, 0.8, inst.n), samples=6000, seed=7
    )
    assert [float(g).hex() for g in gains] == [
        "0x1.e05e3273a8fd7p-8", "0x1.f6f19934efcbcp-4", "0x1.db19343cd6d96p-4",
        "0x1.03288a1b2fbf9p-3", "0x1.57778dd616f86p-3", "0x1.4bac9dc9f197dp-4",
        "0x1.129a8b78b63bdp-3", "0x1.c56e696a26e56p-2",
    ]
    assert [float(s).hex() for s in ses] == [
        "0x1.8422dd26b34e3p-10", "0x1.cd8ee63516755p-8", "0x1.b4317c35512f5p-8",
        "0x1.ecfba9969da61p-8", "0x1.1714e58b39761p-7", "0x1.8e16f61a5f1bfp-8",
        "0x1.0191fa923c21fp-7", "0x1.bbe6ad63626a5p-7",
    ]


def test_sampled_gains_pinned_across_blocks():
    # 9000 samples span three seeded blocks; the digest of every gain and
    # standard error in hex holds the streams and the reduction fixed
    inst = random_instance(1, families=("coverage",))
    x = np.linspace(0.1, 0.8, inst.n)

    def digest(seed):
        gains, ses = greedy._sampled_gains(inst, inst.utility, x, samples=9000, seed=seed)
        text = ",".join(float(v).hex() for v in [*gains, *ses])
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(7) == "ee4957a90eaea215bccd906915f8923ad213df2ff12b28e0d72afaefe98de32f"
    assert digest(8) != digest(7)


@pytest.mark.parametrize("family", ["modular", "concave", "coverage"])
def test_gains_are_a_function_of_inputs_and_seed(family):
    # an equal instance loaded afresh, with equal marginals and seed, repeats the
    # estimate bit for bit, block split included (6000 samples span two blocks);
    # another seed draws other samples, except for the families with exact
    # gains, which do not depend on the seed and have standard errors 0
    inst = random_instance(1, families=(family,))
    again = instance_from_json(instance_to_json(inst))
    x = np.linspace(0.1, 0.8, inst.n)
    first = estimate_marginal_gains(inst, inst.utility, x, samples=6000, seed=7)
    second = estimate_marginal_gains(again, again.utility, x.copy(), samples=6000, seed=7)
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])
    other = estimate_marginal_gains(inst, inst.utility, x, samples=6000, seed=8)
    if family == "concave":
        assert not np.array_equal(first[0], other[0])
    else:
        assert np.array_equal(first[0], other[0]) and np.array_equal(first[1], other[1])
        assert np.all(first[1] == 0.0)


@pytest.mark.parametrize("family", ["modular", "concave", "coverage"])
def test_no_gradient_samples_rejected_for_every_family(family):
    # exact gains draw no samples, but a request for none is still bad input
    inst = random_instance(1, families=(family,))
    for samples in (0, -1):
        with pytest.raises(ValueError, match="gradient sample"):
            estimate_marginal_gains(inst, inst.utility, np.zeros(inst.n), samples, seed=0)
        with pytest.raises(ValueError, match="gradient sample"):
            run_continuous_greedy(inst, inst.utility, inst.outer, stop_scale=0.25, steps=2,
                                  grad_samples=samples)


def test_map_blocks_runs_in_order_and_rejects_other_worker_counts():
    blocks = [(0, 4096), (1, 4096), (2, 808)]
    assert map_blocks(lambda b: b[0], blocks) == [0, 1, 2]
    assert map_blocks(lambda b: b[0], blocks, 1) == [0, 1, 2]
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers"):
            map_blocks(lambda b: b[0], blocks, workers)


def test_mean_se_arrays_match_scalars():
    rng = np.random.default_rng(2)
    partials = []
    for size in (5, 9, 1):
        x = rng.random((size, 3))
        partials.append((size, x.sum(axis=0), (x * x).sum(axis=0)))
    summed = [sum(p[k] for p in partials) for k in range(3)]
    mean, se = mean_se(*summed)
    for j in range(3):
        m, s = mean_se(summed[0], summed[1][j], summed[2][j])
        assert (mean[j], se[j]) == (m, s)
        assert type(m) is float and type(s) is float
    one_mean, one_se = mean_se(*partials[2])
    assert np.array_equal(one_mean, partials[2][1]) and not one_se.any()


@pytest.mark.parametrize("family", ["modular", "concave", "coverage"])
@pytest.mark.parametrize("bad,match", [
    ([1.5, -0.3], "got 1.5 at item 0"),  # was clipped to the gains of [1, 0]
    ([0.5], "expected 2 marginals"),  # was broadcast to two gains
    ([float("nan"), 0.5], "got nan at item 0"),  # was a NaN gain
    ([[0.2, 0.3], [0.1, -0.5]], "row 1, item 1"),  # every row of a stack is checked
    (np.zeros((0, 2)), "expected 2 marginals"),
    (np.zeros((1, 1, 2)), "expected 2 marginals"),
], ids=["outside", "short", "nan", "stack-row", "empty-stack", "three-axes"])
def test_bad_marginals_rejected_for_every_family(family, bad, match):
    utility = {"modular": WeightedModular(weights=(1.0, 2.0)),
               "concave": ConcaveOverModular(weights=(1.0, 2.0)),
               "coverage": ThresholdCoverage(rates=(1, 2), element_weights=(1.0, 0.5))}[family]
    item = ItemModel(probs=(0.5, 0.5), costs=(1, 2))
    inst = Instance(n=2, B=2, budget=4, items=(item, item), outer=constraints.cardinality(2, 1),
                    utility=utility)
    with pytest.raises(ValueError, match=match):
        estimate_marginal_gains(inst, utility, bad, samples=100, seed=0)


def test_stacked_gain_estimates_fall_back_to_the_first_row():
    # the leading exact rows come back; where the first row would be sampled, it
    # alone does, from its own stream, as a one-row call gives it
    inst = partition_demo_instance()  # concave, n = 3, B = 2: 27 atoms inside (0, 1)
    f = inst.utility
    stack = np.array([[0.0, 0.0, 0.0], [0.3, 0.6, 0.1], [0.3, 0.6, 0.2]])
    gains, ses = estimate_marginal_gains(inst, f, stack, samples=27, seed=4)
    assert gains.shape == ses.shape == (3, 3) and not ses.any()
    for row, g in zip(stack, gains):
        assert g.tobytes() == estimate_marginal_gains(inst, f, row, 27, seed=4)[0].tobytes()
    for first in (stack[0], stack[1]):  # exact, then sampled
        rows = np.vstack([first, stack[1:]])
        gains, ses = estimate_marginal_gains(inst, f, rows, 26, seed=4, stream=("step", 2))
        alone = estimate_marginal_gains(inst, f, first, 26, seed=4, stream=("step", 2))
        assert gains.shape == (1, 3)
        assert gains[0].tobytes() == alone[0].tobytes() and ses[0].tobytes() == alone[1].tobytes()
    # all ones has 8 atoms, within the 26 samples, and rides along with x = 0
    rows = np.vstack([stack[0], np.ones(3), stack[1:]])
    gains, ses = estimate_marginal_gains(inst, f, rows, 26, seed=4)
    assert gains.shape == ses.shape == (2, 3) and not ses.any()
    for row, g in zip(rows, gains):
        assert g.tobytes() == estimate_marginal_gains(inst, f, row, 26, seed=4)[0].tobytes()


def counting_simplex(monkeypatch):
    """Count the calls of ``lp.simplex_max`` from here on; return the running count."""
    calls = [0]
    simplex_max = lp.simplex_max

    def counted(*args, **kwargs):
        calls[0] += 1
        return simplex_max(*args, **kwargs)

    monkeypatch.setattr(lp, "simplex_max", counted)
    return calls


def warm_against_cold(monkeypatch, inst, **kwargs):
    """Run the greedy, checking every step's LP answer against a cold solve; return totals.

    A step either calls ``solve_lp``, which solves cold, or is warm: it keeps
    the previous answer, certified with the other remaining steps in one
    stacked certificate. Both must reach a cold solve's objective value.
    ``greedy`` totals the pivots of the greedy's own solves and ``cold``
    those of a cold solve at every step, warm steps included; ``calls``
    counts the ``solve_lp`` calls and ``ray`` the warm steps.
    """
    solve_lp, certify_optimal = greedy.solve_lp, greedy.certify_optimal
    totals = {"greedy": 0, "cold": 0, "calls": 0, "ray": 0}

    def cold_check(program, objective, values):
        cold = solve_lp(program, objective)
        assert abs(float(objective @ values) - cold.objective) <= 1e-12
        totals["cold"] += cold.iterations

    def checked(program, objective):
        answer = solve_lp(program, objective)
        cold_check(program, objective, answer.values)
        totals["greedy"] += answer.iterations
        totals["calls"] += 1
        return answer

    def ridden(objectives, A, b, x, basis):
        try:
            out = certify_optimal(objectives, A, b, x, basis)
            taken = len(objectives)
        except LpCertificateError as failed:
            out, taken = failed, failed.index
        for objective in objectives[:taken]:
            cold_check(programs[-1], objective, x)
        totals["ray"] += taken
        if isinstance(out, LpCertificateError):
            raise out
        return out

    programs = []
    build = greedy.build_slot_program
    monkeypatch.setattr(greedy, "build_slot_program",
                        lambda *a: programs.append(build(*a)) or programs[-1])
    monkeypatch.setattr(greedy, "solve_lp", checked)
    monkeypatch.setattr(greedy, "certify_optimal", ridden)
    steps = kwargs["steps"]
    run_continuous_greedy(inst, inst.utility, inst.outer, stop_scale=0.25, seed=3, **kwargs)
    # every step is solved or warm; modular gains do not depend on x, so the
    # first answer serves every step
    assert totals["calls"] + totals["ray"] == steps
    if inst.utility.family == "weighted-modular":
        assert totals["calls"] == 1
    return totals


def desk_random_instance(seed):
    return random_instance(seed, n_max=5, B_max=3, budget_max=10,
                           kinds=("cardinality", "partition"), all_schedulable=True)


@pytest.mark.parametrize("seed", range(10))
def test_warm_steps_match_cold_solves_on_desk_instances(monkeypatch, seed):
    warm_against_cold(monkeypatch, desk_random_instance(seed), steps=25, grad_samples=300)


def test_warm_steps_match_cold_solves_at_n40(monkeypatch):
    # a 40-item, budget-30 program with a cardinality row and concave utility
    rng = np.random.default_rng(40)
    items = []
    for _ in range(40):
        p = rng.uniform(0.1, 1.0, size=3)
        costs = sorted(int(c) for c in rng.integers(1, 16, size=3))
        items.append(ItemModel(probs=tuple(float(v) for v in p / p.sum()), costs=tuple(costs)))
    weights = tuple(float(w) for w in np.round(rng.uniform(0.5, 2.0, size=40), 3))
    inst = Instance(n=40, B=3, budget=30, items=tuple(items),
                    outer=constraints.cardinality(40, 10),
                    utility=ConcaveOverModular(weights=weights, curve="sqrt"))
    totals = warm_against_cold(monkeypatch, inst, steps=12, grad_samples=200)
    # the sampled gains move enough that the vertex turns over: 6 of the 12
    # steps solve cold, and the other 6 keep the answer before them
    assert (totals["greedy"], totals["cold"], totals["calls"], totals["ray"]) == (105, 212, 6, 6)


def test_desk_greedy_runs_the_simplex_only_for_its_cold_step(monkeypatch):
    # every warm step's kept vertex stays optimal and passes its certificate
    calls = counting_simplex(monkeypatch)
    inst = desk_random_instance(1)
    run_continuous_greedy(inst, inst.utility, inst.outer, stop_scale=0.25, steps=25,
                          grad_samples=1500, seed=1)
    assert calls[0] == 1


@dataclasses.dataclass(frozen=True)
class NudgedModular(WeightedModular):
    """Modular gains, with item ``item``'s changed from the ``nudge_at``-th row on.

    Rows are counted over every call, a (K, n) stack adding K of them. The
    gain moves up by one ulp, or to ``to`` if that is given.
    """

    nudge_at: int | None = None
    item: int = 0
    to: float | None = None
    rows: list = dataclasses.field(default_factory=list)

    def expected_gains(self, probs, x, samples):
        gains = super().expected_gains(probs, x, samples)
        stack = gains.reshape(-1, self.n)  # a view, so nudges reach gains
        first = len(self.rows)
        if self.nudge_at is not None:
            late = stack[max(self.nudge_at - first, 0):, self.item]
            late[:] = np.nextafter(late, np.inf) if self.to is None else self.to
        self.rows.extend(stack.copy())
        return gains


def counted_lp_calls(monkeypatch):
    """Record the objective of every ``solve_lp`` call of the greedy, and the
    objective count of every certificate (a stacked one from the greedy, or one
    inside ``solve_lp``)."""
    solves, certificates = [], []
    solve_lp, certify_optimal = greedy.solve_lp, lp.certify_optimal

    def counted_solve(program, objective):
        solves.append(objective.copy())
        return solve_lp(program, objective)

    def counted_certificate(obj, *args, **kwargs):
        certificates.append(len(np.atleast_2d(obj)))
        return certify_optimal(obj, *args, **kwargs)

    monkeypatch.setattr(greedy, "solve_lp", counted_solve)
    monkeypatch.setattr(greedy, "certify_optimal", counted_certificate)
    monkeypatch.setattr(lp, "certify_optimal", counted_certificate)
    return solves, certificates


@pytest.mark.parametrize("nudge_at", [None, 3])
def test_unchanged_objective_reuses_the_certified_answer(monkeypatch, nudge_at):
    # modular gains do not depend on x: after the cold first step, one gain call
    # gives the five remaining steps' objectives and one stacked certificate
    # accepts them all. Objectives that differ by one ulp from step 3 on are
    # certified, not compared: the first answer still serves them
    inst = random_instance(2, n_max=5, B_max=3, budget_max=10, families=("modular",),
                           kinds=("cardinality",), all_schedulable=True)
    f = NudgedModular(weights=inst.utility.weights, nudge_at=nudge_at)
    solves, certificates = counted_lp_calls(monkeypatch)
    sol = run_continuous_greedy(inst, f, inst.outer, stop_scale=0.25, steps=6,
                                grad_samples=100, seed=1)
    assert len(f.rows) == 6
    assert len(solves) == 1 and certificates == [1, 5]
    if nudge_at is not None:
        first = f.rows[0]
        for row in f.rows[3:]:
            assert row[0] == np.nextafter(first[0], np.inf)
            assert np.array_equal(row[1:], first[1:])
    assert certify_solution(inst, inst.outer, sol, 0.25).passed


def test_failed_certificate_resolves_from_its_step(monkeypatch):
    # the leading item's gain drops to 0 from step 3 on, so the first answer's
    # certificate fails at step 3, the third row of the stack: steps 1 and 2
    # ride it, step 3 is solved cold, and steps 4 and 5 ride the new answer.
    # The failing row is certified once, in the stack; the only other
    # certificates are each solve's own. Five items, three of which the
    # cardinality row admits
    inst = random_instance(1, n_max=5, B_max=3, budget_max=10, families=("modular",),
                           kinds=("cardinality",), all_schedulable=True)
    top = int(np.argmax(inst.utility.expected_gains(inst.prob_matrix, np.zeros(inst.n), 1)))
    f = NudgedModular(weights=inst.utility.weights, nudge_at=3, item=top, to=0.0)
    solves, certificates = counted_lp_calls(monkeypatch)
    history = []
    sol = run_continuous_greedy(inst, f, inst.outer, stop_scale=0.25, steps=6,
                                grad_samples=100, seed=1, history=history)
    assert len(f.rows) == 1 + 5 + 2
    # cold solve, stack of 5 failing at index 2, cold solve, stack of 2
    assert certificates == [1, 5, 1, 2]
    first, third = solves
    assert third[top] == 0.0 < first[top]
    assert history[2][top] > 0 and history[3][top] == history[2][top]
    assert certify_solution(inst, inst.outer, sol, 0.25).passed


@dataclasses.dataclass(frozen=True)
class FadingModular(WeightedModular):
    """Modular gains times (1 - x_i)^2: an item's gain fades as its own marginal grows.

    Not the gradient of any utility, but exact, and elementwise, so each row
    of a stack has a one-row call's bits. The fading turns the greedy's
    vertex over as x grows, so that rides end in failed certificates, at the
    first row of a stack or inside it.
    """

    def expected_gains(self, probs, x, samples):
        return super().expected_gains(probs, x, samples) * (1.0 - np.asarray(x)) ** 2


@given(
    seed=st.integers(0, 10**6),
    family=st.sampled_from(("modular", "concave", "coverage", "fading")),
    kind=st.sampled_from(("cardinality", "partition")),
    steps=st.integers(1, 30),
    stop_scale=st.floats(0.0, 1.0, exclude_min=True),
    grad_samples=st.integers(1, 64),
    gain_seed=st.integers(0, 3),
)
@settings(max_examples=examples(40))
def test_greedy_matches_step_by_step_reference(seed, family, kind, steps, stop_scale,
                                               grad_samples, gain_seed):
    # riding a certified answer over the remaining steps changes no bit of any
    # step's marginals: the greedy's history equals the step-by-step loop's, and
    # its solution does not depend on whether history is kept. Concave desk
    # instances have up to 4^5 joint levels, so with at most 64 samples many of
    # their steps are sampled, each from its own stream
    inst = random_instance(seed, n_max=5, B_max=3, budget_max=10, kinds=(kind,),
                           families=("modular",) if family == "fading" else (family,))
    f = FadingModular(weights=inst.utility.weights) if family == "fading" else inst.utility
    args = (inst, f, inst.outer, stop_scale, steps, grad_samples, gain_seed)
    history = []
    sol = run_continuous_greedy(*args, history=history)
    reference = greedy_steps(*args)
    assert len(history) == len(reference) == steps
    assert all(a.tobytes() == b.tobytes() for a, b in zip(history, reference))
    again = run_continuous_greedy(*args)
    assert again.entries == sol.entries
    assert again.marginals.tobytes() == sol.marginals.tobytes()


def test_exact_steps_derive_no_sample_stream(monkeypatch):
    # a step hashes its sample stream only when its gains are sampled
    derived = []
    entropy = greedy.stream_entropy
    monkeypatch.setattr(greedy, "stream_entropy", lambda *a: derived.append(a) or entropy(*a))
    inst = desk_random_instance(4)
    run_continuous_greedy(inst, inst.utility, inst.outer, stop_scale=0.25, steps=5,
                          grad_samples=1500, seed=2)
    assert derived == []
    # six items of one state: x = 0 has one joint level, but the first step puts
    # mass on four of them (its time row t = 2 binds at 4), giving 2^4 = 16 joint
    # levels, more than 12 samples, so steps 1 and 2 sample
    six = Instance(n=6, B=1, budget=3, items=(ItemModel(probs=(1.0,), costs=(1,)),) * 6,
                   outer=constraints.cardinality(6, 6),
                   utility=ConcaveOverModular(weights=(1.0,) * 6))
    run_continuous_greedy(six, six.utility, six.outer, stop_scale=0.25, steps=3,
                          grad_samples=12, seed=2)
    assert derived == [(2, "step", 1), (2, "step", 2)]


@dataclasses.dataclass(frozen=True)
class CountedConcave(ConcaveOverModular):
    """Concave-over-modular gains that record the row count of every call."""

    calls: list = dataclasses.field(default_factory=list)

    def expected_gains(self, probs, x, samples):
        self.calls.append(len(np.atleast_2d(x)))
        return super().expected_gains(probs, x, samples)


def test_sampled_steps_ask_for_their_gains_once():
    # six one-state items as above: step 0 is exact at x = 0, and from step 1 on
    # every row has more joint levels than the 12 samples. Each step asks once,
    # for the stack of its remaining steps, and samples its first row. The
    # marginals are the step-by-step loop's bit for bit
    f = CountedConcave(weights=(1.0,) * 6)
    six = Instance(n=6, B=1, budget=3, items=(ItemModel(probs=(1.0,), costs=(1,)),) * 6,
                   outer=constraints.cardinality(6, 6), utility=f)
    args = (six, f, six.outer, 0.25, 6, 12, 2)
    history = []
    run_continuous_greedy(*args, history=history)
    assert f.calls == [1, 5, 4, 3, 2, 1]
    reference = greedy_steps(*args)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(history, reference))


def test_time_rows_match_slot_by_slot_accumulation():
    """The vectorized time rows against a slot-by-slot loop in item order, bit for bit."""
    rng = np.random.default_rng(8)
    for _ in range(20):
        inst = random_instance(int(rng.integers(10**6)), n_max=6, B_max=3, budget_max=12,
                               kinds=("cardinality",), all_schedulable=True)
        slots = inst.slot_counts
        entries = tuple(
            (i, int(rng.integers(1, slots[i] + 1)), float(rng.uniform(0, 0.2)))
            for i in range(inst.n) if rng.random() < 0.7
        )
        sol = SlotSolution(n=inst.n, budget=inst.budget, entries=entries,
                           stop_scale=0.25, steps=1, grad_samples=1, seed=0)
        report = certify_solution(inst, inst.outer, sol, 0.25)
        rows = {label: (lhs, bound, ok) for label, lhs, bound, ok in report.rows}
        prefix = np.zeros(inst.n)
        for t in range(1, inst.budget + 1):
            for i, slot, v in entries:
                if slot == t:
                    prefix[i] += v
            lhs = sum(expected_truncated_cost(inst.items[i], t) * prefix[i]
                      for i in range(inst.n) if prefix[i] > 0)
            got, bound, ok = rows[f"time[{t}]"]
            assert bound == 0.25 * 2.0 * t
            assert got == lhs
            assert ok == bool(lhs <= bound + greedy.CERT_TOL)


def test_warm_pivots_pinned_on_desk_instance(monkeypatch):
    # the pricing rule and exact gains make the totals repeat exactly; the
    # program has one latest-slot column per item. The first step's answer,
    # 2 pivots from the slack basis, is certified for all 24 later steps at once
    totals = warm_against_cold(monkeypatch, desk_random_instance(4), steps=25,
                               grad_samples=1500)
    assert (totals["greedy"], totals["cold"], totals["calls"], totals["ray"]) == (2, 50, 1, 24)


def test_cached_arrays_are_read_only(partition_instance):
    """Every array cached on an instance or a solution refuses writes: an edit of
    ``sol.marginals`` would change every later draw while ``sol.entries`` and its
    JSON still said otherwise."""
    sol = run_continuous_greedy(partition_instance, partition_instance.utility,
                                partition_instance.outer, stop_scale=0.25, steps=5,
                                grad_samples=200, seed=0)
    cached = [getattr(sol, name) for name in
              ("marginals", "support", "slots", "scan_order", "precedence")]
    cached += [getattr(partition_instance, name) for name in
               ("cost_matrix", "padded_costs", "prob_matrix", "state_cum_probs",
                "truncated_costs", "slot_counts")]
    assert len(sol.support) > 0
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0
