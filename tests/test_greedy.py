import numpy as np
import pytest

from stochsubmax.extensions import expected_set_value_exact, multilinear_exact
from stochsubmax.generators import partition_demo_instance, single_item_instance
from stochsubmax.greedy import (
    SlotSolution,
    certify_solution,
    estimate_marginal_gains,
    run_continuous_greedy,
    solution_from_json,
    solution_to_json,
)
from stochsubmax.lattice import WeightedModular
from stochsubmax.parallel import combine_mean_se


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
        marginals=np.array([1.0, 1.0]),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )
    report = certify_solution(pair_instance, pair_instance.outer, sol, 0.25)
    assert not report.passed
    failing = {label for label, *_ in report.failures()}
    assert "time[1]" in failing


def test_certify_zero_solution(pair_instance):
    sol = SlotSolution(
        n=2, budget=5, entries=(), marginals=np.zeros(2),
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


def test_sample_slot_distribution(pair_instance):
    sol = run_continuous_greedy(
        pair_instance, pair_instance.utility, pair_instance.outer,
        stop_scale=0.25, steps=10, grad_samples=400, seed=8,
    )
    rng = np.random.default_rng(0)
    ts, vs = sol.slot_lists[0]
    draws = np.array([sol.sample_slot(0, rng) for _ in range(4000)])
    probs = np.asarray(vs) / sol.marginals[0]
    for t, p in zip(ts, probs):
        freq = float(np.mean(draws == t))
        se = np.sqrt(max(p * (1 - p), 1e-12) / len(draws))
        assert abs(freq - p) <= 4 * se + 1e-9


def test_gains_bit_identical_on_pinned_instance():
    # solutions follow the gains, so their reduction must not move a bit;
    # 9000 samples span three blocks
    inst = partition_demo_instance()
    gains, ses = estimate_marginal_gains(
        inst, inst.utility, np.full(inst.n, 0.3), samples=9000, seed=4
    )
    assert [float(g).hex() for g in gains] == [
        "0x1.a7daf18063b46p-1", "0x1.30ec884baf1b9p+0", "0x1.7426aeebdf18dp-1",
    ]
    assert [float(s).hex() for s in ses] == [
        "0x1.217d0e0e6b20ap-8", "0x1.39552798935e6p-8", "0x1.121bd84187a99p-8",
    ]


def test_combine_mean_se_arrays_match_scalars():
    rng = np.random.default_rng(2)
    partials = []
    for size in (5, 9, 1):
        x = rng.random((size, 3))
        partials.append((size, x.sum(axis=0), (x * x).sum(axis=0)))
    mean, se = combine_mean_se(partials)
    for j in range(3):
        m, s = combine_mean_se([(c, t[j], q[j]) for c, t, q in partials])
        assert (mean[j], se[j]) == (m, s)
        assert type(m) is float and type(s) is float
    one_mean, one_se = combine_mean_se([partials[2]])
    assert np.array_equal(one_mean, partials[2][1]) and not one_se.any()
