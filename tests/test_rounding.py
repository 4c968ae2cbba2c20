import math

import numpy as np
import pytest

from stochsubmax import constraints
from stochsubmax.generators import symmetric_pair_instance
from stochsubmax.greedy import SlotSolution, run_continuous_greedy
from stochsubmax.rounding import (
    BalancedCrs,
    alpha_table_csv,
    closed_form_keep_rate,
    estimate_set_keep_rate,
    estimate_state_keep_rates,
    gamma_table_csv,
    greedy_keep,
    min_rate,
    prune_by_outer,
    prune_by_schedule,
    prune_combined,
    resolve_set,
    sample_thinned_realization,
    schedule_keep_set,
    support,
    thinned_distribution,
)
from stochsubmax.seeds import derive_rng


def flat_solution(instance, marginals):
    """Hand-built solution putting each item's whole marginal on slot 1."""
    entries = tuple(
        (i, 1, float(m)) for i, m in enumerate(marginals) if m > 0
    )
    return SlotSolution(
        n=instance.n, budget=instance.budget, entries=entries,
        marginals=np.asarray(marginals, dtype=float),
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )


def test_thinned_sampling_degenerate(pair_instance):
    v = sample_thinned_realization(pair_instance, [0.0, 0.0], seed=1)
    assert list(v) == [0, 0]
    one = symmetric_pair_instance()
    v = sample_thinned_realization(one, [1.0, 1.0], seed=2)
    assert all(s >= 1 for s in v)


def test_thinned_sampling_frequencies(pair_instance):
    dist = thinned_distribution(pair_instance, [0.5, 0.5])
    rng = derive_rng(0, "test")
    draws = dist.sample(rng, 30_000)[:, 0]
    for state, p in ((0, 0.5), (1, 0.25), (2, 0.25)):
        freq = float(np.mean(draws == state))
        se = math.sqrt(p * (1 - p) / len(draws))
        assert abs(freq - p) <= 3 * se


def test_thinned_rows_sum_to_one(pair_instance):
    dist = thinned_distribution(pair_instance, [0.3, 0.8])
    assert np.all(np.abs(dist.probs.sum(axis=1) - 1.0) <= 1e-12)


def test_identity_scheme_returns_independent_sets():
    outer = constraints.cardinality(3, 3)
    crs = BalancedCrs(kind="identity", scale=0.5)
    assert resolve_set(crs, outer, {0, 2}, seed=1) == {0, 2}
    binding = constraints.cardinality(3, 1)
    with pytest.raises(ValueError):
        resolve_set(crs, binding, {0, 2}, seed=1)


def test_priority_scheme_symmetry():
    outer = constraints.cardinality(2, 1)
    crs = BalancedCrs(kind="priority", scale=0.5)
    kept_first = 0
    trials = 4000
    for seed in range(trials):
        kept = resolve_set(crs, outer, {0, 1}, seed=seed)
        assert len(kept) == 1
        if kept == {0}:
            kept_first += 1
    se = math.sqrt(0.25 / trials)
    assert abs(kept_first / trials - 0.5) <= 3 * se


def test_resolve_empty_set():
    outer = constraints.cardinality(2, 1)
    crs = BalancedCrs(kind="priority", scale=0.5)
    assert resolve_set(crs, outer, set(), seed=0) == set()


def test_greedy_keep_output_always_independent():
    outer = constraints.partition(5, [[0, 1, 2], [3, 4]], [1, 1])
    rng = derive_rng(3, "priorities")
    for _ in range(200):
        members = set(np.nonzero(rng.random(5) < 0.6)[0])
        kept = greedy_keep(outer, members, rng.random(5))
        assert kept <= members
        assert constraints.is_independent(outer, kept)


def test_set_keep_rate_identity(pair_instance):
    crs = BalancedCrs(kind="identity", scale=0.25)
    rows = estimate_set_keep_rate(
        crs, pair_instance.outer, [0.25, 0.25], trials=2000, seed=0
    )
    assert all(r.value == 1.0 for r in rows)


def test_set_keep_rate_meets_closed_form_target():
    outer = constraints.cardinality(2, 1)
    crs = BalancedCrs(kind="priority", scale=0.5)
    rows = estimate_set_keep_rate(crs, outer, [0.25, 0.25], trials=20_000, seed=1)
    target = closed_form_keep_rate(0.5)
    assert target == pytest.approx(0.786939, abs=1e-6)
    for r in rows:
        assert r.status == "ok"
        assert r.value >= target - 3 * r.se


def test_set_keep_rate_insufficient_when_never_sampled():
    outer = constraints.cardinality(2, 1)
    crs = BalancedCrs(kind="priority", scale=0.5)
    rows = estimate_set_keep_rate(crs, outer, [0.0, 0.0], trials=500, seed=2)
    assert all(r.status == "insufficient" for r in rows)
    assert min_rate(rows) == (1.0, 0.0)


def test_set_keep_rate_rejects_outside_scale():
    outer = constraints.cardinality(2, 1)
    crs = BalancedCrs(kind="priority", scale=0.25)
    with pytest.raises(ValueError):
        estimate_set_keep_rate(crs, outer, [0.5, 0.5], trials=100, seed=0)


def test_prune_by_outer_cases(pair_instance):
    crs_id = BalancedCrs(kind="identity", scale=0.25)
    v = np.array([1, 2])
    out = prune_by_outer(pair_instance.outer, crs_id, v, seed=0)
    assert list(out) == [1, 2]
    assert list(prune_by_outer(pair_instance.outer, crs_id, np.zeros(2, int), seed=0)) == [0, 0]

    binding = constraints.cardinality(2, 1)
    crs = BalancedCrs(kind="priority", scale=0.5)
    seen = set()
    for seed in range(50):
        out = tuple(prune_by_outer(binding, crs, v, seed=seed))
        assert out in ((1, 0), (0, 2))
        seen.add(out)
    assert seen == {(1, 0), (0, 2)}


def test_schedule_keep_single_item(pair_instance):
    v = np.array([2, 0])
    assert schedule_keep_set(pair_instance, v, {0: 1}) == {0}


def test_schedule_keep_hand_cases(pair_instance):
    # both items at state 1 (cost 1), both starting at slot 1: each sees the
    # other's cost 1 <= 1, so both survive
    v = np.array([1, 1])
    assert schedule_keep_set(pair_instance, v, {0: 1, 1: 1}) == {0, 1}
    # item 1 at state 2 (cost 2): item 2 sees cost 2 > 1 and is dropped, while
    # item 1 sees item 2's cost 1 <= 1 and survives
    v = np.array([2, 1])
    assert schedule_keep_set(pair_instance, v, {0: 1, 1: 1}) == {0}


def test_schedule_keep_counts_all_items_starting_no_later(pair_instance):
    # equal start slots count each other even when listed later in index order
    v = np.array([1, 2])
    kept = schedule_keep_set(pair_instance, v, {0: 1, 1: 1})
    # item 0 sees cost 2 > 1 -> dropped; item 1 sees cost 1 <= 1 -> kept
    assert kept == {1}


def test_prune_by_schedule_rejects_zero_marginal_support(pair_instance):
    sol = flat_solution(pair_instance, [0.25, 0.0])
    with pytest.raises(ValueError):
        prune_by_schedule(pair_instance, sol, np.array([1, 1]), seed=0)


def test_prune_maps_support_condition(pair_instance):
    sol = flat_solution(pair_instance, [0.5, 0.5])
    crs = BalancedCrs(kind="priority", scale=0.5)
    for seed in range(100):
        v = sample_thinned_realization(pair_instance, sol.marginals, seed=seed)
        for out in (
            prune_by_outer(pair_instance.outer, crs, v, seed=seed),
            prune_by_schedule(pair_instance, sol, v, seed=seed)[0],
            prune_combined(pair_instance, pair_instance.outer, crs, sol, v, seed=seed),
        ):
            assert all(out[i] in (0, v[i]) for i in range(2))


def test_prune_combined_is_intersection(pair_instance):
    from stochsubmax.rounding import _outer_keep, _schedule_keep

    sol = flat_solution(pair_instance, [0.5, 0.5])
    crs = BalancedCrs(kind="priority", scale=0.5)
    for seed in range(200):
        v = sample_thinned_realization(pair_instance, sol.marginals, seed=seed)
        combined = prune_combined(
            pair_instance, pair_instance.outer, crs, sol, v, seed=seed
        )
        keep_a = _outer_keep(
            pair_instance.outer, crs, v, derive_rng(seed, "combined-outer")
        )
        keep_b, _ = _schedule_keep(
            pair_instance, sol, v, derive_rng(seed, "combined-schedule")
        )
        assert set(support(combined)) == (keep_a & keep_b) & set(support(v))


def certified_pair_solution():
    inst = symmetric_pair_instance()
    sol = run_continuous_greedy(
        inst, inst.utility, inst.outer, stop_scale=0.25, steps=20,
        grad_samples=1000, seed=13,
    )
    return inst, sol


def test_state_keep_rates_outer_identity():
    inst, sol = certified_pair_solution()
    crs = BalancedCrs(kind="identity", scale=0.25)
    rows = estimate_state_keep_rates(
        "outer", inst, inst.outer, crs, sol, trials=3000, seed=0
    )
    for r in rows:
        assert r.status == "ok"
        assert r.value == 1.0


def test_state_keep_rates_schedule_bound():
    inst, sol = certified_pair_solution()
    crs = BalancedCrs(kind="priority", scale=0.25)
    rows = estimate_state_keep_rates(
        "schedule", inst, inst.outer, crs, sol, trials=20_000, seed=1
    )
    for r in rows:
        if r.status == "ok":
            assert r.value >= 0.5 - 3 * r.se


def test_state_keep_rates_product_bound():
    inst, sol = certified_pair_solution()
    crs = BalancedCrs(kind="priority", scale=0.25)
    trials = 30_000
    tables = {
        m: {
            (r.item, r.state): r
            for r in estimate_state_keep_rates(
                m, inst, inst.outer, crs, sol, trials=trials, seed=2
            )
        }
        for m in ("outer", "schedule", "combined")
    }
    for key, combined in tables["combined"].items():
        a = tables["outer"][key]
        b = tables["schedule"][key]
        if "insufficient" in (a.status, b.status, combined.status):
            continue
        se = math.sqrt(
            combined.se**2 + (a.value * b.se) ** 2 + (b.value * a.se) ** 2
        )
        assert combined.value >= a.value * b.value - 3 * se


def test_outer_map_monotone_under_coupled_pairs():
    # growing the support can only lower the chance a fixed coordinate survives
    outer = constraints.cardinality(3, 1)
    crs = BalancedCrs(kind="priority", scale=1.0)
    rng = derive_rng(17, "pairs")
    kept_small = kept_large = 0
    trials = 8000
    for _ in range(trials):
        v = np.array([1, 1, 1])
        u = np.array([1, 0, 0])
        kept_small += 0 in greedy_keep(outer, support(u), rng.random(3))
        kept_large += 0 in greedy_keep(outer, support(v), rng.random(3))
    p_small = kept_small / trials
    p_large = kept_large / trials
    se = math.sqrt(p_small * (1 - p_small) / trials) + math.sqrt(
        p_large * (1 - p_large) / trials
    )
    assert p_small >= p_large - 3 * se


def test_outer_map_monotone_on_random_coupled_pairs(pair_instance):
    # random v from the thinned law, u a random sub-support fixing the target
    # coordinate; keep frequency under u must dominate (up to noise)
    outer = constraints.partition(4, [[0, 1], [2, 3]], [1, 1])
    marginals = np.array([0.5, 0.5, 0.5, 0.5])
    rng = derive_rng(23, "pairs")
    trials = 6000
    kept_small = kept_large = events = 0
    for _ in range(trials):
        v = np.where(rng.random(4) < marginals, 1, 0)
        if v[0] == 0:
            continue
        u = v * (rng.random(4) < 0.5)
        u[0] = v[0]
        events += 1
        kept_small += 0 in greedy_keep(outer, support(u), rng.random(4))
        kept_large += 0 in greedy_keep(outer, support(v), rng.random(4))
    p_small = kept_small / events
    p_large = kept_large / events
    se = math.sqrt(p_small * (1 - p_small) / events) + math.sqrt(
        p_large * (1 - p_large) / events
    )
    assert p_small >= p_large - 3 * se


def test_csv_headers_golden():
    inst, sol = certified_pair_solution()
    crs = BalancedCrs(kind="priority", scale=0.25)
    alpha_rows = estimate_state_keep_rates(
        "outer", inst, inst.outer, crs, sol, trials=100, seed=0
    )
    gamma_rows = estimate_set_keep_rate(crs, inst.outer, sol.marginals, trials=100, seed=0)
    assert alpha_table_csv(alpha_rows).splitlines()[0] == (
        "item,state,mapping,alpha,se,trials,status"
    )
    assert gamma_table_csv(gamma_rows).splitlines()[0] == "item,gamma,se,trials,status"


def test_estimators_worker_independent():
    inst, sol = certified_pair_solution()
    crs = BalancedCrs(kind="priority", scale=0.25)
    a = estimate_state_keep_rates("combined", inst, inst.outer, crs, sol, 9000, seed=5, workers=1)
    b = estimate_state_keep_rates("combined", inst, inst.outer, crs, sol, 9000, seed=5, workers=2)
    assert a == b
    c = estimate_set_keep_rate(crs, inst.outer, sol.marginals, 9000, seed=5, workers=1)
    d = estimate_set_keep_rate(crs, inst.outer, sol.marginals, 9000, seed=5, workers=2)
    assert c == d


def test_thinned_distribution_rejects_bad_marginals(pair_instance):
    with pytest.raises(ValueError):
        thinned_distribution(pair_instance, [1.5, 0.2])
    with pytest.raises(ValueError):
        thinned_distribution(pair_instance, [0.5])


def test_state_keep_rates_reject_bad_marginals(pair_instance):
    bad = flat_solution(pair_instance, [1.5, 0.2])
    crs = BalancedCrs(kind="priority", scale=0.25)
    with pytest.raises(ValueError, match="marginals"):
        estimate_state_keep_rates("outer", pair_instance, pair_instance.outer, crs, bad, 10, 0)
