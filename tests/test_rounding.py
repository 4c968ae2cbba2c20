import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsubmax import constraints
from stochsubmax.constraints import in_scaled_polytope
from stochsubmax.generators import symmetric_pair_instance
from stochsubmax.greedy import SlotSolution, run_continuous_greedy
from stochsubmax.lattice import WeightedModular
from stochsubmax.model import Instance, ItemModel
from stochsubmax.policy import simulate_batch
from stochsubmax.rounding import (
    MAPPINGS,
    BalancedCrs,
    CrsEstimate,
    _binomial_rows,
    _blank_rows,
    alpha_table_csv,
    closed_form_keep_rate,
    crs_keep_batch,
    draw_block,
    estimate_set_keep_rate,
    estimate_state_keep_rates,
    exact_set_keep_rate,
    gamma_table_csv,
    min_rate,
    schedule_keep_batch,
    state_keep_batch,
)
from stochsubmax.seeds import derive_rng
from tests.conftest import edge_instances, examples
from tests.reference import exact_set_keep_rate as enumerated_keep_rate, greedy_keep


def flat_solution(instance, marginals):
    """Hand-built solution putting each item's whole marginal on slot 1."""
    entries = tuple(
        (i, 1, float(m)) for i, m in enumerate(marginals) if m > 0
    )
    return SlotSolution(
        n=instance.n, budget=instance.budget, entries=entries,
        stop_scale=0.25, steps=1, grad_samples=1, seed=0,
    )


def test_identity_scheme_returns_independent_sets():
    outer = constraints.cardinality(3, 3)
    crs = BalancedCrs(kind="identity", scale=0.5)
    members, priorities = np.array([[True, False, True]]), np.zeros((1, 3))
    items = np.arange(3)
    assert crs_keep_batch(crs, outer, members, priorities, items).tolist() == [[True, False, True]]
    binding = constraints.cardinality(3, 1)
    with pytest.raises(ValueError, match="outside the outer family"):
        crs_keep_batch(crs, binding, members, priorities, items)


def test_priority_scheme_symmetry():
    """Under k = 1 each of two sampled items is kept with probability 1/2.

    Passes iff the keep share of item 0 over 12000 trials is within
    3 * sqrt(0.25 / 4000) = 0.0237 of 1/2, i.e. the keep count within 284 of
    6000: 5.2 SE at 12000 trials. A correct scheme fails this with
    probability 2.0e-7 (exact binomial tail).
    """
    outer = constraints.cardinality(2, 1)
    crs = BalancedCrs(kind="priority", scale=0.5)
    trials = 12000
    priorities = np.array([derive_rng(seed, "resolve").random(2) for seed in range(trials)])
    kept = crs_keep_batch(crs, outer, np.ones((trials, 2), dtype=bool), priorities, [0, 1])
    assert np.all(kept.sum(axis=1) == 1)
    kept_first = int(kept[:, 0].sum())
    tolerance = 3 * math.sqrt(0.25 / 4000)
    assert abs(kept_first / trials - 0.5) <= tolerance


def test_resolve_empty_set():
    outer = constraints.cardinality(2, 1)
    crs = BalancedCrs(kind="priority", scale=0.5)
    kept = crs_keep_batch(crs, outer, np.zeros((1, 2), dtype=bool), np.zeros((1, 2)), [0, 1])
    assert not kept.any()


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


def test_exact_keep_rate_of_the_readme_case():
    """At k = 1 and y = (0.2, 0.0125 x 4), each small item is kept with
    probability 0.88388 given that it is sampled, below the fair scheme's 0.88480,
    and the large one with probability 0.97531: by the Poisson-binomial sum and by
    enumeration."""
    crs = BalancedCrs(kind="priority", scale=0.25)
    outer, y = constraints.cardinality(5, 1), [0.2] + [0.0125] * 4
    for gamma in (exact_set_keep_rate(crs, outer, y), enumerated_keep_rate(crs, outer, y)):
        assert gamma == pytest.approx([0.97531] + [0.88388] * 4, abs=5e-6)
    assert closed_form_keep_rate(0.25) == pytest.approx(0.88480, abs=5e-6)


@st.composite
def keep_rate_cases(draw):
    """A cardinality or partition constraint over n = 1..6 items, caps 0..|block|,
    with marginals inside its hull, some of them 0 (a cap-0 block's total at most
    1e-10, within the hull's tolerance)."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        blocks = [list(range(n))]
        outer = constraints.cardinality(n, draw(st.integers(0, n)))
        caps = [outer.k]
    else:
        home = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = [[i for i in range(n) if home[i] == r] for r in sorted(set(home))]
        caps = [draw(st.integers(0, len(b))) for b in blocks]
        outer = constraints.partition(n, blocks, caps)
    # no marginal below 1e-3 but 0: the enumeration's products must not underflow
    y = np.array(draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]) | st.floats(1e-3, 1),
                               min_size=n, max_size=n)))
    for block, cap in zip(blocks, caps):
        total, room = y[block].sum(), cap if cap else 1e-10
        if total > room:
            y[block] *= room / total
    return outer, y


@settings(max_examples=examples(100), deadline=None)
@given(keep_rate_cases())
def test_exact_keep_rate_matches_enumeration(case):
    """``rounding.exact_set_keep_rate`` against the enumeration of every sampled
    set and every priority order (tests/reference.py) within 1e-12, every item."""
    outer, y = case
    crs = BalancedCrs(kind="priority", scale=1.0)
    np.testing.assert_allclose(exact_set_keep_rate(crs, outer, y),
                               enumerated_keep_rate(crs, outer, y), rtol=0, atol=1e-12)


def test_exact_keep_rate_under_identity():
    """The identity scheme keeps at rate 1 on an independent support, with items of
    marginal 0 outside it, and refuses a support that can sample a dependent set."""
    crs = BalancedCrs(kind="identity", scale=1.0)
    outer = constraints.partition(4, [[0, 1], [2, 3]], [1, 1])
    for rates in (exact_set_keep_rate, enumerated_keep_rate):
        assert rates(crs, outer, [0.5, 0.0, 0.0, 0.8]).tolist() == [1.0] * 4
        with pytest.raises(ValueError, match="outside the outer family"):
            rates(crs, outer, [0.5, 0.25, 0.0, 0.8])


@pytest.mark.parametrize("outer, marginals", [
    (constraints.cardinality(5, 1), [0.2] + [0.0125] * 4),
    (constraints.cardinality(6, 2), [0.5, 0.4, 0.4, 0.3, 0.2, 0.2]),
    # blocks of cap 1, 2, 1 and 0; item 4 has marginal 0, and block [6] fits its cap
    (constraints.partition(8, [[0, 2, 4], [1, 3, 5], [6], [7]], [1, 2, 1, 0]),
     [0.3, 0.5, 0.2, 0.6, 0.0, 0.9, 0.5, 0.0]),
])
def test_set_keep_rate_matches_the_exact_rate(outer, marginals):
    """Every row with data lies within 4 SE of the priority rule's exact keep rate
    (``rounding.exact_set_keep_rate``) at 200000 trials.

    The SE is the binomial one at the exact rate, sqrt(gamma (1 - gamma) / events),
    so a row whose estimate reads 0 or 1 is still tested, and a rate of exactly 1
    must read 1. A correct scheme fails a row with probability about
    2 P(Z > 4) = 6.3e-5 (normal approximation), so at most 1.0e-3 over the 16
    rows here whose rate lies strictly between 0 and 1; seed 11 gives a largest
    |z| of 2.3.
    """
    crs = BalancedCrs(kind="priority", scale=1.0)
    gamma = exact_set_keep_rate(crs, outer, marginals)
    rows = estimate_set_keep_rate(crs, outer, marginals, trials=200_000, seed=11)
    with_data = [r for r in rows if r.status == "ok"]
    assert [r.item for r in with_data] == np.flatnonzero(marginals).tolist()
    for r in with_data:
        g = gamma[r.item]
        se = math.sqrt(g * (1 - g) / r.events)
        assert abs(r.value - g) <= 4 * se + 1e-12, (r, g)


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
    with pytest.raises(ValueError, match="not inside 0.25"):
        exact_set_keep_rate(crs, outer, [0.5, 0.5])


def test_prune_by_outer_cases(pair_instance):
    # the outer map keeps the items the set-level scheme keeps of the support
    crs_id = BalancedCrs(kind="identity", scale=0.25)
    on = np.array([[True, True], [False, False]])
    kept = crs_keep_batch(crs_id, pair_instance.outer, on, np.zeros((2, 2)), [0, 1])
    assert kept.tolist() == on.tolist()
    crs = BalancedCrs(kind="priority", scale=0.5)
    priorities = derive_rng(0, "outer").random((50, 2))
    kept = crs_keep_batch(
        crs, constraints.cardinality(2, 1), np.ones((50, 2), bool), priorities, [0, 1]
    )
    assert {tuple(row) for row in kept.tolist()} == {(True, False), (False, True)}


def test_schedule_keep_single_item(pair_instance):
    v = np.array([[2, 0]])
    kept = schedule_keep_batch(pair_instance, v, flat_solution(pair_instance, [0.5, 0.5]))
    assert kept.tolist() == [[True, False]]


def test_schedule_keep_hand_cases(pair_instance):
    # row 0: both items at state 1 (cost 1) start at slot 1; each sees the
    # other's cost 1 <= 1, so both survive. Row 1: item 1 at state 2 (cost 2);
    # item 2 sees cost 2 > 1 and is dropped, item 1 sees cost 1 <= 1 and survives
    v = np.array([[1, 1], [2, 1]])
    kept = schedule_keep_batch(pair_instance, v, flat_solution(pair_instance, [0.5, 0.5]))
    assert kept.tolist() == [[True, True], [True, False]]


def test_schedule_keep_counts_all_items_starting_no_later(pair_instance):
    # equal start slots count each other even when listed later in index order
    # item 0 sees cost 2 > 1 -> dropped; item 1 sees cost 1 <= 1 -> kept
    sol = flat_solution(pair_instance, [0.5, 0.5])
    kept = schedule_keep_batch(pair_instance, np.array([[1, 2]]), sol)
    assert kept.tolist() == [[False, True]]


def test_prune_by_schedule_rejects_zero_marginal_support(pair_instance):
    # the schedule map reads a slot for every support item; the marginals are
    # the entries' values, so an item without a slot entry has marginal 0 and
    # is outside the support
    sol = SlotSolution(
        n=2, budget=pair_instance.budget, entries=((0, 1, 0.25),), stop_scale=0.25, steps=1,
        grad_samples=1, seed=0,
    )
    assert sol.marginals.tolist() == [0.25, 0.0]
    assert sol.support.tolist() == [0] and sol.slots.tolist() == [1]


def test_prune_maps_support_condition(pair_instance):
    # each map keeps only sampled coordinates, so its output is v(i) or 0
    sol = flat_solution(pair_instance, [0.5, 0.5])
    crs = BalancedCrs(kind="priority", scale=0.5)
    support = sol.support
    d = draw_block(pair_instance, sol, derive_rng(0, "support"), 100)
    v = d.thinned
    sampled = v > 0
    outer = crs_keep_batch(crs, pair_instance.outer, sampled, d.priorities, support)
    schedule = schedule_keep_batch(pair_instance, v, sol)
    for keep in (outer, schedule, outer & schedule):
        assert not np.any(keep & ~sampled)


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
    """Growing the support can only lower the chance a fixed coordinate survives.

    Item 0 alone is always kept, so p_small is 1 and the check
    p_small >= p_large - 3 SE holds for every draw: its false-failure rate is 0.
    """
    outer = constraints.cardinality(3, 1)
    crs = BalancedCrs(kind="priority", scale=1.0)
    rng = derive_rng(17, "pairs")
    kept_small = kept_large = 0
    trials = 8000
    for _ in range(trials):
        v = np.array([1, 1, 1])
        u = np.array([1, 0, 0])
        kept_small += 0 in greedy_keep(outer, np.flatnonzero(u), rng.random(3))
        kept_large += 0 in greedy_keep(outer, np.flatnonzero(v), rng.random(3))
    p_small = kept_small / trials
    p_large = kept_large / trials
    se = math.sqrt(p_small * (1 - p_small) / trials) + math.sqrt(
        p_large * (1 - p_large) / trials
    )
    assert p_small >= p_large - 3 * se


def test_outer_map_monotone_on_random_coupled_pairs(pair_instance):
    """Random v from the thinned law, u a random sub-support fixing the target
    coordinate; the keep frequency under u must dominate, up to noise.

    Item 0 is kept with probability 0.875 under u and 0.75 under v, so a
    failure needs the mean of the per-event differences, each in [-1, 1], to
    fall 0.125 below its mean. Hoeffding's bound over at least 2500 events
    puts the false-failure rate below 4e-9 (fewer events has probability
    1e-38).
    """
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
        kept_small += 0 in greedy_keep(outer, np.flatnonzero(u), rng.random(4))
        kept_large += 0 in greedy_keep(outer, np.flatnonzero(v), rng.random(4))
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


def _per_row(mapping, cond, kept, states):
    """The per-row formula the array form must reproduce bit for bit."""
    rows = []
    for i in range(cond.shape[0]):
        for j in (range(1, cond.shape[1]) if states else [None]):
            c = int(cond[i, j] if states else cond[i, 0])
            k = int(kept[i, j] if states else kept[i, 0])
            if c == 0:
                nan = float("nan")
                rows.append(CrsEstimate(i, j, mapping, nan, nan, 0, "insufficient"))
            else:
                p = k / c
                se = math.sqrt(max(p * (1 - p), 0.0) / c)
                rows.append(CrsEstimate(i, j, mapping, p, se, c, "ok"))
    return rows


def test_binomial_rows_match_the_per_row_formula():
    # up to n = 40, as solve-large's keep tables, on the full support and on a
    # strict subset of the items, whose other rows come from the cached blank
    # rows; every field's value and type equals the formula's on the full
    # table, NaN included where a cell has no sampled event
    rng = np.random.default_rng(12)
    for _ in range(50):
        n, width = int(rng.integers(1, 41)), int(rng.integers(2, 5))
        cond = rng.integers(0, 5000, size=(n, width)) * (rng.random((n, width)) < 0.8)
        kept = np.minimum(cond, rng.integers(0, 5000, size=(n, width)))
        partial = np.flatnonzero(rng.random(n) < 0.3)
        for support in (np.arange(n), partial):
            off = np.setdiff1d(np.arange(n), support)
            cond[off] = kept[off] = 0  # an item off the support is never sampled
            for mapping, states in (("combined", True), ("set", False)):
                table = (cond, kept) if states else (cond[:, :1], kept[:, :1])
                rows = _binomial_rows(mapping, *(t[support] for t in table), support, n,
                                      states=states)
                expected = _per_row(mapping, *table, states=states)
                assert [repr(r) for r in rows] == [repr(r) for r in expected]
                assert all(type(r) is CrsEstimate for r in rows)
                assert [tuple(map(type, r)) for r in rows] == [
                    tuple(map(type, r)) for r in expected
                ]
                csv = alpha_table_csv if states else gamma_table_csv
                assert csv(rows) == csv(expected)


def rows_digest(rows) -> str:
    """SHA-256 of the rows with their floats in hex, so a pin is bit exact."""
    text = "\n".join(
        f"{r.item},{r.state},{r.mapping},{r.value.hex()},{r.se.hex()},{r.events},{r.status}"
        for r in rows
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_keep_rate_estimators_pinned():
    # 9000 trials span three seeded blocks; the pins hold the block streams
    # and their in-order reduction fixed, bit for bit
    inst, sol = certified_pair_solution()
    crs = BalancedCrs(kind="priority", scale=0.25)

    def state_rows(seed):
        return estimate_state_keep_rates("combined", inst, inst.outer, crs, sol, 9000, seed)

    def set_rows(seed):
        return estimate_set_keep_rate(crs, inst.outer, sol.marginals, 9000, seed)

    assert rows_digest(state_rows(5)) == (
        "f5df7dd02a148223cf5e1de7e5c74fbb49e92e1add2d7ab89d78e9b6bba3a48d"
    )
    assert rows_digest(set_rows(5)) == (
        "6f9cce88800a9bae45ebc4fec22cf2dd9c6494c5514de5179d1b80464931997c"
    )
    # digests, since a row without data holds NaN and compares unequal to itself
    assert rows_digest(state_rows(6)) != rows_digest(state_rows(5))
    assert rows_digest(set_rows(6)) != rows_digest(set_rows(5))


def wide_instance_solution():
    """An n = 40, B = 3 instance under cardinality 10 and its 4-step greedy solution.

    The solution's support holds 11 of the 40 items, with tied start slots.
    """
    rng = np.random.default_rng(20)
    n, B = 40, 3
    items = []
    for _ in range(n):
        p = rng.uniform(0.1, 1.0, size=B)
        costs = sorted(int(c) for c in rng.integers(1, 12, size=B))
        items.append(ItemModel(tuple(float(x) for x in p / p.sum()), tuple(costs)))
    weights = tuple(float(w) for w in np.round(rng.uniform(0.5, 2.0, size=n), 3))
    inst = Instance(n=n, B=B, budget=30, items=tuple(items),
                    outer=constraints.cardinality(n, 10), utility=WeightedModular(weights))
    sol = run_continuous_greedy(inst, inst.utility, inst.outer, stop_scale=0.25, steps=4,
                                grad_samples=100, seed=3)
    return inst, sol


def test_keep_rates_and_simulation_pinned_on_a_partial_support():
    # 5000 trials span two seeded blocks; 29 of the 40 items carry no mass, so
    # their rows hold no data. The state keep-rate and simulation pins were
    # re-recorded when a block went to one uniform per cell; the set keep
    # rate's pin did not move
    inst, sol = wide_instance_solution()
    assert sol.support.tolist() == [2, 3, 4, 7, 11, 18, 20, 25, 26, 30, 34]
    crs = BalancedCrs(kind="priority", scale=0.25)
    set_rows = estimate_set_keep_rate(crs, inst.outer, sol.marginals, 5000, 7)
    assert rows_digest(set_rows) == (
        "eb878f84228e048dc38386c421c002303ce110889b56fef9725eea4e706e94c4"
    )
    pins = {
        "outer": "acb4debefb9865b06c06a98bd7e2713ed07d7536651f47940a4e0e363ca2a73f",
        "schedule": "0faa4623bbc193b6270ba407e6ee5d1c368b09821a78591f121dd43719ea0a08",
        "combined": "bd2b5d15b3680d712e8bd3ef4f3f98aa7223e51c6f47f4763bee97756c3b2a8e",
    }
    off = set(range(inst.n)) - set(sol.support.tolist())
    for mapping in MAPPINGS:
        rows = estimate_state_keep_rates(mapping, inst, inst.outer, crs, sol, 5000, 7)
        assert rows_digest(rows) == pins[mapping], mapping
        assert [(r.item, r.state) for r in rows] == [
            (i, s) for i in range(inst.n) for s in range(1, inst.B + 1)
        ]
        assert all(r.status == "insufficient" for r in rows if r.item in off)
    s = simulate_batch(inst, inst.utility, inst.outer, crs, sol, 5000, 7)
    assert (s.runs, s.mean_utility.hex(), s.se.hex(), s.inner_violations, s.outer_violations,
            s.adaptivity_violations) == (5000, "0x1.0d12890420204p+3", "0x1.1a78a696539bdp-4",
                                         0, 0, 0)


def test_state_keep_rates_reject_an_unknown_mapping(pair_instance):
    sol = flat_solution(pair_instance, [0.5, 0.2])
    crs = BalancedCrs(kind="priority", scale=0.25)
    d = draw_block(pair_instance, sol, np.random.default_rng(0), 4)
    with pytest.raises(ValueError, match="mapping must be one of"):
        state_keep_batch("set", pair_instance, pair_instance.outer, crs, sol, d)
    with pytest.raises(ValueError, match="mapping must be one of"):
        estimate_state_keep_rates("set", pair_instance, pair_instance.outer, crs, sol, 10, 0)


def test_state_keep_rates_reject_bad_marginals(pair_instance):
    bad = flat_solution(pair_instance, [1.5, 0.2])
    crs = BalancedCrs(kind="priority", scale=0.25)
    with pytest.raises(ValueError, match="marginals"):
        estimate_state_keep_rates("outer", pair_instance, pair_instance.outer, crs, bad, 10, 0)


def test_one_uniform_draw_has_the_thinned_law():
    """``draw_block`` at N = 10^5 rows on a fixed instance: each (item, state)
    count lies within 5 SE of N x_i p_is and each item's zero count within 5 SE
    of N (1 - x_i), with the binomial SE sqrt(N q (1 - q)); a count whose
    probability q is 0 or 1 must be exact. A correct draw fails one of the 14
    checks with q strictly between 0 and 1 with probability at most
    14 * 2 P(Z > 5) = 8.0e-6 (normal approximation); seed 19 gives a largest
    |z| of 2.6. The sampled mask is ``u < x_i`` bit for bit on the block's own
    uniforms, item c's being row c of one ``random((n_s, N))`` draw.
    """
    items = (
        ItemModel(probs=(0.5, 0.3, 0.2), costs=(1, 2, 3)),
        ItemModel(probs=(0.1, 0.1, 0.8), costs=(1, 1, 2)),
        ItemModel(probs=(0.6, 0.4, 0.0), costs=(2, 2, 2)),
        ItemModel(probs=(0.25, 0.25, 0.5), costs=(1, 2, 2)),
        ItemModel(probs=(0.2, 0.2, 0.6), costs=(1, 1, 1)),
    )
    inst = Instance(n=5, B=3, budget=10, items=items, outer=constraints.cardinality(5, 5),
                    utility=WeightedModular(weights=(1.0,) * 5))
    inst.require_valid()
    # item 3 carries no mass, so it is no column; item 2 is always sampled
    sol = SlotSolution(n=5, budget=10, entries=((0, 1, 0.3), (1, 1, 0.05), (2, 1, 1.0),
                                                (4, 1, 0.7)),
                       stop_scale=0.25, steps=1, grad_samples=1, seed=0)
    N = 100_000
    d = draw_block(inst, sol, np.random.default_rng(19), N)
    assert d.thinned.shape == (N, 4) and d.thinned.dtype == np.int8
    u = np.random.default_rng(19).random((4, N)).T
    x = sol.marginals[sol.support]
    assert np.array_equal(d.thinned > 0, u < x)
    probs = inst.prob_matrix[sol.support]
    checks = 0
    for c in range(4):
        laws = [(0, 1 - x[c])] + [(s, x[c] * probs[c, s - 1]) for s in range(1, 4)]
        for state, q in laws:
            count = int(np.count_nonzero(d.thinned[:, c] == state))
            if q in (0.0, 1.0):
                assert count == N * q, (c, state)
            else:
                checks += 1
                assert abs(count - N * q) <= 5 * math.sqrt(N * q * (1 - q)), (c, state, count)
    assert checks == 14
    # past B = 127 the count is int32: an item whose top state of 200 has probability
    # 0.99 and marginal 1 reads 200 in about 99% of the rows
    wide = Instance(n=1, B=200, budget=10,
                    items=(ItemModel(probs=(0.01 / 199,) * 199 + (0.99,), costs=(1,) * 200),),
                    outer=constraints.cardinality(1, 1), utility=WeightedModular(weights=(1.0,)))
    wide.require_valid()
    top = draw_block(wide, flat_solution(wide, [1.0]), np.random.default_rng(3), 1000).thinned
    assert top.dtype == np.int32 and 1 <= top.min() and top.max() == 200
    assert np.count_nonzero(top == 200) >= 950


@pytest.mark.parametrize("outer, marginals", [
    # the README case: a cap of 1 over all five items
    (constraints.cardinality(5, 1), [0.2] + [0.0125] * 4),
    # a cap-1 block over items 1-3; the cap-2 block over items 4-5 always fits
    (constraints.partition(5, [[0, 1, 2], [3, 4]], [1, 2]), [0.3, 0.5, 0.2, 0.6, 0.4]),
])
def test_outer_state_rows_match_the_exact_rate(outer, marginals):
    """Every ``outer`` row of item i, at each of its B = 2 states, lies within 4 SE
    of the priority rule's exact set keep rate gamma_i
    (``rounding.exact_set_keep_rate``) at 200000 trials: the outer map
    drops an item whatever its state, so each state's rate is gamma_i.

    The SE is the binomial one at the exact rate, sqrt(gamma (1 - gamma) / events),
    and a rate of exactly 1 must read 1. A correct estimator fails a row with
    probability about 2 P(Z > 4) = 6.3e-5 (normal approximation), so at most
    1.0e-3 over the 16 rows here whose rate lies strictly between 0 and 1;
    seed 23 gives a largest |z| of 1.9.
    """
    n = outer.n
    items = (ItemModel(probs=(0.4, 0.6), costs=(1, 2)),) * n
    inst = Instance(n=n, B=2, budget=10, items=items, outer=outer,
                    utility=WeightedModular(weights=(1.0,) * n))
    inst.require_valid()
    crs = BalancedCrs(kind="priority", scale=1.0)
    gamma = exact_set_keep_rate(crs, outer, marginals)
    rows = estimate_state_keep_rates("outer", inst, outer, crs, flat_solution(inst, marginals),
                                     trials=200_000, seed=23)
    assert [(r.item, r.state) for r in rows] == [(i, s) for i in range(n) for s in (1, 2)]
    for r in rows:
        g = gamma[r.item]
        assert r.status == "ok"
        se = math.sqrt(g * (1 - g) / r.events)
        assert abs(r.value - g) <= 4 * se + 1e-12, (r, g)


@settings(max_examples=examples(100))
@given(edge_instances())
def test_keep_rate_estimators_on_edge_instances(case):
    """The four estimators at k = 0, B = 1, with items that have no slot and on an
    empty support: every row is insufficient or lies in [0, 1], at k = 0 every
    sampled ``outer`` and ``combined`` cell reads 0, and an empty support gives
    exactly the cached blank rows. The set estimator refuses marginals outside
    the hull, as at k = 0 with a nonempty support."""
    inst, sol, seed = case
    crs = BalancedCrs(kind="priority", scale=1.0)
    tables = {m: estimate_state_keep_rates(m, inst, inst.outer, crs, sol, 300, seed)
              for m in MAPPINGS}
    if in_scaled_polytope(inst.outer, sol.marginals, 1.0):
        tables["set"] = estimate_set_keep_rate(crs, inst.outer, sol.marginals, 300, seed)
    else:
        with pytest.raises(ValueError, match="not inside"):
            estimate_set_keep_rate(crs, inst.outer, sol.marginals, 300, seed)
    for mapping, rows in tables.items():
        assert all(r.status == "insufficient" or 0.0 <= r.value <= 1.0 for r in rows), mapping
        if inst.outer.kind == "cardinality" and mapping in ("outer", "combined"):
            assert all(r.value == 0.0 for r in rows if r.status == "ok"), mapping
        if not len(sol.support):
            blank = _blank_rows(mapping, inst.n, 1 if mapping == "set" else inst.B,
                                mapping != "set")
            assert len(rows) == len(blank) and all(a is b for a, b in zip(rows, blank)), mapping
