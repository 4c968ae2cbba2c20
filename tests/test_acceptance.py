"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Statistical criteria use fixed seeds and the stated trial counts; every
assertion carries its stated tolerance (3 standard errors for Monte Carlo
quantities, 1e-9 for certification rows, the one row tolerance
``constraints.ROW_TOL`` that the rounding's scaled-hull check also reads,
1e-12 for exact oracle values).
"""

import math
import re
import time

import numpy as np

from stochsubmax import constraints
from stochsubmax.cli import main
from stochsubmax.extensions import multilinear_mc
from stochsubmax.generators import (
    partition_demo_instance,
    random_instance,
    random_oracle_sized_instance,
    single_item_instance,
    symmetric_pair_instance,
)
from stochsubmax.greedy import certify_solution, run_continuous_greedy
from stochsubmax.lattice import (
    ConcaveOverModular,
    ThresholdCoverage,
    WeightedModular,
    check_lattice_submodular,
    check_monotone,
)
from stochsubmax.model import Instance, ItemModel, save_instance
from stochsubmax.oracle import optimal_policy_value
from stochsubmax.policy import coupled_dominance_check, simulate_batch
from stochsubmax.rounding import (
    BalancedCrs,
    closed_form_keep_rate,
    estimate_set_keep_rate,
    estimate_state_keep_rates,
    exact_set_keep_rate,
    min_rate,
)
from tests.reference import expected_set_value_exact, expected_set_value_mc, multilinear_exact

BETA = 0.25
SCALE = min(BETA, 0.25)


def report(name, passed, detail):
    line = f"criterion {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def normal_tail(z):
    """P(Z > z) for a standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def solve(instance, steps=25, grad_samples=1000, seed=0, beta=BETA):
    scale = min(beta, 0.25)
    sol = run_continuous_greedy(
        instance, instance.utility, instance.outer,
        stop_scale=scale, steps=steps, grad_samples=grad_samples, seed=seed,
    )
    cert = certify_solution(instance, instance.outer, sol, scale)
    return sol, cert


def test_criterion_1_constraint_soundness():
    t0 = time.time()
    instances = [
        random_instance(
            10_000 + k, n_max=8, B_max=3, budget_max=12,
            kinds=("cardinality", "partition"),
        )
        for k in range(20)
    ]
    total_runs = 0
    inner = outer = adaptivity = 0
    for k, inst in enumerate(instances):
        sol, cert = solve(inst, steps=12, grad_samples=400, seed=k)
        assert cert.passed, cert.failures()
        crs = BalancedCrs(kind="priority", scale=SCALE)
        summary = simulate_batch(
            inst, inst.utility, inst.outer, crs, sol, runs=500, seed=100 + k
        )
        total_runs += summary.runs
        inner += summary.inner_violations
        outer += summary.outer_violations
        adaptivity += summary.adaptivity_violations
    assert total_runs >= 10_000
    report(
        "1 (constraint soundness)",
        inner == 0 and outer == 0 and adaptivity == 0,
        f"{total_runs} runs on {len(instances)} instances, "
        f"violations inner={inner} outer={outer} adaptivity={adaptivity}, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_2_estimators_vs_oracles():
    """Both Monte Carlo estimators agree with their exact enumerators in >= 95% of trials.

    Each trial checks both estimators against their exact enumerators on one
    random (instance, marginals, set) triple and scores a hit only if both lie
    within 3 standard errors. Under the normal approximation of a
    10000-sample mean, one estimator misses with probability
    2 P(Z > 3) = 0.0027, so a trial misses with probability at most 0.0054
    (union bound, whatever the two estimates' dependence). The trials draw
    independent instances and seeds, so the criterion fails falsely only if
    more than 10 of 200 trials miss: a binomial tail of 1.7e-8, computed in
    the verdict line from the trial count and the 95% floor.
    """
    t0 = time.time()
    trials = 200
    hits = 0
    rng = np.random.default_rng(2024)
    for k in range(trials):
        inst = random_instance(20_000 + k, n_max=4, B_max=2, budget_max=8)
        x = rng.random(inst.n)
        exact_ext = multilinear_exact(inst, inst.utility, x)
        est_ext, se_ext = multilinear_mc(inst, inst.utility, x, samples=10_000, seed=k)

        members = [i for i in range(inst.n) if rng.random() < 0.6]
        exact_set = expected_set_value_exact(inst, inst.utility, members)
        est_set, se_set = expected_set_value_mc(
            inst, inst.utility, members, samples=10_000, seed=k
        )
        hits += (
            abs(est_ext - exact_ext) <= 3 * se_ext + 1e-12
            and abs(est_set - exact_set) <= 3 * se_set + 1e-12
        )
    miss = 2 * (2 * normal_tail(3.0))
    allowed = trials - math.ceil(0.95 * trials)
    false_failure = sum(math.comb(trials, j) * miss**j * (1 - miss) ** (trials - j)
                        for j in range(allowed + 1, trials + 1))
    report(
        "2 (estimator vs oracle)",
        hits >= 0.95 * trials,
        f"{hits}/{trials} trials with both estimators within 3 standard errors, "
        f"false-failure rate {false_failure:.1e}, {time.time() - t0:.1f}s",
    )


def test_criterion_3_certification():
    t0 = time.time()
    cases = []
    for beta in (0.1, 0.25, 0.6):
        for inst in (
            symmetric_pair_instance(),
            single_item_instance(),
            partition_demo_instance(),
        ):
            _, cert = solve(inst, steps=20, grad_samples=400, seed=5, beta=beta)
            cases.append(cert.passed)
            assert cert.scale == min(beta, 0.25)
    report(
        "3 (continuous-phase certification)",
        all(cases),
        f"{len(cases)} solver runs certified, {time.time() - t0:.1f}s",
    )


def binding_outer_instance():
    items = (
        ItemModel(probs=(0.5, 0.5), costs=(1, 2)),
        ItemModel(probs=(0.5, 0.5), costs=(1, 2)),
        ItemModel(probs=(0.25, 0.75), costs=(1, 2)),
    )
    return Instance(
        n=3, B=2, budget=5, items=items,
        outer=constraints.cardinality(3, 1),
        utility=ConcaveOverModular(weights=(1.0, 1.0, 1.0), curve="sqrt"),
    )


def spread_solution(instance):
    """Certified hand-built solution with equal slot-1 mass on every item.

    Spreading forces real contention in the set-level scheme (the solver itself
    legitimately concentrates on one item for this instance).
    """
    from stochsubmax.greedy import SlotSolution

    mass = SCALE / instance.n
    return SlotSolution(
        n=instance.n, budget=instance.budget,
        entries=tuple((i, 1, mass) for i in range(instance.n)),
        stop_scale=SCALE, steps=1, grad_samples=1, seed=0,
    )


def test_criterion_4_crs_constants():
    """The priority scheme's keep rates meet their floors, and its set keep rates
    their exact values, on three cases.

    Each case runs two one-sided checks at 3 standard errors, every schedule
    keep rate against the floor ``1 - min(2 beta, 1/2)`` and every combined
    rate against the product of its outer and schedule rates, and one
    two-sided check: every set keep rate against the scheme's exact rate
    gamma_i (``rounding.exact_set_keep_rate``), within 3 binomial standard
    errors at that rate, sqrt(gamma_i (1 - gamma_i) / events). A check on the
    smallest schedule row fails only if some row falls more than 3 of its own
    standard errors below the floor, so every row with data counts as one
    check. A false failure is a failure of correct code; in the worst case,
    every one-sided rate exactly on its floor, each one-sided check fails with
    probability P(Z > 3) = 1.35e-3 and each set row of exact rate strictly
    between 0 and 1 with probability 2 P(Z > 3) = 2.7e-3, under the normal
    approximation of their 100000-trial estimates; a set row of exact rate 0 or
    1 has standard error 0 and reads its rate whenever the scheme is correct,
    so it cannot fail falsely. The checks of a case share their trials, so the
    criterion's rate is bounded by the union bound, the sum of those
    probabilities, stated in the verdict line. That is above 1e-3 and stays
    open (ROADMAP item 6); rows whose true rates sit above their floors, as
    the printed minima show, fail far less often. The closed form
    ``(1 - e^-b)/b``, a fair scheme's rate, which the priority scheme does not
    guarantee, is printed for reference only.
    """
    t0 = time.time()
    trials = 100_000
    schedule_floor = 1.0 - min(2 * BETA, 0.5)
    closed_form = closed_form_keep_rate(SCALE)
    details = []
    ok = True
    checks = 0  # one-sided 3-standard-error comparisons made
    two_sided = 0  # two-sided ones against an exact rate strictly between 0 and 1

    binding = binding_outer_instance()
    cases = []
    for label, inst in (("pair", symmetric_pair_instance()), ("binding", binding)):
        sol, cert = solve(inst, steps=25, grad_samples=1500, seed=3)
        assert cert.passed
        cases.append((label, inst, sol))
    hand = spread_solution(binding)
    assert certify_solution(binding, binding.outer, hand, SCALE).passed
    cases.append(("spread", binding, hand))

    for label, inst, sol in cases:
        crs = BalancedCrs(kind="priority", scale=SCALE)
        tables = {
            m: {
                (r.item, r.state): r
                for r in estimate_state_keep_rates(
                    m, inst, inst.outer, crs, sol, trials=trials, seed=40
                )
            }
            for m in ("outer", "schedule", "combined")
        }
        sched_min, sched_se = min_rate(list(tables["schedule"].values()))
        checks += sum(r.status == "ok" for r in tables["schedule"].values())
        if sched_min < schedule_floor - 3 * sched_se:
            ok = False

        for key, comb in tables["combined"].items():
            a, b = tables["outer"][key], tables["schedule"][key]
            if "insufficient" in (a.status, b.status, comb.status):
                continue
            checks += 1
            se = math.sqrt(comb.se**2 + (a.value * b.se) ** 2 + (b.value * a.se) ** 2)
            if comb.value < a.value * b.value - 3 * se:
                ok = False

        gamma_rows = estimate_set_keep_rate(
            crs, inst.outer, sol.marginals, trials=trials, seed=41
        )
        exact = exact_set_keep_rate(crs, inst.outer, sol.marginals)
        for r in gamma_rows:
            if r.status == "ok":
                g = exact[r.item]
                two_sided += 0 < g < 1
                if abs(r.value - g) > 3 * math.sqrt(g * (1 - g) / r.events) + 1e-12:
                    ok = False
        gamma_hat, _ = min_rate(gamma_rows)
        details.append(
            f"{label}: schedule_min={sched_min:.4f} (floor {schedule_floor}), "
            f"gamma={gamma_hat:.4f} (exact {exact[sol.support].min(initial=1.0):.4f}, "
            f"closed form {closed_form:.4f})"
        )
    false_failure = min(1.0, (checks + 2 * two_sided) * normal_tail(3.0))
    report(
        "4 (CRS constants)", ok,
        "; ".join(details) + f", {trials} trials each, false-failure rate at most "
        f"{false_failure:.1e} over {checks} one-sided checks with every rate on its "
        f"floor and {two_sided} two-sided ones, {time.time() - t0:.1f}s",
    )


def contended_instances():
    """Instances whose outer bound binds, each with the solution it is checked on.

    The first, under cardinality 1, has identical items of a modular utility;
    the second, a partition with cap 1 per block, identical items of a concave
    utility. Both have exact gains (the concave family enumerates its joint
    levels at this size), which tie, so the greedy legitimately puts all its
    mass on one item per bound and nothing would contend. Each is checked on
    the certified :func:`spread_solution` instead, which puts equal mass on
    every item, and the scheme must drop sampled items.
    """
    pair = ItemModel(probs=(0.5, 0.5), costs=(1, 2))
    triple = ItemModel(probs=(0.2, 0.5, 0.3), costs=(1, 2, 3))
    modular = Instance(
        n=4, B=2, budget=6, items=(pair,) * 4,
        outer=constraints.cardinality(4, 1),
        utility=WeightedModular(weights=(1.0,) * 4),
    )
    hand = spread_solution(modular)
    assert certify_solution(modular, modular.outer, hand, SCALE).passed
    concave = Instance(
        n=6, B=3, budget=8, items=(triple,) * 6,
        outer=constraints.partition(6, [[0, 1, 2], [3, 4, 5]], [1, 1]),
        utility=ConcaveOverModular(weights=(1.0,) * 6, curve="cap", theta=3.0),
    )
    spread = spread_solution(concave)
    assert certify_solution(concave, concave.outer, spread, SCALE).passed
    return [(modular, hand), (concave, spread)]


def no_drop_probability(outer, marginals):
    """Exact probability that one trial samples no more items of a bound than it allows.

    Items are sampled independently with their marginals, and the priority
    scheme drops a sampled item only when more than the cap of one bound's
    items are sampled: all items under cardinality k, each block under a
    partition.
    """
    if outer.kind == "cardinality":
        bounds = [(range(outer.n), outer.k)]
    else:
        bounds = list(zip(outer.blocks, outer.caps))
    out = 1.0
    for items, cap in bounds:
        count = np.zeros(len(items) + 1)
        count[0] = 1.0
        for i in items:
            count[1:] = count[1:] * (1 - marginals[i]) + count[:-1] * marginals[i]
            count[0] *= 1 - marginals[i]
        out *= count[: cap + 1].sum()
    return out


def test_criterion_5_coupled_dominance():
    """Every coupled trial's policy covers the combined pruning's vector.

    Per-sample dominance holds for every draw, so one violation is a defect
    and the violation count has false-failure rate 0. The contended instances
    must also show drops: each trial drops an item with a probability computed
    exactly from its solution's marginals, and the chance that none of a
    case's 2000 trials does is stated in the verdict line (below 1e-8 on
    these cases).
    """
    t0 = time.time()
    trials = 2000
    total = violations = 0
    dropped = []
    random_set = [
        random_instance(
            30_000 + k, n_max=5, B_max=3, budget_max=10,
            kinds=("cardinality", "partition"),
        )
        for k in range(5)
    ]
    cases = []
    for k, inst in enumerate(random_set):
        sol, cert = solve(inst, steps=12, grad_samples=400, seed=k)
        assert cert.passed
        cases.append((inst, sol))
    contended = contended_instances()
    cases.extend(contended)
    for k, (inst, sol) in enumerate(cases):
        crs = BalancedCrs(kind="priority", scale=SCALE)
        rep = coupled_dominance_check(
            inst, inst.utility, inst.outer, crs, sol, trials=trials, seed=50 + k
        )
        total += rep.trials
        violations += len(rep.violations)
        dropped.append(rep.dropped)
    assert total >= 10_000
    # the contended instances must exercise the scheme's drops
    no_drops = sum(no_drop_probability(inst.outer, sol.marginals) ** trials
                   for inst, sol in contended)
    assert all(d > 0 for d in dropped[len(random_set):]), dropped
    report(
        "5 (coupled dominance)",
        violations == 0,
        f"{total} coupled trials, {violations} violations, "
        f"trials with a dropped item per instance {dropped}, false-failure rate 0 "
        f"for violations and {no_drops:.1e} for the drop floor, {time.time() - t0:.1f}s",
    )


def test_criterion_6_end_to_end_ratio():
    """The rounded policy's value meets its guarantee on 10 oracle-sized instances.

    Each instance fails if the simulated value falls more than 3 standard
    errors below ``(1 - min(2 beta, 1/2)) (1 - e^-l) gamma opt``, where gamma
    is the smallest exact set keep rate over the support
    (``rounding.exact_set_keep_rate``), as in the ``ratio`` verdict. The bound
    is exact, so only the simulated value carries an error. A false failure
    is a failure while every true value meets its guarantee. The worst case is
    every true value exactly on its bound: under the normal approximation of
    the 100000-run mean each instance then fails with probability
    P(Z > 3) = 1.35e-3, and the instances run on separate seeds, so the
    criterion fails with probability 1 - (1 - 1.35e-3)^10 = 1.3e-2, stated in
    the verdict line. That is above 1e-3 and stays open (ROADMAP item 6);
    instances whose values sit above their bounds, as the minimum slack in the
    verdict line shows, fail less often.
    """
    t0 = time.time()
    runs = 100_000
    prefactor = (1 - min(2 * BETA, 0.5)) * (1 - math.exp(-SCALE))
    slacks = []
    ok = True
    for k in range(10):
        inst = random_oracle_sized_instance(60_000 + k)
        opt = optimal_policy_value(inst, inst.utility, inst.outer).value
        sol, cert = solve(inst, steps=25, grad_samples=1500, seed=k)
        assert cert.passed
        crs = BalancedCrs(kind="priority", scale=SCALE)
        summary = simulate_batch(
            inst, inst.utility, inst.outer, crs, sol, runs=runs, seed=70 + k
        )
        gamma = exact_set_keep_rate(crs, inst.outer, sol.marginals)
        bound = prefactor * gamma[sol.support].min(initial=1.0)
        slack = summary.mean_utility - (bound * opt - 3 * summary.se)
        slacks.append(slack)
        if slack < 0:
            ok = False
        assert summary.inner_violations == 0 and summary.outer_violations == 0
    false_failure = 1 - (1 - normal_tail(3.0)) ** len(slacks)
    report(
        "6 (end-to-end ratio)", ok,
        f"10 instances x {runs} runs, min slack {min(slacks):.4f}, "
        f"false-failure rate at most {false_failure:.1e} with every value on its bound, "
        f"documented closed-form bound {prefactor * closed_form_keep_rate(SCALE):.4f}"
        f" * opt, {time.time() - t0:.1f}s",
    )


# random_instance(seed, n_max=8, B_max=3, budget_max=12, all_schedulable=True) draws
# with n = 6, 7 and 8 whose solution puts more support items in a partition block
# than its cap (a budget row makes the LP vertex fractional across them)
CONTENTION_SEEDS = (153, 85, 125)


def test_end_to_end_ratio_where_contention_bites(tmp_path, capsys):
    """``stochsubmax ratio`` beside criterion 6, on three instances past its n <= 4
    whose support overfills a block, so that the priority scheme drops items.

    Each run must print PASS with an exact keep rate below 1. The keep rate is
    exact and the optimum is the exact oracle's, so only the verdict carries a
    false-failure rate: as in criterion 6, with every true value exactly on its
    bound a 100000-run verdict fails with probability P(Z > 3) = 1.35e-3, and
    the three instances, on separate seeds, with probability
    1 - (1 - 1.35e-3)^3 = 4.0e-3, stated in the verdict line.
    """
    t0 = time.time()
    ok, lines = True, []
    for k, seed in enumerate(CONTENTION_SEEDS):
        inst = random_instance(seed, n_max=8, B_max=3, budget_max=12, all_schedulable=True)
        path = tmp_path / f"contention-{k}.json"
        save_instance(inst, path)
        rc = main(["ratio", "--instance", str(path), "--runs", "100000", "--seed", str(80 + k)])
        out = capsys.readouterr().out
        ratio, keep_rate = (re.search(rf"{key}=(\S+)", out).group(1)
                            for key in ("ratio", "keep_rate"))
        ok = ok and rc == 0 and out.startswith("PASS") and float(keep_rate) < 1
        lines.append(f"n={inst.n} ratio={ratio} keep_rate={keep_rate}")
    false_failure = 1 - (1 - normal_tail(3.0)) ** len(CONTENTION_SEEDS)
    report(
        "6 under contention (end-to-end ratio)", ok,
        f"{'; '.join(lines)}; false-failure rate at most {false_failure:.1e} "
        f"with every value on its bound, {time.time() - t0:.1f}s",
    )


def test_criterion_7_checker_self_tests(product_utility):
    t0 = time.time()
    ok = True
    families = {
        1: (
            WeightedModular(weights=(1.5,)),
            ConcaveOverModular(weights=(1.0,), curve="cap", theta=2.0),
            ConcaveOverModular(weights=(2.0,), curve="sqrt"),
            ThresholdCoverage(rates=(2,), element_weights=(1.0, 0.5, 0.25)),
        ),
        2: (
            WeightedModular(weights=(1.0, 2.0)),
            ConcaveOverModular(weights=(1.0, 0.5), curve="cap", theta=1.5),
            ConcaveOverModular(weights=(1.0, 1.0), curve="sqrt"),
            ThresholdCoverage(rates=(1, 2), element_weights=(1.0, 1.0, 0.5, 0.25)),
        ),
        3: (
            WeightedModular(weights=(1.0, 2.0, 0.5)),
            ConcaveOverModular(weights=(1.0, 0.5, 1.5), curve="cap", theta=2.5),
            ConcaveOverModular(weights=(0.5, 1.0, 2.0), curve="sqrt"),
            ThresholdCoverage(rates=(1, 3, 2), element_weights=(1.0, 0.3, 0.7, 2.0, 0.5)),
        ),
    }
    checked = 0
    for n, fs in families.items():
        for f in fs:
            for B in (1, 2, 3):
                mono, w1 = check_monotone(f, n, B)
                sub, w2 = check_lattice_submodular(f, n, B)
                ok = ok and mono and sub
                checked += 1
    rejected, witness = check_lattice_submodular(product_utility, 2, 2)
    ok = ok and not rejected and witness is not None
    report(
        "7 (checker self-tests)", ok,
        f"{checked} family checks clean, product function rejected, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_8_hand_computed_oracles():
    t0 = time.time()
    roomy = symmetric_pair_instance(budget=5)
    tight = symmetric_pair_instance(budget=3)
    v_roomy = optimal_policy_value(roomy, roomy.utility, roomy.outer).value
    v_tight = optimal_policy_value(tight, tight.utility, tight.outer).value
    ok = abs(v_roomy - 3.0) <= 1e-12 and abs(v_tight - 2.25) <= 1e-12
    report(
        "8 (hand-computed oracles)", ok,
        f"roomy={v_roomy!r}, tight={v_tight!r}, {time.time() - t0:.2f}s",
    )
