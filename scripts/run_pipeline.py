#!/usr/bin/env python3
"""End-to-end demo: solve, certify, simulate, and compare against the exact optimum.

Runs the full pipeline on the two-item demo instance (or a seeded random
oracle-sized instance) and prints every intermediate quantity: the certified
fractional solution, the empirical keep rates of the rounding schemes and the
exact set keep rate, the simulated policy value, and the lower bound that
exact rate guarantees times the brute-force optimum.
"""

import argparse
import math
import sys

from stochsubmax import (
    BalancedCrs,
    certify_solution,
    closed_form_keep_rate,
    coupled_dominance_check,
    estimate_set_keep_rate,
    estimate_state_keep_rates,
    exact_set_keep_rate,
    optimal_policy_value,
    run_continuous_greedy,
    simulate_batch,
)
from stochsubmax.generators import random_oracle_sized_instance, symmetric_pair_instance
from stochsubmax.rounding import MAPPINGS, min_rate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--random-seed", type=int, default=None,
                        help="use a random oracle-sized instance instead of the demo")
    parser.add_argument("--beta", type=float, default=0.25)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--grad-samples", type=int, default=4000)
    parser.add_argument("--runs", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.random_seed is None:
        instance = symmetric_pair_instance()
        print("instance: two-item demo")
    else:
        instance = random_oracle_sized_instance(args.random_seed)
        print(f"instance: random oracle-sized (seed {args.random_seed})")
    print(f"  n={instance.n} B={instance.B} budget={instance.budget} "
          f"outer={instance.outer.kind} utility={instance.utility.family}")

    scale = min(args.beta, 0.25)
    sol = run_continuous_greedy(
        instance, instance.utility, instance.outer,
        stop_scale=scale, steps=args.steps, grad_samples=args.grad_samples,
        seed=args.seed,
    )
    report = certify_solution(instance, instance.outer, sol, scale)
    print(f"continuous phase: scale={scale:g} "
          f"marginals={[round(float(m), 4) for m in sol.marginals]} "
          f"certified={report.passed}")
    if not report.passed:
        print("certification failures:", report.failures()[:5])
        return 1

    crs = BalancedCrs(kind="priority", scale=scale)
    gamma_rows = estimate_set_keep_rate(
        crs, instance.outer, sol.marginals, trials=args.runs, seed=args.seed + 1
    )
    gamma_hat, gamma_se = min_rate(gamma_rows)
    keep_rate = exact_set_keep_rate(crs, instance.outer, sol.marginals)[sol.support].min(
        initial=1.0)
    print(f"set-level keep rate: min {gamma_hat:.4f} (se {gamma_se:.4f}), "
          f"exact {keep_rate:.4f}, fair scheme's closed form {closed_form_keep_rate(scale):.4f}")
    for mapping in MAPPINGS:
        rows = estimate_state_keep_rates(
            mapping, instance, instance.outer, crs, sol,
            trials=args.runs, seed=args.seed + 2,
        )
        worst, worst_se = min_rate(rows)
        print(f"state-level keep rate [{mapping:9s}]: min {worst:.4f} (se {worst_se:.4f})")

    summary = simulate_batch(
        instance, instance.utility, instance.outer, crs, sol,
        runs=args.runs, seed=args.seed + 3,
    )
    print(f"policy: mean utility {summary.mean_utility:.4f} (se {summary.se:.4f}), "
          f"violations inner={summary.inner_violations} outer={summary.outer_violations}")

    dom = coupled_dominance_check(
        instance, instance.utility, instance.outer, crs, sol,
        trials=min(args.runs, 5000), seed=args.seed + 4,
    )
    print(f"coupled dominance: {'ok' if dom.passed else 'VIOLATED'} over {dom.trials} trials")

    opt = optimal_policy_value(instance, instance.utility, instance.outer)
    prefactor = (1 - min(2 * args.beta, 0.5)) * (1 - math.exp(-scale))
    bound = prefactor * keep_rate
    print(f"exact optimum: {opt.value:.4f}; guaranteed bound {bound:.4f} * opt "
          f"= {bound * opt.value:.4f}")
    ok = summary.mean_utility >= bound * opt.value - 3 * summary.se
    print("verdict:", "PASS" if ok else "FAIL")
    return 0 if ok and dom.passed else 1


if __name__ == "__main__":
    sys.exit(main())
