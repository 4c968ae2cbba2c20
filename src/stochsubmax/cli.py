"""Command-line front door.

Subcommands: ``validate`` an instance file, ``solve`` the continuous phase and
certify it, ``simulate`` the policy on a solved instance (CSV reports), and
``ratio`` for the end-to-end comparison against the exact-oracle optimum.

Exit codes: 0 success, 1 domain failure (violations, failed certification,
failed verdict, size guards), 2 I/O failure (unreadable or malformed files).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import greedy, lattice, oracle, policy, rounding
from .errors import EnumerationLimitError, InvalidInputError, LpStallError
from .lp import build_slot_program, program_dump
from .model import Instance, load_instance, validate_instance

class IoFailure(Exception):
    pass


class DomainFailure(Exception):
    pass


def _read(load, path: str, noun: str):
    """``load(path)``: an unreadable file is an I/O failure, an invalid one a domain
    failure, and a malformed one an I/O failure, each message naming the ``noun`` file."""
    try:
        return load(path)
    except OSError as exc:
        raise IoFailure(f"cannot read {noun} file: {exc}") from exc
    except InvalidInputError as exc:
        raise DomainFailure(f"invalid {noun} file: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise IoFailure(f"malformed {noun} file: {exc}") from exc


def _load(path: str, validated: bool = True) -> Instance:
    """The instance at ``path``; if ``validated``, every violation is a domain failure."""
    instance = _read(load_instance, path, "instance")
    if validated and instance.violations:
        raise DomainFailure("invalid instance: " + "; ".join(instance.violations))
    return instance


def _stop_scale(beta: float) -> float:
    return min(beta, 0.25)


def _check_config(args):
    if getattr(args, "beta", None) is not None and not 0 < args.beta <= 1:
        raise DomainFailure(f"beta must lie in (0, 1], got {args.beta}")
    # a run count needs two runs for a standard error (policy.simulate_batch)
    for name, least in (("steps", 1), ("grad_samples", 1), ("runs", 2)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise DomainFailure(f"{name} must be at least {least}, got {value}")


def cmd_validate(args) -> int:
    instance = _load(args.instance, validated=False)
    violations = list(validate_instance(instance))
    if not violations:
        f, n, B = instance.utility, instance.n, instance.B
        try:
            monotone, pair = lattice.check_monotone(f, n, B)
            submodular, witness = lattice.check_lattice_submodular(f, n, B)
        except EnumerationLimitError as exc:
            print(f"note: utility checks skipped: {exc}")
        else:
            print(f"checked monotonicity and diminishing returns over {(B + 1) ** n} "
                  "state vectors")
            if not monotone:
                violations.append(f"utility is not monotone, witness pair {pair}")
            if not submodular:
                violations.append(f"utility lacks diminishing returns, witness {witness}")
    for msg in violations:
        print(f"violation: {msg}")
    if violations:
        raise DomainFailure(f"{len(violations)} violation(s)")
    print("instance is valid")
    return 0


def _solve(instance: Instance, args):
    scale = _stop_scale(args.beta)
    sol = greedy.run_continuous_greedy(
        instance,
        instance.utility,
        instance.outer,
        stop_scale=scale,
        steps=args.steps,
        grad_samples=args.grad_samples,
        seed=args.seed,
    )
    report = greedy.certify_solution(instance, instance.outer, sol, scale)
    return sol, report


def cmd_solve(args) -> int:
    instance = _load(args.instance)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sol, report = _solve(instance, args)
    greedy.save_solution(sol, out / "solution.json")
    (out / "certification.json").write_text(report.to_json(), encoding="utf-8")
    if args.dump_lp:
        (out / "lp.txt").write_text(
            program_dump(build_slot_program(instance, instance.outer), None),
            encoding="utf-8",
        )
    print(
        f"solved: scale={sol.stop_scale:g} steps={sol.steps} "
        f"marginal_total={float(sol.marginals.sum()):.6f} certified={report.passed}"
    )
    if not report.passed:
        for row in report.failures()[:10]:
            print(f"certification failure: {row}")
        raise DomainFailure("solution failed certification")
    return 0


def cmd_simulate(args) -> int:
    instance = _load(args.instance)
    sol = _read(greedy.load_solution, args.solution, "solution")
    try:
        greedy.check_solution_shape(instance, sol)
    except ValueError as exc:
        raise DomainFailure(f"invalid solution file: {exc}") from exc
    report = greedy.certify_solution(instance, instance.outer, sol, sol.stop_scale)
    if not report.passed:
        raise DomainFailure("solution failed certification; refusing to simulate")
    crs = rounding.BalancedCrs(kind=args.crs, scale=sol.stop_scale)
    summary = policy.simulate_batch(
        instance,
        instance.utility,
        instance.outer,
        crs,
        sol,
        runs=args.runs,
        seed=args.seed,
    )
    gamma_rows = rounding.estimate_set_keep_rate(
        crs, instance.outer, sol.marginals, trials=args.runs, seed=args.seed + 1
    )
    alpha_rows = []
    for mapping in rounding.MAPPINGS:
        alpha_rows.extend(
            rounding.estimate_state_keep_rates(
                mapping,
                instance,
                instance.outer,
                crs,
                sol,
                trials=args.runs,
                seed=args.seed + 2,
            )
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = "runs,mean_utility,se,inner_violations,outer_violations,adaptivity_violations"
    (out / "summary.csv").write_text(
        header + "\n"
        + f"{summary.runs},{summary.mean_utility:.6f},{summary.se:.6f},"
        + f"{summary.inner_violations},{summary.outer_violations},"
        + f"{summary.adaptivity_violations}\n",
        encoding="utf-8",
    )
    (out / "gamma.csv").write_text(rounding.gamma_table_csv(gamma_rows), encoding="utf-8")
    (out / "alpha.csv").write_text(rounding.alpha_table_csv(alpha_rows), encoding="utf-8")
    print(
        f"simulated {summary.runs} runs: mean_utility={summary.mean_utility:.6f} "
        f"se={summary.se:.6f} inner_violations={summary.inner_violations} "
        f"outer_violations={summary.outer_violations}"
    )
    if summary.inner_violations or summary.outer_violations or summary.adaptivity_violations:
        raise DomainFailure("constraint violations observed")
    return 0


def cmd_ratio(args) -> int:
    instance = _load(args.instance)
    opt = oracle.optimal_policy_value(instance, instance.utility, instance.outer)
    sol, report = _solve(instance, args)
    if not report.passed:
        raise DomainFailure("solution failed certification")
    scale = sol.stop_scale
    crs = rounding.BalancedCrs(kind=args.crs, scale=scale)
    summary = policy.simulate_batch(
        instance,
        instance.utility,
        instance.outer,
        crs,
        sol,
        runs=args.runs,
        seed=args.seed,
    )
    mean, se = summary.mean_utility, summary.se
    # the exact keep rate: only the simulated mean carries a standard error
    gamma = rounding.exact_set_keep_rate(crs, instance.outer, sol.marginals)
    keep_rate = float(gamma[sol.support].min(initial=1.0))
    bound = (1.0 - min(2.0 * args.beta, 0.5)) * (1.0 - math.exp(-scale)) * keep_rate
    passed = mean >= bound * opt.value - 3.0 * se
    ratio = mean / opt.value if opt.value > 0 else float("inf")
    print(
        f"{'PASS' if passed else 'FAIL'} mean_utility={mean:.6f} se={se:.6f} "
        f"opt={opt.value:.6f} ratio={ratio:.4f} bound={bound:.6f} "
        f"keep_rate={keep_rate:.4f} scale={scale:g}"
    )
    if not passed:
        raise DomainFailure("ratio verdict failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochsubmax",
        description="Adaptive stochastic submodular maximization pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, runs=False, solver=False):
        p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--seed", type=int, default=0)
        if solver:
            p.add_argument("--beta", type=float, default=0.25)
            p.add_argument("--steps", type=int, default=50)
            p.add_argument("--grad-samples", dest="grad_samples", type=int, default=10**4,
                           help="gradient samples per greedy step, used only by "
                                "concave-over-modular utilities, and only where their "
                                "joint levels outnumber it; must be at least 1")
        if runs:
            p.add_argument("--runs", type=int, default=10**4, help="must be at least 2")
            p.add_argument("--crs", choices=["identity", "priority"], default="priority")

    p = sub.add_parser("validate", help="check an instance file")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("solve", help="run the continuous phase and certify it")
    common(p, solver=True)
    p.add_argument("--out", default="out")
    p.add_argument("--dump-lp", action="store_true",
                   help="also write lp.txt: the slot program's rows over each "
                        "item's latest start slot, one per line; only rows that can "
                        "bind inside the [0, 1] box, no item caps")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="simulate the policy on a solved instance")
    common(p, runs=True)
    p.add_argument("--solution", required=True, help="solution JSON file")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ratio", help="full pipeline vs the exact-oracle optimum")
    common(p, runs=True, solver=True)
    p.set_defaults(fn=cmd_ratio)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process: :func:`main` may run many times in one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_config(args)
        return args.fn(args)
    except IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainFailure, EnumerationLimitError, ValueError, LpStallError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
