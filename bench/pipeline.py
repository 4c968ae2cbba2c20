"""One benchmark run: set up, time passes, check outputs, compute metrics.

A pass runs four phases over the files made in set-up, each op under its
own timer, with set-up itself repeated a few times in between: ``solve``
(``stochsubmax solve`` on the solve set, in process), ``simulate``
(``policy.simulate_batch`` per solution), ``keep`` (the set keep rate and the
three state keep-rate mappings per solution) and ``ratio`` (``stochsubmax
ratio`` on the desk set). Inputs never change between passes, so every pass
does identical work and per-pass counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import linprog

from stochsubmax import cli, extensions, greedy, lp, policy, rounding
from stochsubmax.model import load_instance, sample_realization
from stochsubmax.seeds import stream_entropy

import tracing
import workloads
from workloads import RATIO_GRAD_SAMPLES, RATIO_STEPS, Workload

perf = time.perf_counter

SETUP_PER_PASS = 5
QUALITY_SAMPLES = 20000
QUALITY_SEED = 7
EXECUTE_PROBE_RUNS = 200
LP_REL_TOL = 1e-7
# Calibration: a fixed op of the benchmark's own, timed every CAL_EVERY_S between
# ops; CAL_REF_S is its median time on the reference machine (README.md).
CAL_EVERY_S = 0.1
CAL_REF_S = 0.005
RATIO_LINE = re.compile(r"mean_utility=(\S+) .*opt=(\S+) ")


@dataclass
class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, attempted: int, failed: int, note: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class PassResult:
    times: dict  # phase -> (op index, seconds) of each op run, in run order
    policy_values: dict  # op index -> simulated mean utility
    ratios: dict  # op index -> simulated mean / optimum
    calibrations: list  # seconds of each calibration op

    @property
    def walls(self) -> dict:
        return {phase: sum(t for _, t in times) for phase, times in self.times.items()}


@dataclass
class Files:
    solve: list
    desk: list
    out: Path
    draws: list  # the desk draws they were made from


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run the program's CLI in process; an exception or argparse exit is a failure."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) and exc.code else -1
    except Exception:  # any crash inside the program counts as a failed operation
        buf.write(traceback.format_exc())
        rc = -1
    return rc, buf.getvalue()


def calibration_op() -> float:
    """Fixed work in the program's mix of interpreter loops, dict updates and small
    numpy calls; its time measures how fast the machine runs at that moment."""
    total, counts = 0, {}
    for i in range(18000):
        total += i * i % 7
        counts[i % 97] = counts.get(i % 97, 0) + 1
    a = np.arange(256.0)
    for _ in range(450):
        a = np.sqrt(a + 1.0)
    return total + float(a[0])


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def solve_file(w: Workload, seed: int, path: Path, out: Path, ledger: Ledger, tracer=None):
    """``stochsubmax solve`` on one file; records whether it certified."""
    cert = out / "certification.json"
    cert.unlink(missing_ok=True)
    argv = [
        "solve", "--instance", str(path), "--steps", str(w.steps),
        "--grad-samples", str(w.grad_samples), "--seed", str(seed), "--out", str(out),
    ]
    with _span(tracer, "cli.solve"):
        rc, text = cli_call(argv)
    ok = rc == 0 and cert.is_file() and json.loads(cert.read_text())["passed"]
    ledger.record(1, 0 if ok else 1, f"solve {path.name}: exit {rc}: {text[-400:]}")


def setup(w: Workload, seed: int, draws: list[int], dest: Path) -> tuple[float, Files]:
    """Generate and write the instances; returns the wall seconds it took."""
    if dest.exists():
        shutil.rmtree(dest)
    start = perf()
    solve, desk = workloads.generate(w, seed, draws, dest)
    return perf() - start, Files(solve, desk, dest, draws)


def load_solved(files: Files, j: int):
    """(instance, solution) of solve-set file ``j``, or None if its solve wrote nothing."""
    path = files.solve[j]
    sol_path = files.out / path.stem / "solution.json"
    if not sol_path.is_file():
        return None
    return load_instance(path), greedy.load_solution(sol_path)


def simulate_op(inst, sol, w, seed, ledger):
    """``policy.simulate_batch`` on one solution; returns its mean utility or None."""
    crs = rounding.BalancedCrs(kind="priority", scale=sol.stop_scale)
    try:
        s = policy.simulate_batch(
            inst, inst.utility, inst.outer, crs, sol, runs=w.sim_runs, seed=seed
        )
    except Exception:
        ledger.record(w.sim_runs, w.sim_runs, traceback.format_exc()[-400:])
        return None
    bad = s.inner_violations + s.outer_violations + s.adaptivity_violations
    ledger.record(s.runs, min(s.runs, bad), f"simulate: {bad} violations")
    return s.mean_utility


def _rates_ok(rows) -> bool:
    return all(r.status == "insufficient" or 0.0 <= r.value <= 1.0 for r in rows)


def keep_op(inst, sol, w, seed, ledger):
    """The set keep rate and the three state keep-rate mappings on one solution."""
    crs = rounding.BalancedCrs(kind="priority", scale=sol.stop_scale)
    try:
        ok = _rates_ok(rounding.estimate_set_keep_rate(
            crs, inst.outer, sol.marginals, trials=w.keep_trials, seed=seed + 1
        ))
        for mapping in rounding.MAPPINGS:
            ok = _rates_ok(rounding.estimate_state_keep_rates(
                mapping, inst, inst.outer, crs, sol, trials=w.keep_trials, seed=seed + 2
            )) and ok
    except Exception:
        ok = False
    ledger.record(1, 0 if ok else 1, "keep-rate estimate failed or out of [0, 1]")


def ratio_op(path, w, seed, ledger, tracer):
    """``stochsubmax ratio`` on one desk file; returns simulated mean / optimum or None."""
    argv = [
        "ratio", "--instance", str(path), "--runs", str(w.ratio_runs),
        "--steps", str(RATIO_STEPS), "--grad-samples", str(RATIO_GRAD_SAMPLES),
        "--seed", str(seed),
    ]
    with _span(tracer, "cli.ratio"):
        rc, text = cli_call(argv)
    match = RATIO_LINE.search(text)
    ok = rc == 0 and match is not None
    ledger.record(1, 0 if ok else 1, f"ratio {path.name}: exit {rc}: {text[-400:]}")
    if not match:
        return None
    mean, opt = float(match.group(1)), float(match.group(2))
    return mean / opt if opt > 0 else 1.0


PHASES = ("setup", "solve", "simulate", "keep", "ratio")


def schedule(w: Workload, files: Files) -> list[tuple[str, int]]:
    """Every op run of a pass as (phase, op index).

    The machine's speed drifts over seconds, so each phase, set-up repeats
    included, is interleaved with the others rather than run as one block,
    and its runs are spread evenly over the pass; simulate and keep ops run
    ``w.repeats`` times, cycling through the solve set. In the first pass a
    solution's simulate and keep runs before its solve are skipped.
    """
    counts = {
        "setup": SETUP_PER_PASS,
        "solve": len(files.solve),
        "simulate": len(files.solve),
        "keep": len(files.solve),
        "ratio": len(files.desk),
    }
    repeats = {"simulate": w.repeats, "keep": w.repeats}
    ops = [
        ((k + 0.5) / (counts[phase] * repeats.get(phase, 1)), PHASES.index(phase), phase, k)
        for phase in PHASES
        for k in range(counts[phase] * repeats.get(phase, 1))
    ]
    return [(phase, k % counts[phase]) for _, _, phase, k in sorted(ops)]


def _pair(solved, files, j, tracer):
    """Instance and solution of solve-set file ``j``, loaded on first use; None if unsolved.

    A traced pass gets the instance with its utility in a counting proxy.
    """
    if solved[j] is None:
        solved[j] = load_solved(files, j)
    if solved[j] is None or tracer is None:
        return solved[j]
    inst, sol = solved[j]
    return dataclasses.replace(inst, utility=tracing.CountingOracle(inst.utility, tracer)), sol


def run_pass(w, seed, files, solved, ledger, tracer=None) -> PassResult:
    """One pass over every op; fills ``solved`` (index j: instance and solution) as it goes."""
    result = PassResult({phase: [] for phase in PHASES}, {}, {}, [])
    last_cal = -math.inf
    for phase, j in schedule(w, files):
        if perf() - last_cal >= CAL_EVERY_S:
            last_cal = perf()
            calibration_op()
            result.calibrations.append(perf() - last_cal)
        if phase == "setup":
            elapsed, _ = setup(w, seed, files.draws, files.out / "setup-repeat")
            result.times["setup"].append((j, elapsed))
            continue
        pair = _pair(solved, files, j, tracer) if phase in ("simulate", "keep") else None
        if phase in ("simulate", "keep") and pair is None:
            continue
        start = perf()
        if phase == "solve":
            path = files.solve[j]
            solve_file(w, seed, path, files.out / path.stem, ledger, tracer)
        elif phase == "ratio":
            ratio = ratio_op(files.desk[j], w, seed, ledger, tracer)
            if ratio is not None:
                result.ratios[j] = ratio
        else:
            with _span(tracer, "bench." + phase):
                if phase == "simulate":
                    value = simulate_op(*pair, w, seed, ledger)
                    if value is not None:
                        result.policy_values[j] = value
                else:
                    keep_op(*pair, w, seed, ledger)
        result.times[phase].append((j, perf() - start))
    return result


def timed_passes(w, seed, files, solved, ledger, seconds, traced=False):
    """Passes until ``seconds`` is used, give or take half a pass; at least one."""
    results, tracers = [], []
    start = perf()
    while True:
        tracer = tracing.Tracer() if traced else None
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            results.append(run_pass(w, seed, files, solved, ledger, tracer))
        tracers.append(tracer)
        elapsed = perf() - start
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results, tracers


def lp_cross_check(w, seed, files, ledger) -> dict:
    """First greedy step of the first solve-set instance: ``solve_lp`` against HiGHS."""
    inst = load_instance(files.solve[0])
    program = lp.build_slot_program(inst, inst.outer)
    item_of_var = np.array([i for i, _ in program.variables], dtype=np.int64)
    gains, _ = greedy.estimate_marginal_gains(
        inst, inst.utility, np.zeros(inst.n), w.grad_samples, stream_entropy(seed, "step", 0)
    )
    objective = gains[item_of_var]
    try:
        ours = lp.solve_lp(program, objective).objective
    except Exception:
        ledger.record(1, 1, "lp cross-check: " + traceback.format_exc()[-400:])
        return {"ok": False}
    res = linprog(
        -objective, A_ub=program.row_coeffs, b_ub=program.row_bounds,
        bounds=(0.0, 1.0), method="highs",
    )
    highs = -float(res.fun) if res.success else float("nan")
    ok = bool(res.success) and abs(ours - highs) <= LP_REL_TOL * abs(highs)
    ledger.record(1, 0 if ok else 1, f"lp cross-check: solve_lp {ours!r} vs HiGHS {highs!r}")
    return {"ok": ok, "solve_lp": ours, "highs": highs, "vars": len(program.variables),
            "rows": len(program.row_labels)}


def execute_probe(solved, seed) -> tuple[list, float]:
    """Per-call ``policy.execute`` times (s) and selected/kept over the probe runs."""
    times, kept, selected = [], 0, 0
    for k in range(EXECUTE_PROBE_RUNS):
        inst, sol = solved[k % len(solved)]
        crs = rounding.BalancedCrs(kind="priority", scale=sol.stop_scale)
        realization = sample_realization(inst, seed + k)
        start = perf()
        trace = policy.execute(inst, inst.utility, inst.outer, crs, sol, realization, seed + k)
        times.append(perf() - start)
        kept += len(trace.kept)
        selected += len(trace.selected)
    return times, (selected / kept if kept else 1.0)


def _median(values):
    return statistics.median(values) if values else 0.0


def _share(part, whole):
    return part / whole if whole > 0 else 0.0


def op_runs(results, phase) -> dict:
    """Op index -> the times of its runs in every pass."""
    runs = {}
    for r in results:
        for j, t in r.times[phase]:
            runs.setdefault(j, []).append(t)
    return runs


def op_medians(results, phase) -> list:
    """Each op's median time over its runs, so a slow spell of the machine does not count."""
    runs = op_runs(results, phase)
    return [statistics.median(runs[j]) for j in sorted(runs)]


# The power of the slowdown that scales each timing to the reference speed
TIMINGS = {"setup_s": -1, "solve_s": -1, "simulate_runs_per_s": 1,
           "keep_rate_trials_per_s": 1, "instances_per_s": 1}


def slowdown(results) -> float:
    """How many times slower than the reference machine the run went: the
    median calibration time over ``CAL_REF_S``."""
    return statistics.median(t for r in results for t in r.calibrations) / CAL_REF_S


def end_to_end(w, results, first_setup, solved, ledger) -> tuple[dict, dict, dict]:
    """End-to-end metric values, the same before scaling to the reference speed,
    and the sample count behind each.

    ``solve_s`` is the median over the solve set, because Bland pivot counts
    have a heavy tail across instances. The throughputs divide the work of a
    phase by the sum of its ops' median times. Every timing is then scaled
    by ``slowdown``: the machine's speed drifts by tens of percent over
    minutes, and a calibration op timed all through the run moves with it.
    """
    count = len(solved)
    setups = [first_setup] + [t for r in results for _, t in r.times["setup"]]
    solves = op_medians(results, "solve")
    policy_values = list({j: v for r in results for j, v in r.policy_values.items()}.values())
    ratios = list({j: v for r in results for j, v in r.ratios.items()}.values())
    values = {
        "setup_s": _median(setups),
        "solve_s": _median(solves),
        "simulate_runs_per_s": _share(count * w.sim_runs, sum(op_medians(results, "simulate"))),
        "keep_rate_trials_per_s": _share(
            count * 4 * w.keep_trials, sum(op_medians(results, "keep"))
        ),
        "instances_per_s": _share(len(ratios), sum(op_medians(results, "ratio"))),
        "solution_value": statistics.fmean(
            extensions.multilinear_mc(i, i.utility, s.marginals, QUALITY_SAMPLES, QUALITY_SEED)[0]
            for i, s in solved
        ) if solved else 0.0,
        "policy_value": statistics.fmean(policy_values) if policy_values else 0.0,
        "ratio_min": min(ratios) if ratios else 0.0,
        "success_rate": 1.0 - _share(ledger.failed, ledger.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    factor = slowdown(results)
    scaled = {k: v * factor ** TIMINGS.get(k, 0) for k, v in values.items()}
    samples = {
        "passes": len(results),
        "fewest_runs_per_op": {
            phase: min((len(t) for t in op_runs(results, phase).values()), default=0)
            for phase in PHASES[1:]
        },
        "setup_s": len(setups),
        "solve_s": len(solves),
        "simulate_runs_per_s": count,
        "keep_rate_trials_per_s": count,
        "instances_per_s": len(ratios),
        "solution_value": count,
        "policy_value": len(policy_values),
        "ratio_min": len(ratios),
        "calibrations": sum(len(r.calibrations) for r in results),
    }
    return scaled, values, samples


def layer_metrics(t: tracing.Tracer, walls: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced pass (without the probes and the overhead),
    and the number of calls behind each per-call median or percentile.

    Shares of solve time and per-call times are taken over the solve phase's
    calls, so that the desk ratios run alongside do not swamp them.
    """
    ms = 1e3
    pass_wall = sum(walls.values())
    root = "cli.solve"
    lp_times = t.durations("lp.solve")
    gain_times = t.durations("greedy.gain")
    keep_times = t.durations("rounding.set_keep")
    lp_calls = t.durations("lp.solve", root)
    gain_calls = t.durations("greedy.gain", root)
    builds = t.durations("lp.build", root)
    greedy_self = t.self_times("greedy.run", root)
    certifies = t.durations("greedy.certify", root)
    cli_self = t.self_times("cli.solve") + t.self_times("cli.ratio")
    out = {
        "lp.calls": len(lp_times),
        "lp.pivots": t.counts["lp.pivots"],
        "lp.solve_ms_p50": _median(lp_calls) * ms,
        "lp.solve_ms_tail": (tracing.tail_percentile(lp_calls)[0] if lp_calls else 0.0) * ms,
        "lp.us_per_pivot": _share(sum(lp_times), t.counts["lp.pivots"]) * 1e6,
        "lp.build_ms": _median(builds) * ms,
        "lp.share": _share(sum(lp_calls), walls["solve"]),
        "greedy.gain_calls": len(gain_times),
        "greedy.gain_ms_p50": _median(gain_calls) * ms,
        "greedy.gain_share": _share(sum(gain_calls), walls["solve"]),
        "greedy.self_ms": _median(greedy_self) * ms,
        "greedy.certify_ms": _median(certifies) * ms,
        "lattice.value_batch_rows": t.counts["lattice.value_batch_rows"],
        "lattice.value_calls": t.counts["lattice.value_calls"],
        "lattice.busy_share": _share(t.busy["lattice"], pass_wall),
        "policy.simulate_share": _share(sum(t.durations("policy.simulate")), pass_wall),
        "rounding.set_keep_us_per_trial": _share(
            sum(keep_times), t.counts["rounding.set_keep.trials"]
        ) * 1e6,
        "rounding.kept_ratio": _share(t.counts["rounding.kept"], t.counts["rounding.sampled"]),
        "rounding.keep_share": _share(
            sum(keep_times)
            + sum(sum(t.durations("rounding.state_keep." + m)) for m in rounding.MAPPINGS),
            pass_wall,
        ),
        "constraints.is_independent_calls": t.counts["constraints.is_independent_calls"],
        "oracle.busy_ms": sum(t.durations("oracle")) * ms,
        "cli.overhead_ms": _median(cli_self) * ms,
        "parallel.blocks": t.counts["parallel.blocks"],
    }
    for m in rounding.MAPPINGS:
        key = "rounding.state_keep." + m
        out["rounding.state_keep_us_per_trial." + m] = _share(
            sum(t.durations(key)), t.counts[key + ".trials"]
        ) * 1e6
    samples = {
        "lp.solve_ms_p50": len(lp_calls),
        "lp.solve_ms_tail": len(lp_calls),
        "lp.build_ms": len(builds),
        "greedy.gain_ms_p50": len(gain_calls),
        "greedy.self_ms": len(greedy_self),
        "greedy.certify_ms": len(certifies),
        "cli.overhead_ms": len(cli_self),
    }
    return out, samples


COUNT_METRICS = (
    "lp.calls", "lp.pivots", "greedy.gain_calls", "lattice.value_batch_rows",
    "lattice.value_calls", "constraints.is_independent_calls", "parallel.blocks",
)


def traced_metrics(tracers, results, untraced, solved, seed) -> tuple[dict, dict]:
    """Per-layer metrics over the traced passes; counts must repeat in every pass."""
    per_pass, samples = zip(*(layer_metrics(t, r.walls) for t, r in zip(tracers, results)))
    out = {}
    for key in per_pass[0]:
        if key in COUNT_METRICS:
            out[key] = per_pass[0][key]
        else:
            out[key] = _median([p[key] for p in per_pass])
    repeat = {k: [p[k] for p in per_pass] for k in COUNT_METRICS}
    lp_calls = tracers[0].durations("lp.solve", "cli.solve")
    times, gate = execute_probe(solved, seed)
    out["policy.execute_us_p50"] = _median(times) * 1e6
    per_call = dict(samples[0], **{"policy.execute_us_p50": len(times)})
    out["policy.gate_pass_ratio"] = gate
    traced_wall = _median([sum(r.walls.values()) for r in results])
    plain_wall = _median([sum(r.walls.values()) for r in untraced])
    out["trace.overhead_share"] = (
        traced_wall / slowdown(results) / (plain_wall / slowdown(untraced)) - 1.0
    )
    info = {
        "traced_passes": len(results),
        "untraced_passes": len(untraced),
        "counts_repeat": all(len(set(v)) == 1 for v in repeat.values()),
        "counts_per_pass": repeat,
        "per_layer_samples": per_call,
        "lp_solve_ms_tail_percentile": tracing.tail_percentile(lp_calls)[1] if lp_calls else "",
    }
    return out, info


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git`` without running git, else "unknown"."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path, args, w: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workers": 1,
        "setup_per_pass": SETUP_PER_PASS,
        "quality_samples": QUALITY_SAMPLES,
    }


def _finite(values: dict) -> bool:
    return all(math.isfinite(v) for v in values.values())


def run(root: Path, work: Path, args, w: Workload) -> tuple[dict, dict, list]:
    """Execute one run; returns (result without units, run record, spans)."""
    base = work / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        return _run(base, root, args, w)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _run(base: Path, root: Path, args, w: Workload) -> tuple[dict, dict, list]:
    ledger = Ledger()
    draws = workloads.desk_draws(args.seed, workloads.desk_slots(w))
    first_setup, files = setup(w, args.seed, draws, base / "setup")
    budget = args.seconds / 2 if args.trace else args.seconds
    slots = [None] * len(files.solve)
    results, _ = timed_passes(w, args.seed, files, slots, ledger, budget)
    solved = [pair for pair in slots if pair is not None]
    record = metadata(root, args, w)
    checks = {}
    if w.check_lp:
        checks["lp_cross_check"] = lp_cross_check(w, args.seed, files, ledger)
    values, unscaled, samples = end_to_end(w, results, first_setup, solved, ledger)
    spans = []
    if args.trace:
        traced, tracers = timed_passes(w, args.seed, files, slots, ledger, budget, traced=True)
        metrics, info = traced_metrics(tracers, traced, results, solved, args.seed)
        record["trace"] = info
        record["traced_end_to_end"], _, _ = end_to_end(w, traced, first_setup, solved, ledger)
        for p, t in enumerate(tracers):
            spans.extend(s + [p] for s in t.spans)
    else:
        metrics = values
    record.update(
        passes=len(results),
        phase_walls=[r.walls for r in results],
        samples=samples,
        end_to_end=values,
        end_to_end_unscaled=unscaled,
        slowdown=slowdown(results),
        attempted=ledger.attempted,
        failed=ledger.failed,
        failure_rate=_share(ledger.failed, ledger.attempted),
        failures=ledger.notes,
        checks=checks,
    )
    correct = (
        ledger.failed == 0 and ledger.attempted > 0 and _finite(values) and len(solved) == w.count
    )
    result = {
        "correct": bool(correct),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: float(v) for k, v in metrics.items()},
    }
    return result, record, spans
