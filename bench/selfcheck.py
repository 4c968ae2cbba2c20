#!/usr/bin/env python3
"""Check that the benchmark repeats itself and fails cleanly without the program.

From the repository root:

    python3 bench/selfcheck.py

For each workload in ``BENCHMARK.json``: two traced runs with seed 1 must
report identical counts (every per-layer metric with unit ``count``) and
identical quality metrics, and an untraced run with seed 2 must be correct
with no failed operation. Finally a copy holding only ``BENCHMARK.json`` and
``bench/`` must exit non-zero without printing a result. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUALITY = ("solution_value", "policy_value", "ratio_min")
TIMEOUT_S = 300
SEED = 1


def bench(root: Path, workload: str, seed: int, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_workload(name: str, seed: int, counts: list[str]) -> list[str]:
    problems = []
    runs = []
    for _ in range(2):
        rc, lines = bench(ROOT, name, seed, 1)
        if rc != 0 or len(lines) < 2:
            return [f"{name}: traced run exited {rc}"]
        runs.append((json.loads(lines[-2]), json.loads(lines[-1])))
    (rec_a, res_a), (rec_b, res_b) = runs
    for key in counts:
        a, b = res_a["metrics"][key]["value"], res_b["metrics"][key]["value"]
        if a != b:
            problems.append(f"{name}: {key} differs between same-seed runs: {a} vs {b}")
    for key in QUALITY:
        a, b = rec_a["end_to_end"][key], rec_b["end_to_end"][key]
        if a != b:
            problems.append(f"{name}: {key} differs between same-seed runs: {a} vs {b}")
    if not rec_a["trace"]["counts_repeat"]:
        problems.append(f"{name}: counts differ between passes of one run")
    rc, lines = bench(ROOT, name, seed + 1, 0)
    if rc != 0 or not lines:
        return problems + [f"{name}: run with seed {seed + 1} exited {rc}"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        problems.append(f"{name}: seed {seed + 1} not clean: {result['failed']} failed")
    return problems


def check_without_program(workload: str) -> list[str]:
    """A directory with only BENCHMARK.json and bench/ must fail without a result."""
    bare = ROOT / ".bench_run" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench(bare, workload, 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or any(line.startswith("{") for line in lines):
        return [f"bare checkout: exit {rc}, output {lines[-1:] if lines else []}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = check_without_program(names[0])
    for name in names:
        found = check_workload(name, SEED, counts)
        print(f"{name}: {'ok' if not found else 'FAIL'}", flush=True)
        problems += found
    for p in problems:
        print(p)
    print("selfcheck:", "PASS" if not problems else "FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
