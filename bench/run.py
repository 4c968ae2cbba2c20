#!/usr/bin/env python3
"""Run one stochsubmax benchmark workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the run record (versions, sample counts, failures). The result, the
record and the spans of a traced run are written to ``.bench_run/``. The program is
imported from ``src/`` of the same checkout; without it the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "stochsubmax" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    # one single-threaded process: BLAS threads must be fixed before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import pipeline
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    result, record, spans = pipeline.run(ROOT, WORK, args, WORKLOADS[args.workload])
    if set(result["metrics"]) != set(units):
        print(f"error: metrics {sorted(set(result['metrics']) ^ set(units))} "
              "are not both measured and declared in BENCHMARK.json", file=sys.stderr)
        return 3
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": units[name]} for name in units
    }
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps({"result": result, "record": record, "spans": spans}) + "\n", encoding="utf-8"
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
