#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload select_cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program under test is imported from
``src/``; its inputs are generated here from ``--seed``.  With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds
every per-layer metric, measured in a separate traced window (see
tracing.py).  Lines before it report requests per phase and per client,
the workload property checks and, when traced, the per-layer self-time
table.  Details, spans included, are written under ``.perfbench/``.

Exit status: 0 when every answer matched its reference and every
property check held; 1 otherwise (the JSON still prints, with
``"correct": false``); 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread.  On a 2-vCPU VM the client, writer and serving threads
# need both cores; OpenBLAS's own spinning worker threads took cores from
# them, and serving throughput then drifted by a third within a run.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUTPUT = os.path.join(ROOT, ".perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: program source not found under {SOURCE}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    import tracing
    import workloads

    spec = load_benchmark()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace))

    for phase, counts in outcome.phases.items():
        print(f"phase {phase}: " + ", ".join(
            f"{key}={value}" for key, value in counts.items()))
    for note in outcome.notes:
        print(f"note: {note}")
    for name, held in outcome.checks.items():
        print(f"check {name}: {'ok' if held else 'FAILED'}")
        if not held:
            print(f"perfbench: check failed: {name}", file=sys.stderr)

    if args.trace:
        chosen = spec["per_layer"]
        values = {m["name"]: outcome.layers.get(m["name"], 0.0)
                  for m in chosen}
    else:
        chosen = spec["end_to_end"]
        values = {m["name"]: outcome.metrics[m["name"]] for m in chosen}
    for metric in chosen:
        print(f"metric {metric['name']} = {values[metric['name']]:.6g} "
              f"{metric['unit']} ({metric['better']} is better)")

    os.makedirs(OUTPUT, exist_ok=True)
    stem = os.path.join(OUTPUT, f"{args.workload}-trace{args.trace}")
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "metrics": outcome.metrics,
               "layers": outcome.layers, "phases": outcome.phases,
               "checks": outcome.checks, "notes": outcome.notes}
    if outcome.trace is not None:
        spans, table = outcome.trace
        details["self_time"] = table
        spans.save(stem + "-spans.npz")
        print("layer self time (traced window):")
        print(f"  {'span':28s} {'calls':>9s} {'median us':>10s} "
              f"{'us/plan':>9s}")
        for name, row in sorted(table.items(),
                                key=lambda item: -item[1]["self_us_per_plan"]):
            print(f"  {name:28s} {row['calls']:9d} "
                  f"{row['self_us_median']:10.2f} "
                  f"{row['self_us_per_plan']:9.2f}")
    with open(stem + ".json", "w") as handle:
        json.dump(details, handle, indent=1, default=float)

    correct = all(outcome.checks.values()) and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]),
                           "unit": metric["unit"]}
                    for metric in chosen for name in [metric["name"]]},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
