#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 [--workloads apps,indirection]

Runs perfbench/run.py once per seed on each workload, then prints for each
end-to-end metric the median of its values and the distance between their
first and third quartiles as a share of that median, next to the metric's
bound from BENCHMARK.json.  A steady benchmark keeps every spread below a
third of its bound; the script exits 1 when one is not.  Raw results go to
perfbench-out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    raw = {}
    steady = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                sys.exit("%s seed %d failed with %d" % (w, seed, run.returncode))
            result = json.loads(run.stdout.strip().split("\n")[-1])
            if not result["correct"]:
                print("%s seed %d: %d of %d simulations failed"
                      % (w, seed, result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[w] = values
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if not args.trace else None
            mark = ""
            if bound is not None and spread >= bound / 3:
                mark = "  <-- above a third of the bound"
                steady = False
            print("%-12s %-28s median %14.6g  spread %.4f  bound %s%s"
                  % (w, name, med, spread, bound, mark))
        sys.stdout.flush()
    os.makedirs("perfbench-out", exist_ok=True)
    with open(os.path.join("perfbench-out", "spread.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
