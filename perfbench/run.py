#!/usr/bin/env python3
"""Benchmark of the Spandex coherence simulator.

Run from the root of a source tree:

    python3 perfbench/run.py --workload apps --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune, runs one workload for the given
seconds, and passes its output through.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  Exits non-zero, without a result line, when the
tree cannot be built or the result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """Git revision when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=30)
            if rev.returncode == 0:
                return rev.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    path = os.path.join(dirpath, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def expected_metrics(workload, trace):
    """(name -> unit) the result must carry, when BENCHMARK.json lists
    the workload; None otherwise."""
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    if workload not in [w["name"] for w in spec["workloads"]]:
        return None
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no simulator sources here (dune-project, lib/); run from a "
             "full source tree")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if build.returncode != 0:
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--commit", source_id()]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("benchmark exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        fail("no result line")
    expected = expected_metrics(args.workload, args.trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            wrong = sorted(k for k in set(got) & set(expected)
                           if got[k] != expected[k])
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                 "unit mismatch %s" % (missing, extra, wrong), 3)
    sys.stdout.write(run.stdout if run.stdout.endswith("\n")
                     else run.stdout + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
