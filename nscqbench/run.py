#!/usr/bin/env python3
"""Entry point of the nscq benchmark.

    python3 nscqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an nscq source tree. Builds nscqbench/main.exe with
dune (the first build of a fresh tree compiles the whole library), runs
one workload on a single CPU, and passes its output through. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end set (--trace 0) or its per_layer
set (--trace 1). Exits non-zero, without a result line, when there is no
source tree to build, when the build fails, when the result carries a
metric BENCHMARK.json does not declare, or when it lacks an end-to-end
metric. A per-layer metric the workload does not exercise is printed as
unavailable and reported as 0. Exits 1 with a result line when an answer
disagreed with its oracle.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "nscqbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("nscqbench: " + msg, file=sys.stderr)
    return 2


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("nscqbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail("no nscq source tree here (missing %s)" % need)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload %r" % args.workload)
    dune = dune_command()
    if dune is None:
        return fail("dune is not installed")

    build = subprocess.run(
        dune + ["build", "--root", ROOT, "./nscqbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0 or not os.path.exists(EXE):
        return fail("build failed")

    # Every thread of the run shares one CPU. Given two, the kernel puts
    # serve-hot's client threads and server domain on one CPU or spreads
    # them over both, as its own history decides, for minutes at a time;
    # the best pass differs by half between the two placements.
    cpu = min(os.sched_getaffinity(0))
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        return fail("no result line (exit code %d)" % run.returncode)
    metrics = result["metrics"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    wrong = sorted(k for k, v in metrics.items() if units.get(k) != v["unit"])
    if wrong:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail("metrics not declared in BENCHMARK.json as reported: %s" % wrong)
    missing = [m for m in declared if m["name"] not in metrics]
    if missing and not args.trace:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail("end-to-end metrics not measured: %s"
                    % [m["name"] for m in missing])
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    # a per-layer metric the workload does not exercise is reported as 0
    for m in missing:
        print("  %-34s unavailable (this workload does not exercise it)" % m["name"])
    result["metrics"] = {m["name"]: metrics.get(m["name"], {"value": 0, "unit": m["unit"]})
                         for m in declared}
    print(json.dumps(result))
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
