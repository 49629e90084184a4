#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload repeatedly, alternating between them and giving each
round its own seed, and prints each end-to-end metric's median, quartiles
and spread (the distance between the quartiles as a share of the median,
as statistics.quantiles(values, n=4) gives them) next to the bound in
BENCHMARK.json. The bounds are set from this output.

    python3 perfbench/steady.py [--runs 10] [--workloads assess,update-resume]
                                [--seed-base 1000] [--seconds S] [--save F]
    python3 perfbench/steady.py --smoke

--smoke is the benchmark's own test: one short run per workload and one
traced run, checking that each prints a correct result carrying exactly
the metrics BENCHMARK.json names, and that the command fails without a
result in a directory holding only BENCHMARK.json and perfbench/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace, cwd=ROOT):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds),
                                 "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, wall, proc.stderr


def check_result(spec, result, trace):
    """Problems with one result line, as strings."""
    problems = []
    if result is None:
        return ["no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    want = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in want}
    got = result.get("metrics", {})
    if set(got) != set(names):
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(set(names) - set(got)),
                                      sorted(set(got) - set(names))))
    for name, unit in names.items():
        if name in got and got[name].get("unit") != unit:
            problems.append("%s unit %s, expected %s"
                            % (name, got[name].get("unit"), unit))
    return problems


def smoke(spec):
    failures = []
    for w in spec["workloads"]:
        code, result, wall, err = run_once(spec, w["name"], 1, 1, False)
        problems = check_result(spec, result, False)
        if code != 0:
            problems.append("exit code %d: %s" % (code, err[-500:]))
        print("smoke %-14s untraced %5.1fs %s" % (w["name"], wall,
                                                   problems or "ok"))
        failures += problems
    code, result, wall, err = run_once(spec, spec["workloads"][0]["name"], 1,
                                       1, True)
    problems = check_result(spec, result, True)
    if code != 0:
        problems.append("exit code %d: %s" % (code, err[-500:]))
    print("smoke %-14s traced   %5.1fs %s" % (spec["workloads"][0]["name"],
                                               wall, problems or "ok"))
    failures += problems

    # Without the program's sources the command must fail, printing no
    # result.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, result, wall, _ = run_once(spec, spec["workloads"][0]["name"], 1, 1,
                                     False, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    ok = code != 0 and result is None and wall < 180
    print("smoke bare directory: exit %d, result %s, %.1fs -> %s"
          % (code, "none" if result is None else "printed", wall,
             "ok" if ok else "WRONG"))
    if not ok:
        failures.append("bare directory run did not fail cleanly")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--save", default="")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.smoke:
        sys.exit(smoke(spec))

    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    walls = []
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed_base + i
            code, result, wall, err = run_once(spec, w, seed, seconds, False)
            walls.append(wall)
            problems = check_result(spec, result, False)
            if code != 0 or problems:
                print("run %s seed %d FAILED (exit %d): %s\n%s"
                      % (w, seed, code, problems, err[-2000:]))
                sys.exit(1)
            shares[w].add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %2d %-14s seed %d %5.1fs failed %d/%d"
                  % (i, w, seed, wall, result["failed"], result["attempted"]),
                  flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("\n%-14s %-16s %12s %12s %12s %7s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    worst = 0.0
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("%-14s %-16s %12.4f %12.4f %12.4f %7.3f %6.2f%s" %
                  (w, name, med, q1, q3, spread, bound,
                   "  <-- over a third of its bound"
                   if spread > bound / 3 else ""))
        failed_shares = {f / a for f, a in shares[w]}
        print("%-14s failed share(s): %s" % (w, sorted(failed_shares)))
    print("\nruns: %d, wall per run median %.1fs max %.1fs; worst "
          "spread/bound %.2f" % (len(walls), statistics.median(walls),
                                 max(walls), worst))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"values": values, "walls": walls}, f, indent=1)


if __name__ == "__main__":
    main()
