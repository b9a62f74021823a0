#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs against the bounds in BENCHMARK.json.

  compare.py A.jsonl B.jsonl
      A is the parent's run set, B the change's. Each line is one run:
      {"workload": W, "seed": S, "trace": 0|1, "result": <run.sh's result line>}.

  compare.py --run DIR_A DIR_B [--pairs 10] [--first-seed 1]
             [--workload W ...] [--out PREFIX]
      Makes the run sets first: for each seed, runs every workload in checkout
      DIR_A and in checkout DIR_B, alternating which side goes first, and
      writes PREFIX-a.jsonl and PREFIX-b.jsonl (default PREFIX:
      .bench_build/e2e/compare).

For each (workload, metric) it prints each side's median and quartiles and a
verdict:
  regression   B's median is worse than A's by more than the metric's bound;
  unresolved   A's own spread (quartile distance over median) is wider than
               the bound, and not every B run beats every A run;
  gain         B wins at least 9 in 10 of the seed-matched pairs (ties count
               for neither), with at least 10 pairs, and the medians differ by
               more than A's quartile distance;
  within bound otherwise.
Per-layer metrics (traced runs) have no bound; they are listed with the pair
wins only. The exit code is 1 when any metric regressed or any run of B was
not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    runs = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            run = json.loads(line)
            for key in ("workload", "seed", "result"):
                if key not in run:
                    sys.exit(f"{path}:{n}: run has no '{key}'")
            runs.append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value b is better than value a."""
    return b < a if direction == "lower" else b > a


def grouped(runs):
    """{(workload, trace): [run, ...]} in file order."""
    groups = {}
    for run in runs:
        key = (run["workload"], int(run.get("trace", 0)))
        groups.setdefault(key, []).append(run)
    return groups


def verdict(a_vals, b_vals, direction, bound, pairs):
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_med = quartiles(b_vals)[1]
    wins = sum(1 for a, b in pairs if better(a, b, direction))
    if bound is None:
        return f"{wins}/{len(pairs)} pairs better"
    spread = (a_q3 - a_q1) / a_med if a_med else float("inf")
    worse = (b_med - a_med) / a_med if a_med else 0.0
    if direction == "higher":
        worse = -worse
    all_better = all(better(a, b, direction) for a in a_vals for b in b_vals)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(b_med - a_med) > (a_q3 - a_q1)):
        return f"gain ({wins}/{len(pairs)} pairs)"
    return "within bound"


def report(a_runs, b_runs, benchmark):
    bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    for m in benchmark["per_layer"]:
        bounds[m["name"]] = (m["better"], None)
    failed = False
    a_groups, b_groups = grouped(a_runs), grouped(b_runs)
    for run in b_runs:
        if not run["result"].get("correct", False):
            print(f"B run not correct: {run['workload']} seed {run['seed']}")
            failed = True
    print(f"{'workload':18s} {'metric':36s} {'A median [q1, q3]':>35s} "
          f"{'B median [q1, q3]':>35s} {'change':>8s}  verdict")
    for key in sorted(set(a_groups) & set(b_groups)):
        a_list, b_list = a_groups[key], b_groups[key]
        if [r["seed"] for r in a_list] != [r["seed"] for r in b_list]:
            print(f"note: {key[0]}: seeds differ between A and B; pairs follow "
                  "file order")
        names = [n for n in a_list[0]["result"]["metrics"] if n in bounds]
        for name in names:
            a_vals = [r["result"]["metrics"][name]["value"] for r in a_list]
            b_vals = [r["result"]["metrics"][name]["value"] for r in b_list
                      if name in r["result"]["metrics"]]
            if len(b_vals) != len(b_list):
                print(f"{key[0]:18s} {name:36s} missing from B")
                failed = True
                continue
            direction, bound = bounds[name]
            pairs = list(zip(a_vals, b_vals))
            a_q1, a_med, a_q3 = quartiles(a_vals)
            b_q1, b_med, b_q3 = quartiles(b_vals)
            change = (b_med - a_med) / a_med * 100 if a_med else 0.0
            v = verdict(a_vals, b_vals, direction, bound, pairs)
            failed = failed or v == "REGRESSION"
            print(f"{key[0]:18s} {name:36s} "
                  f"{a_med:12.5g} [{a_q1:9.4g}, {a_q3:9.4g}] "
                  f"{b_med:12.5g} [{b_q1:9.4g}, {b_q3:9.4g}] "
                  f"{change:+7.2f}%  {v}")
    if any(len(v) < MIN_PAIRS for v in a_groups.values()):
        print(f"note: fewer than {MIN_PAIRS} pairs in some workloads; no gain "
              "can be claimed there")
    return 1 if failed else 0


def run_one(checkout, workload, seed, seconds, trace):
    proc = subprocess.run(
        ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} printed no result "
                 f"(exit {proc.returncode})")
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1])}


def make_runs(args, benchmark):
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    sides = {"a": args.run[0], "b": args.run[1]}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    paths = {s: f"{args.out}-{s}.jsonl" for s in sides}
    files = {s: open(p, "w") for s, p in paths.items()}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for workload in workloads:
            for side in order:
                run = run_one(sides[side], workload, seed, seconds, 0)
                files[side].write(json.dumps(run) + "\n")
                files[side].flush()
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: done",
                      file=sys.stderr)
    for f in files.values():
        f.close()
    return paths["a"], paths["b"]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", nargs="?")
    parser.add_argument("b", nargs="?")
    parser.add_argument("--run", nargs=2, metavar=("DIR_A", "DIR_B"))
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    parser.add_argument("--out", default=os.path.join(
        root, ".bench_build", "e2e", "compare"))
    parser.add_argument("--benchmark", default=os.path.join(root, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    if args.run:
        args.a, args.b = make_runs(args, benchmark)
    elif not (args.a and args.b):
        parser.error("give two run sets, or --run DIR_A DIR_B")
    return report(load_runs(args.a), load_runs(args.b), benchmark)


if __name__ == "__main__":
    sys.exit(main())
