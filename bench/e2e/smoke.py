#!/usr/bin/env python3
"""e2e_smoke: every workload at tiny size, load run and traced run.

Fails unless each run exits 0 with a correct result whose metrics are exactly
the ones BENCHMARK.json names for its mode (end-to-end values never 0), and
unless each workload exercises the mechanism it exists for: blocks pruned on
both disjunctive dblp workloads, result-cache hits on xmark-hdil-hot, and a
"segments" span on dblp-live-ingest.

  smoke.py --bin bench_e2e --benchmark BENCHMARK.json --tmp DIR
"""

import argparse
import json
import os
import subprocess
import sys

SECONDS = "0.5"

# (workload, per-layer metric) pairs whose traced run must show the
# mechanism at work: a value, or a sample count, above zero.
MECHANISMS = [
    ("dblp-disj-large", "query.blocks_pruned_per_query", "value"),
    ("dblp-shard4", "query.blocks_pruned_per_query", "value"),
    ("xmark-hdil-hot", "core.result_cache_hit_ratio", "value"),
    ("dblp-live-ingest", "core.segments_p50_us", "samples"),
]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    os.makedirs(args.tmp, exist_ok=True)
    expected = {0: benchmark["end_to_end"], 1: benchmark["per_layer"]}
    errors = []
    reports = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            report_path = os.path.join(args.tmp, f"{workload}-{trace}.json")
            proc = subprocess.run(
                [args.bin, "--workload", workload, "--seed", "1", "--seconds",
                 SECONDS, "--trace", str(trace), "--tiny", "--tmp", args.tmp,
                 "--report", report_path],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=60, check=False)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"failed={result['failed']}")
            names = {m["name"]: m["unit"] for m in expected[trace]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != names:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(names) - set(got))}, "
                              f"extra {sorted(set(got) - set(names))}, "
                              f"units {[n for n in got if n in names and got[n] != names[n]]}")
            if trace == 0:
                for name, m in result["metrics"].items():
                    if not m["value"] > 0:
                        errors.append(f"{where}: {name} is {m['value']}")
            with open(report_path) as f:
                reports[(workload, trace)] = json.load(f)
    for workload, metric, field in MECHANISMS:
        report = reports.get((workload, 1))
        if report is None:
            continue
        value = report["metrics"][metric][field]
        if not value > 0:
            errors.append(f"{workload}: {metric} {field} is {value}; the "
                          "mechanism this workload exists for did not run")
    for e in errors:
        print("FAIL:", e)
    print("e2e_smoke:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
