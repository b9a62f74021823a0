#!/usr/bin/env bash
# Nightly deep gate — the slow checks that would bloat per-PR CI:
#
#   1. Extended crash-recovery: check_recovery.sh re-runs with several
#      distinct randomized-skip seeds, so the kill -9 windows land on
#      different hits of each failpoint every night instead of the single
#      fixed-seed pass the PR pipeline runs.
#   2. Bench baseline diff: the deterministic benchmark reports —
#      bench_table1_space (index bytes), bench_topk_sweep (cost-model
#      I/O units and postings read) and bench_fig10_high_corr /
#      bench_fig11_low_corr (Figures 10 and 11: cost-model units and HDIL
#      switch counts) — are regenerated and compared exactly against the
#      committed BENCH_*.json baselines (index layout and the cost model
#      are deterministic). Wall-clock keys inside them, and the wall-clock
#      report of bench_scaling, are host-dependent, so they are checked
#      for schema only: every baseline metric key must still be produced.
#      A report's metrics-registry block is checked for names only: every
#      counter, gauge and histogram series in the baseline must still be
#      registered, and no unbaselined one may appear.
#      Fresh reports are left in the build directory for artifact upload.
#
#   tools/check_nightly.sh [build-dir]
#
# Environment:
#   XRANK_NIGHTLY_RECOVERY_RUNS  randomized-seed recovery passes (default 5)

set -euo pipefail

DIR="${1:-build-nightly}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

RECOVERY_RUNS="${XRANK_NIGHTLY_RECOVERY_RUNS:-5}"

echo "=== extended crash-recovery (${RECOVERY_RUNS} randomized-seed passes) ==="
for ((i = 1; i <= RECOVERY_RUNS; ++i)); do
  SEED=$((20260808 + i * 7919))
  echo "--- recovery pass $i/${RECOVERY_RUNS} (seed $SEED) ---"
  XRANK_RECOVERY_SEED="$SEED" tools/check_recovery.sh "$DIR-recovery"
done

echo "=== bench baseline diff ==="
cmake -B "$DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$DIR" -j "$(nproc)" --target bench_table1_space \
  --target bench_topk_sweep --target bench_scaling \
  --target bench_fig10_high_corr --target bench_fig11_low_corr

"$DIR/bench/bench_table1_space" \
  --json "$DIR/BENCH_table1_space.json" > /dev/null
"$DIR/bench/bench_topk_sweep" --json "$DIR/BENCH_disjunctive.json" > /dev/null
"$DIR/bench/bench_scaling" --json "$DIR/BENCH_scaling.json" > /dev/null
"$DIR/bench/bench_fig10_high_corr" \
  --json "$DIR/BENCH_fig10_high_corr.json" > /dev/null
"$DIR/bench/bench_fig11_low_corr" \
  --json "$DIR/BENCH_fig11_low_corr.json" > /dev/null

python3 - "$DIR" <<'EOF'
import json, os, sys

build_dir = sys.argv[1]

# (baseline, compare values?) — table1_space, topk_sweep and the figure
# benches report deterministic quantities (bytes, cost-model units,
# postings, HDIL switch counts), which must match exactly; scaling reports
# wall-clock, so only its metric schema is compared. Time-based keys inside
# otherwise-deterministic reports are host noise: schema only.
REPORTS = [
    ("BENCH_table1_space.json", True),
    ("BENCH_disjunctive.json", True),
    ("BENCH_fig10_high_corr.json", True),
    ("BENCH_fig11_low_corr.json", True),
    ("BENCH_scaling.json", False),
]
HOST_DEPENDENT = ("wall_ms", "seconds", "qps", "speedup", "throughput_x")

failures = 0
for name, compare_values in REPORTS:
    with open(name) as f:
        baseline_report = json.load(f)
    with open(os.path.join(build_dir, name)) as f:
        fresh_report = json.load(f)
    # Registry series names, both directions; values are host noise. A
    # renamed or lost series would silently break every reader of it.
    if "registry" in baseline_report:
        fresh_registry = fresh_report.get("registry", {})
        names = 0
        for kind in ("counters", "gauges", "histograms"):
            base_names = set(baseline_report["registry"].get(kind, {}))
            fresh_names = set(fresh_registry.get(kind, {}))
            names += len(base_names)
            for series in sorted(base_names - fresh_names):
                print(f"check_nightly: FAIL — {name}: registry {kind[:-1]} "
                      f"'{series}' missing from fresh report")
                failures += 1
            for series in sorted(fresh_names - base_names):
                print(f"check_nightly: FAIL — {name}: fresh registry "
                      f"{kind[:-1]} '{series}' has no committed baseline "
                      f"(regenerate {name})")
                failures += 1
        print(f"check_nightly: {name}: {names} baseline registry names "
              f"checked")
    baseline = baseline_report["metrics"]
    fresh = fresh_report["metrics"]
    missing = sorted(set(baseline) - set(fresh))
    for key in missing:
        print(f"check_nightly: FAIL — {name}: baseline metric "
              f"'{key}' missing from fresh report")
        failures += 1
    # Schema drift in the other direction is just as much a failure: a
    # fresh metric with no committed baseline means the benchmark grew a
    # key nobody regenerated the BENCH_*.json for — the nightly diff
    # would silently stop covering it.
    unbaselined = sorted(set(fresh) - set(baseline))
    for key in unbaselined:
        print(f"check_nightly: FAIL — {name}: fresh metric '{key}' has no "
              f"committed baseline (regenerate {name})")
        failures += 1
    missing = missing + unbaselined
    drifted = 0
    if compare_values:
        for key, base in baseline.items():
            if key not in fresh:
                continue
            if any(key.endswith(s) or f"/{s}/" in key
                   for s in HOST_DEPENDENT):
                continue
            new = fresh[key]
            if new != base:
                print(f"check_nightly: FAIL — {name}: '{key}' drifted "
                      f"{base:.6g} -> {new:.6g}")
                failures += 1
                drifted += 1
    mode = "values" if compare_values else "schema"
    print(f"check_nightly: {name}: {len(baseline)} baseline metrics, "
          f"{mode} checked, {len(missing)} missing, {drifted} drifted")

if failures:
    print(f"check_nightly: FAIL — {failures} baseline deviation(s)")
    sys.exit(1)
print("check_nightly: OK")
EOF
