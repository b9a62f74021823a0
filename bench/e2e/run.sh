#!/usr/bin/env bash
# The one command of the end-to-end benchmark. It builds bench_e2e (Release,
# in .bench_build/e2e at the repository root) and then either
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       runs one workload in one process and passes its output through; the
#       last stdout line is the result JSON (BENCHMARK.json's "command"), or
#
#   run.sh [--seed N] [--seconds S] [--out FILE]
#       runs every workload, load run and traced run, each in its own
#       process, prints every metric with its unit and sample count, and
#       writes them merged to FILE (default .bench_build/e2e/report.json).
#
# It exits non-zero when the build fails or any answer is wrong. Scratch
# files, traces and reports stay under .bench_build/e2e.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd -P)"
root="$(cd "$here/../.." && pwd -P)"
build="$root/.bench_build/e2e"

workload="" seed=1 seconds="" trace=0 out="" passthrough=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --tiny) passthrough+=(--tiny); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"
fi

# Build: configure once (CMakeLists.txt here pulls in the root project), then
# an incremental, usually no-op, build of bench_e2e alone.
mkdir -p "$build"
if [[ ! -f "$build/cmake/Makefile" ]]; then
  cmake -S "$here" -B "$build/cmake" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build/cmake" --target bench_e2e -j "$(nproc)" >&2
bin="$build/cmake/bench_e2e"

run_one() {  # workload trace report-path
  local spans=()
  [[ "$2" == 1 ]] && spans=(--spans "$build/spans-$1.json")
  "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" \
    --tmp "$build/tmp" --report "$3" "${spans[@]}" "${passthrough[@]}"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$trace" "$build/last-$workload-$trace.json"
  exit
fi

out="${out:-$build/report.json}"
reports=()
status=0
for w in $(python3 -c 'import json,sys; print(" ".join(x["name"] for x in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json"); do
  for t in 0 1; do
    report="$build/report-$w-$t.json"
    run_one "$w" "$t" "$report" > "$build/stdout-$w-$t.txt" || status=1
    reports+=("$report")
  done
done
python3 - "$out" "${reports[@]}" <<'EOF'
import json, sys
out, paths = sys.argv[1], sys.argv[2:]
runs = []
for p in paths:
    try:
        runs.append(json.load(open(p)))
    except (OSError, ValueError) as e:
        runs.append({"path": p, "error": str(e), "correct": False})
json.dump({"runs": runs}, open(out, "w"), indent=1)
for r in runs:
    if "header" not in r:
        print(f"{r['path']}: no report ({r['error']})")
        continue
    h = r["header"]
    print(f"{h['workload']} {'traced' if h['trace'] else 'load'}: nproc={h['nproc']} "
          f"build={h['build_type']} seed={h['seed']} seconds={h['seconds']} "
          f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    for group in ("metrics", "extras"):
        for name, m in r[group].items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")
print(f"merged report: {out}")
EOF
exit $status
