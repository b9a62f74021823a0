#!/usr/bin/env bash
# End-to-end benchmark smoke gate: builds bench_e2e the way its own
# CMakeLists.txt documents (a standalone configure of bench/e2e, which pulls
# in the root project) and runs e2e_smoke, the tiny-size run of every
# BENCHMARK.json workload in both modes. It fails unless every named metric
# is emitted, every answer matches the reference, and each workload
# exercises the mechanism it exists for.
#
#   tools/check_e2e_smoke.sh [build-dir]
#
# The -R filter matters: that build directory also lists the root project's
# tests, whose xrank_tests binary it never builds.

set -euo pipefail

DIR="${1:-build-e2e}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -S bench/e2e -B "$DIR" -DCMAKE_BUILD_TYPE=Release
cmake --build "$DIR" -j "$(nproc)" --target bench_e2e
( cd "$DIR" && ctest -R '^e2e_smoke$' --output-on-failure )
