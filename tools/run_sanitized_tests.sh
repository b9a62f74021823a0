#!/usr/bin/env bash
# Builds and runs the test suite under a sanitizer.
#
#   tools/run_sanitized_tests.sh [thread|address|undefined] [ctest args...]
#
# Defaults to thread (TSan), which must stay clean over the concurrent
# query and parallel build/ElemRank tests. Each sanitizer gets its own
# build directory (build-tsan, build-asan, build-ubsan).
#
# The configure below is plain, so CMake picks a compiler launcher up
# from the CMAKE_C_COMPILER_LAUNCHER / CMAKE_CXX_COMPILER_LAUNCHER
# environment — CI exports `ccache` there (cache keyed per sanitizer +
# compiler version, since sanitizer flags change every object file).

set -euo pipefail

SAN="${1:-thread}"
shift || true

case "$SAN" in
  thread)    DIR=build-tsan ;;
  address)   DIR=build-asan ;;
  undefined) DIR=build-ubsan ;;
  *)
    echo "usage: $0 [thread|address|undefined] [ctest args...]" >&2
    exit 2
    ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake -B "$DIR" -S . -DXRANK_SANITIZE="$SAN" -DCMAKE_BUILD_TYPE=RelWithDebInfo
# alloc_budget_test is its own executable (it replaces operator new).
cmake --build "$DIR" -j "$(nproc)" --target xrank_tests alloc_budget_test

# second_deadlock_stack aids TSan lock-order reports; halt_on_error keeps
# CI signal crisp for ASan/UBSan.
case "$SAN" in
  thread)    export TSAN_OPTIONS="${TSAN_OPTIONS:-second_deadlock_stack=1}" ;;
  address)   export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" ;;
  undefined) export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}" ;;
esac

cd "$DIR"
ctest --output-on-failure "$@"
