#!/usr/bin/env bash
# Robustness gate: runs the fault-injection and corruption suites under
# AddressSanitizer and UndefinedBehaviorSanitizer. Injected faults must
# never produce a crash, hang, out-of-bounds access, or UB — only clean
# Status errors (or retried success) — and the sanitizers enforce exactly
# that over every failpoint schedule the tests drive.
#
#   tools/check_robustness.sh [extra ctest args...]
#
# Reuses run_sanitized_tests.sh (XRANK_SANITIZE build dirs build-asan /
# build-ubsan), filtered to the failure-path suites, then runs the
# process-kill crash-recovery harness (check_recovery.sh): SIGKILL inside
# every commit window of the live-update path, reopen, verify, and check
# acknowledged-operation durability.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

FILTER='CorruptionTest|FaultInjectionTest|LiveUpdateTest|BackoffTest|SafeStrErrorTest|CodecValidationTest|CodecPageTest|BitpackTest|DisjunctivePruningTest|DisjunctiveCodecPruningTest|DisjunctiveSkewTest|VbmwBlockTest|RetiredFormatTest'

for SAN in address undefined; do
  echo "=== robustness suites under ${SAN} sanitizer ==="
  tools/run_sanitized_tests.sh "$SAN" -R "$FILTER" --output-on-failure "$@"
done

# Kill -9 inside every live-update commit window, reopen, verify, check
# acked-operation durability — against the instrumented binaries (the
# build dirs above cache XRANK_SANITIZE, so xrank_cli inherits it).
for DIR in build-asan build-ubsan; do
  echo "=== crash-recovery harness ($DIR) ==="
  tools/check_recovery.sh "$DIR"
done

echo "robustness check OK"
