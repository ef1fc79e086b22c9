#!/usr/bin/env bash
# Regenerate the golden expected files from the current code.
#
#   tests/golden/regen.sh [build-dir]      (default: build)
#
# Builds moas_golden_tests in the given build tree, reruns every golden case
# with MOAS_GOLDEN_UPDATE=1 (which rewrites tests/golden/*.txt instead of
# comparing), and shows the resulting diff. Only commit the new files after
# reading that diff: a changed number is a changed paper result.
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="${1:-build}"
case "$build" in /*) ;; *) build="$repo/$build" ;; esac
cmake --build "$build" --target moas_golden_tests -j"$(nproc)"
MOAS_GOLDEN_UPDATE=1 "$build/tests/moas_golden_tests"
git -C "$repo" --no-pager diff --stat -- tests/golden
