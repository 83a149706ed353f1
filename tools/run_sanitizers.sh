#!/usr/bin/env bash
#
# Build and run every ctest suite under ThreadSanitizer and
# AddressSanitizer+UBSan, via the NPS_SANITIZE CMake knob (see
# CMakeLists.txt).
#
# Usage:  tools/run_sanitizers.sh [build-root]
#
# Build trees land under <build-root> (default: build-san/) so they
# never disturb the regular build/. Exits non-zero on the first
# sanitizer report or test failure.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/build-san}"

run_one() {
    local label="$1"
    local sanitize="$2"
    local build_dir="${build_root}/${label}"
    echo "=== ${label}: configuring (${sanitize}) ==="
    cmake -B "${build_dir}" -S "${repo_root}" \
        -DNPS_SANITIZE="${sanitize}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "=== ${label}: building ==="
    cmake --build "${build_dir}" -j "$(nproc)" >/dev/null
    echo "=== ${label}: running every suite ==="
    (cd "${build_dir}" && ctest --output-on-failure)
}

# halt_on_error makes the first data race fail the test run instead of
# just printing a report.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

run_one tsan thread
run_one asan address,undefined

echo "=== all sanitizer suites passed ==="
