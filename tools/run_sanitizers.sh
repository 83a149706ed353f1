#!/usr/bin/env bash
#
# Build and run the concurrency-sensitive test suites under
# ThreadSanitizer and AddressSanitizer+UBSan, via the NPS_SANITIZE
# CMake knob (see CMakeLists.txt).
#
# Usage:  tools/run_sanitizers.sh [build-root]
#
# Build trees land under <build-root> (default: build-san/) so they
# never disturb the regular build/. Exits non-zero on the first
# sanitizer report or test failure.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/build-san}"

# The suites that exercise the parallel engine: the engine unit and
# fuzz tests, the serial-vs-parallel determinism suite, the
# golden-master scenarios (which run at threads = 1 and 4), the
# fault-injection chaos layer (whose injector queries run on the
# sharded worker threads), the checkpoint layer (snapshot format,
# the resume-equality matrix that crosses thread counts, the
# fork-and-SIGKILL chaos harness, and the link/lease edge suites the
# restore path depends on), the fleet-scale layer (parallel trace
# generation in sim/test_fleetgen, the 5000-server SoA hot path across
# thread counts in integration/test_fleet_scale, and the EC/SM kernel
# actors under a fault campaign with the control log on across thread
# counts in integration/test_fleet_kernels), and the online
# telemetry layer (the frame-decoder fuzz battery over adversarial
# byte streams, the socket-fed StreamSource/ClusterFeed policy suite,
# and the replay-equivalence matrix that crosses thread counts with a
# live feeder thread writing into the engine), and the distributed
# control plane (the transport-seam sequence suite that drives a real
# hub/leaf socket pair, the distributed-frame codec battery, the plan
# loader's death tests, and the multi-process equivalence suite that
# forks sanitized npsim/npsnode trees and crosses thread counts), and
# the live observability plane (the snapshot codec and fleet-merge
# unit suite, the HTTP exporter suite whose serve thread is scraped
# while the engine thread publishes, and the cascade-trace invariance
# suite that crosses thread counts and the plan/distributed runtimes),
# and the network-emulation layer (the schedule/transport unit suites,
# the chaos campaigns that cross thread counts over the full
# coordinator, the seq-wraparound reorder-window regression, the
# frame-decoder single-byte-flip fuzz battery, the listen/backoff
# socket suite with real connecting threads, and the multi-process
# netem equivalence suite that forks sanitized npsim/npsnode trees),
# the strict token readers every script grammar and numeric CLI flag
# goes through (their edge cases are exactly UBSan's overflow territory),
# the consolidation packer (its segment-tree and ordered-index
# arithmetic, checked against the linear-scan oracle over random and
# 2000-bin instances, and the VMC that drives it over the VM arrays),
# and the plant kernel (the cluster suite, and the differential suite
# that checks Cluster::evaluateTick against the per-object walk at pool
# sizes 1-8, where each work-balanced shard writes its own range of the
# placement columns' demand column).
test_regex='sim/test_cluster|sim/test_plant_fuzz|controllers/test_binpack_fuzz|controllers/test_vm_controller|sim/test_engine|sim/test_engine_fuzz|sim/test_fleetgen|integration/test_determinism|integration/test_fleet_scale|integration/test_fleet_kernels|golden/test_golden_master|fault/test_injector|fault/test_chaos|fault/test_degradation|ckpt/test_snapshot|ckpt/test_resume|ckpt/test_chaos_kill|bus/test_link_replay|bus/test_transport_seq|bus/test_seq_wraparound|controllers/test_lease_boundary|stream/test_frame|stream/test_frame_fuzz|stream/test_dist_frames|stream/test_stream_source|stream/test_silence_equiv|stream/test_replay_equiv|stream/test_listen_backoff|core/test_plan_io|integration/test_dist_equiv|integration/test_netem_equiv|netem/test_netem_schedule|netem/test_netem_transport|netem/test_netem_campaign|obs/test_live_agg|obs/test_live_http|obs/test_cascade|util/test_script'

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
    echo "=== ${label}: running ${test_regex} ==="
    (cd "${build_dir}" && ctest -R "${test_regex}" --output-on-failure)
}

# halt_on_error makes the first data race fail the test run instead of
# just printing a report.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

run_one tsan thread
run_one asan address,undefined

echo "=== all sanitizer suites passed ==="
