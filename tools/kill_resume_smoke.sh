#!/usr/bin/env bash
#
# Kill-and-resume smoke test for the checkpoint layer (docs/CHECKPOINTING.md).
#
# Runs npsim with periodic crash-safe snapshots, SIGKILLs it mid-run,
# resumes from the newest snapshot ('latest'), and requires every
# artifact — telemetry CSV, control-plane log, cascade trace, metrics
# export, decision trace, per-tick series — to be byte-identical to an
# uninterrupted reference run. A second leg resumes at a different
# thread count (the snapshot is thread-count independent), and a third
# corrupts the newest snapshot to prove the fallback-and-warn path and
# the strict-resume failure path.
#
# Usage:  tools/kill_resume_smoke.sh [npsim-binary] [workdir]
#
# Exits non-zero on the first mismatch. The kill is best-effort: on a
# machine fast enough to finish before the signal lands, the resume
# still runs from the last snapshot and the diffs still gate.

set -euo pipefail

npsim="${1:-build/tools/npsim}"
work="${2:-$(mktemp -d)}"
mkdir -p "${work}"

ticks=1200
every=60

# A campaign whose outage / lossy / stale windows straddle any plausible
# kill point, so degraded state must survive the snapshot.
printf 'outage sm 2 40 300\ndrop gm-em * 100 700 0.5\nstale em-sm 1 120 500\n' \
    > "${work}/faults.txt"

# Resume legs must NOT repeat --faults (or --config/--topology): the
# checkpoint embeds the original campaign and npsim rejects the combo.
common=(--scenario coordinated --ticks "${ticks}" --record-stride 2
        --log-level warn)
faults=(--faults "${work}/faults.txt")

artifacts=(record control-log cascade metrics trace series)

# Builds the full npsim command line into the global CMD array. The
# background legs run "${CMD[@]}" & directly (a simple command, so $!
# is npsim's own PID and the SIGKILL lands on the simulator, not on an
# intermediate subshell).
build_cmd() { # <prefix> <extra args...>
    local prefix="$1"
    shift
    CMD=("${npsim}" "${common[@]}"
         --record "${work}/${prefix}-record.csv"
         --control-log "${work}/${prefix}-control-log.csv"
         --cascade "${work}/${prefix}-cascade.csv"
         --metrics "${work}/${prefix}-metrics.prom"
         --trace "${work}/${prefix}-trace.csv"
         --series "${work}/${prefix}-series.csv"
         "$@")
}

run_npsim() { # <prefix> <extra args...>
    build_cmd "$@"
    "${CMD[@]}"
}

artifact_path() { # <prefix> <kind>
    case "$2" in
    metrics) echo "${work}/$1-metrics.prom" ;;
    *) echo "${work}/$1-$2.csv" ;;
    esac
}

# The nps_rt_* metric families are wall-clock runtime histograms: not
# checkpointed, and different on every run by construction, so they
# stay out of the diff (series lines and # HELP/# TYPE headers both).
comparable() { # <file>
    grep -v -e '^nps_rt_' -e '^# .*nps_rt_' "$1" || true
}

diff_against_ref() { # <prefix>
    local kind
    for kind in "${artifacts[@]}"; do
        diff <(comparable "$(artifact_path ref "${kind}")") \
            <(comparable "$(artifact_path "$1" "${kind}")") \
            || { echo "FAIL: $1 ${kind} differs from reference" >&2
                 exit 1; }
    done
    echo "OK: $1 matches the uninterrupted reference"
}

kill_when_snapshots() { # <pid> <dir> <count>
    local pid="$1" dir="$2" count="$3"
    while kill -0 "${pid}" 2>/dev/null; do
        if [ "$(ls "${dir}" 2>/dev/null | grep -c '\.nps$')" -ge \
             "${count}" ]; then
            kill -9 "${pid}" 2>/dev/null || true
            break
        fi
        sleep 0.02
    done
    set +e
    wait "${pid}"
    local rc=$?
    set -e
    echo "interrupted run ended with status ${rc}" \
        "($([ "${rc}" -eq 137 ] && echo SIGKILL || echo 'ran to completion'))"
}

echo "=== reference: uninterrupted run ==="
run_npsim ref --threads 1 "${faults[@]}"

echo "=== leg 1: kill mid-run, resume latest, same thread count ==="
ckpt1="${work}/ckpt1"
mkdir -p "${ckpt1}"
build_cmd int1 --threads 1 "${faults[@]}" \
    --checkpoint-every "${every}" --checkpoint-dir "${ckpt1}"
"${CMD[@]}" &
kill_when_snapshots $! "${ckpt1}" 3
run_npsim res1 --threads 1 --checkpoint-dir "${ckpt1}" --resume latest
diff_against_ref res1

echo "=== leg 2: checkpoint at 8 threads, resume serial ==="
ckpt2="${work}/ckpt2"
mkdir -p "${ckpt2}"
build_cmd int2 --threads 8 "${faults[@]}" \
    --checkpoint-every "${every}" --checkpoint-dir "${ckpt2}"
"${CMD[@]}" &
kill_when_snapshots $! "${ckpt2}" 3
run_npsim res2 --threads 1 --checkpoint-dir "${ckpt2}" --resume latest
diff_against_ref res2

echo "=== leg 3: corrupt the newest snapshot, expect fallback ==="
newest="$(ls "${ckpt1}" | grep '\.nps$' | sort | tail -n 1)"
count_valid="$(ls "${ckpt1}" | grep -c '\.nps$')"
if [ "${count_valid}" -lt 2 ]; then
    echo "SKIP: only one snapshot on disk, nothing to fall back to"
else
    printf 'X' | dd of="${ckpt1}/${newest}" bs=1 seek=100 conv=notrunc \
        status=none
    # Strict resume from the corrupt file itself must fail loudly.
    if "${npsim}" "${common[@]}" --resume "${ckpt1}/${newest}" \
        --record "${work}/bad-record.csv" \
        --control-log "${work}/bad-control-log.csv" \
        --cascade "${work}/bad-cascade.csv" \
        --metrics "${work}/bad-metrics.prom" \
        --trace "${work}/bad-trace.csv" \
        --series "${work}/bad-series.csv" 2>"${work}/bad-stderr.txt"; then
        echo "FAIL: strict --resume accepted a corrupt snapshot" >&2
        exit 1
    fi
    grep -q 'CRC mismatch' "${work}/bad-stderr.txt" || {
        echo "FAIL: corrupt-snapshot error does not mention the CRC" >&2
        cat "${work}/bad-stderr.txt" >&2
        exit 1
    }
    echo "OK: strict resume rejected the corrupt snapshot"
    # 'latest' must warn, skip it, and resume from the previous one.
    run_npsim res3 --threads 1 --checkpoint-dir "${ckpt1}" --resume latest \
        2>"${work}/res3-stderr.txt"
    grep -q "${newest}" "${work}/res3-stderr.txt" || {
        echo "FAIL: fallback resume did not warn about ${newest}" >&2
        exit 1
    }
    diff_against_ref res3
fi

echo "=== kill-resume smoke passed ==="
