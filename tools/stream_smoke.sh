#!/usr/bin/env bash
#
# End-to-end smoke test for the online telemetry engine
# (docs/STREAMING.md).
#
# Leg 1 (replay equivalence): run npsim in batch mode, then run
# `npsfeed | npsim --serve stdin` over the same campaign at several
# thread counts, and require every artifact — telemetry CSV, series,
# metrics export — to be byte-identical. The nps_stream_* metric
# families are transport-timing diagnostics that only exist in daemon
# mode, so the metrics diff filters them out (everything else must
# match exactly).
#
# Leg 2 (unix socket): same equivalence over a unix-domain socket.
#
# Leg 3 (killed feeder): SIGKILL the feeder mid-run; the daemon must
# exit cleanly (no hang, no crash) and its partial telemetry CSV must
# be a byte-prefix of the batch run's.
#
# Leg 4 (checkpoint + resume under --serve): checkpoint the daemon
# mid-stream, then resume with a feeder that picks up at the
# checkpointed tick; the final artifacts must match the batch run.
#
# Leg 5 (live endpoints): serve /metrics and /healthz over --http while
# the run is in flight (docs/OBSERVABILITY.md); the mid-run scrape must
# be well-formed, and the final scrape during the linger window must be
# byte-identical to the end-of-run --metrics export.
#
# Usage:  tools/stream_smoke.sh [npsim-binary] [npsfeed-binary] [workdir]
#
# Exits non-zero on the first mismatch.

set -euo pipefail

npsim="${1:-build/tools/npsim}"
npsfeed="${2:-build/tools/npsfeed}"
work="${3:-$(mktemp -d)}"
npsfetch="$(dirname "${npsim}")/npsfetch"
mkdir -p "${work}"

# Legs 2-5 background a daemon and a feeder: kill those tracked pids
# first, then let the shared sweep reap anything else that names the
# workdir (tools/smoke_lib.sh).
daemon=""
feeder=""
kill_tracked() {
    [ -n "${daemon}" ] && kill "${daemon}" 2>/dev/null || true
    [ -n "${feeder}" ] && kill "${feeder}" 2>/dev/null || true
}
source "$(dirname "${BASH_SOURCE[0]}")/smoke_lib.sh"
smoke_reap_on_exit "${work}" kill_tracked

ticks=480
mix=180

common=(--scenario coordinated --mix "${mix}" --ticks "${ticks}"
        --log-level warn)

# Strip the nondeterministic metric families before diffing — series
# lines and their # HELP/# TYPE headers both. nps_stream_* are ingest
# diagnostics that depend on socket timing and have no batch-mode
# counterpart; nps_rt_* are the wall-clock runtime histograms (tick
# latency, pull wait), different on every run by construction.
filter_stream_metrics() { # <in> <out>
    grep -v -e '^nps_stream_' -e '^nps_rt_' "$1" \
        | grep -v -e '^# .*nps_stream_' -e '^# .*nps_rt_' > "$2"
}

echo "=== leg 0: batch reference ==="
"${npsim}" "${common[@]}" \
    --record "${work}/ref-record.csv" \
    --series "${work}/ref-series.csv" \
    --metrics "${work}/ref-metrics.prom"
filter_stream_metrics "${work}/ref-metrics.prom" "${work}/ref-metrics.flt"

check_identical() { # <prefix>
    diff "${work}/ref-record.csv" "${work}/$1-record.csv" \
        || { echo "FAIL: $1 record differs from batch" >&2; exit 1; }
    diff "${work}/ref-series.csv" "${work}/$1-series.csv" \
        || { echo "FAIL: $1 series differs from batch" >&2; exit 1; }
    filter_stream_metrics "${work}/$1-metrics.prom" "${work}/$1-metrics.flt"
    diff "${work}/ref-metrics.flt" "${work}/$1-metrics.flt" \
        || { echo "FAIL: $1 metrics differ from batch" >&2; exit 1; }
    echo "OK: $1 is byte-identical to the batch run"
}

echo "=== leg 1: stdin pipe, threads 1 and 4 ==="
for t in 1 4; do
    "${npsfeed}" --mix "${mix}" --ticks "${ticks}" \
        | "${npsim}" "${common[@]}" --serve stdin --threads "${t}" \
            --record "${work}/pipe${t}-record.csv" \
            --series "${work}/pipe${t}-series.csv" \
            --metrics "${work}/pipe${t}-metrics.prom"
    check_identical "pipe${t}"
done

echo "=== leg 2: unix socket ==="
sock="${work}/nps.sock"
"${npsim}" "${common[@]}" --serve "unix:${sock}" --threads 4 \
    --record "${work}/sock-record.csv" \
    --series "${work}/sock-series.csv" \
    --metrics "${work}/sock-metrics.prom" &
daemon=$!
"${npsfeed}" --mix "${mix}" --ticks "${ticks}" --to "unix:${sock}"
wait "${daemon}"
daemon=""
check_identical "sock"

echo "=== leg 3: feeder SIGKILLed mid-run ==="
sock="${work}/nps-kill.sock"
"${npsim}" "${common[@]}" --serve "unix:${sock}" \
    --record "${work}/kill-record.csv" &
daemon=$!
# Paced so the campaign takes ~2s: the SIGKILL lands mid-stream, not
# after a too-fast feeder already signed off.
"${npsfeed}" --mix "${mix}" --ticks "${ticks}" --pace-ms 4 \
    --to "unix:${sock}" &
feeder=$!
sleep 0.4
kill -9 "${feeder}" 2>/dev/null || true
wait "${feeder}" 2>/dev/null || true
feeder=""
# The daemon must notice the dead peer and exit cleanly on its own —
# a hang here fails the smoke via the surrounding CI timeout.
wait "${daemon}" \
    || { echo "FAIL: daemon exited non-zero after feeder kill" >&2
         exit 1; }
daemon=""
# Whatever was simulated must be a byte-prefix of the batch output:
# the daemon only commits barrier-complete ticks.
got="${work}/kill-record.csv"
lines=$(wc -l < "${got}")
head -n "${lines}" "${work}/ref-record.csv" | cmp - "${got}" \
    || { echo "FAIL: partial record is not a prefix of the batch run" >&2
         exit 1; }
echo "OK: killed-feeder run exited cleanly with a ${lines}-line prefix"

echo "=== leg 4: checkpoint mid-stream, resume under --serve ==="
ckpt="${work}/ckpt"
mkdir -p "${ckpt}"
half=$((ticks / 2))
# First half: the feeder covers [0, half); the daemon checkpoints every
# 60 ticks and ends early (cleanly) when the stream signs off. The obs
# artifacts must be enabled here too — a resume leg may only ask for
# artifacts the checkpointed run was collecting.
"${npsfeed}" --mix "${mix}" --ticks "${half}" \
    | "${npsim}" "${common[@]}" --serve stdin \
        --checkpoint-every 60 --checkpoint-dir "${ckpt}" \
        --record "${work}/half-record.csv" \
        --series "${work}/half-series.csv" \
        --metrics "${work}/half-metrics.prom"
# Resume from the newest snapshot; the feeder picks up at its tick.
"${npsfeed}" --mix "${mix}" --ticks "${ticks}" --start-tick "${half}" \
    | "${npsim}" "${common[@]}" --serve stdin --resume latest \
        --checkpoint-dir "${ckpt}" \
        --record "${work}/resumed-record.csv" \
        --series "${work}/resumed-series.csv" \
        --metrics "${work}/resumed-metrics.prom"
check_identical "resumed"

echo "=== leg 5: live /metrics while the run is in flight ==="
sock="${work}/nps-live.sock"
http="${work}/nps-live-http.sock"
"${npsim}" "${common[@]}" --serve "unix:${sock}" \
    --http "unix:${http}" --http-linger 20000 \
    --record "${work}/live-record.csv" \
    --metrics "${work}/live-metrics.prom" &
daemon=$!
# Paced like leg 3 so the mid-run scrape really lands mid-run.
"${npsfeed}" --mix "${mix}" --ticks "${ticks}" --pace-ms 4 \
    --to "unix:${sock}" &
feeder=$!
sleep 0.4
"${npsfetch}" "unix:${http}" /healthz > "${work}/live-health.json"
grep -q '"final": false' "${work}/live-health.json" \
    || { echo "FAIL: mid-run /healthz is not live:" \
              "$(cat "${work}/live-health.json")" >&2; exit 1; }
"${npsfetch}" "unix:${http}" /metrics > "${work}/live-mid.prom"
grep -q '^# TYPE nps_rt_tick_wall_ms histogram' "${work}/live-mid.prom" \
    || { echo "FAIL: mid-run /metrics lacks the runtime histogram" >&2
         exit 1; }
grep -q '^nps_stream_samples_total' "${work}/live-mid.prom" \
    || { echo "FAIL: mid-run /metrics lacks the stream counters" >&2
         exit 1; }
wait "${feeder}"
feeder=""
# End of run: the daemon publishes the final snapshot, writes the
# export, then lingers for late scrapers. Wait for both, then the last
# scrape must be byte-identical to the export file.
final=""
for _ in $(seq 100); do
    if [ -s "${work}/live-metrics.prom" ] \
        && "${npsfetch}" "unix:${http}" /healthz \
            > "${work}/live-health.json" \
        && grep -q '"final": true' "${work}/live-health.json"; then
        final=1
        break
    fi
    sleep 0.2
done
[ -n "${final}" ] \
    || { echo "FAIL: daemon never published a final snapshot" >&2
         exit 1; }
"${npsfetch}" "unix:${http}" /metrics > "${work}/live-final.prom"
cmp "${work}/live-metrics.prom" "${work}/live-final.prom" \
    || { echo "FAIL: final scrape differs from the --metrics export" >&2
         exit 1; }
"${npsfetch}" "unix:${http}" /quitz > /dev/null
wait "${daemon}"
daemon=""
# The live plane is observation-only: the recorder CSV must still match
# the batch reference byte for byte.
diff "${work}/ref-record.csv" "${work}/live-record.csv" \
    || { echo "FAIL: record differs from batch with --http live" >&2
         exit 1; }
echo "OK: live endpoints served mid-run; final scrape == export"

echo "=== stream smoke: all legs passed ==="
