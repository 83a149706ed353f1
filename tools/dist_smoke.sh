#!/usr/bin/env bash
#
# End-to-end smoke test for the distributed control plane
# (docs/DISTRIBUTED.md).
#
# Leg 1 (lockstep equivalence): run a 3-level plan — the group manager,
# the enclosure managers and the VM controller each hosted in their own
# npsnode process, four processes total over a unix socket — and require
# the distributed recorder CSV to be byte-identical to the
# single-process run of the same plan, at threads 1 and 4.
#
# Leg 2 (chaos): SIGKILL the GM rank mid-run with an outage longer than
# the 150-tick budget leases (3x the GM's 50-tick period), so the
# survivors must walk the whole degradation ladder — dropped grants,
# lease expiries, fallback stepping — before the supervisor restarts the
# rank from a snapshot; the run must finish rc=0 with every tick
# recorded.
#
# Leg 3 ([obs] live plane, docs/OBSERVABILITY.md): the same plan with an
# [obs] section, run single-process and distributed. The recorder and
# cascade CSVs must be byte-identical across the two runtimes; mid-run,
# the supervisor must serve the rank-labeled fleet view and each node
# its own replica; and the supervisor's final scrape during the linger
# window must be byte-identical to the --metrics export.
#
# Usage:  tools/dist_smoke.sh [npsim-binary] [workdir]
#
# Exits non-zero on the first mismatch. Stray child processes and
# sockets are cleaned up on any exit path.

set -euo pipefail

npsim="${1:-build/tools/npsim}"
work="${2:-$(mktemp -d)}"
npsfetch="$(dirname "${npsim}")/npsfetch"
mkdir -p "${work}"
work="$(cd "${work}" && pwd)" # plans embed the socket path: absolute

source "$(dirname "${BASH_SOURCE[0]}")/smoke_lib.sh"
smoke_reap_on_exit "${work}"

write_plan() { # <name> <ticks> [kill-spec] [restart-after]
    local name="$1" ticks="$2" kill_spec="${3:-}" restart="${4:-0}"
    cat > "${work}/${name}.plan" <<EOF
[dist]
socket = ${work}/${name}.sock
timeout_ms = 60000
restart_after = ${restart}

[run]
scenario = coordinated
mix = 60M
ticks = ${ticks}

[node group]
levels = gm:*

[node enclosures]
levels = em:*

[node vms]
levels = vmc
EOF
    if [ -n "${kill_spec}" ]; then
        printf '\n[chaos]\nkill = %s\n' "${kill_spec}" \
            >> "${work}/${name}.plan"
    fi
}

echo "=== leg 0: single-process reference ==="
ticks=240
write_plan ref "${ticks}"
"${npsim}" --plan "${work}/ref.plan" --record "${work}/ref.csv"

echo "=== leg 1: distributed run, threads 1 and 4 ==="
for t in 1 4; do
    write_plan "dist${t}" "${ticks}"
    "${npsim}" --distributed "${work}/dist${t}.plan" --threads "${t}" \
        --record "${work}/dist${t}.csv"
    cmp "${work}/ref.csv" "${work}/dist${t}.csv" \
        || { echo "FAIL: distributed CSV differs from single-process" \
                  "at threads ${t}" >&2; exit 1; }
    echo "OK: threads ${t} is byte-identical to the single-process run"
done

echo "=== leg 2: SIGKILL the GM rank, degrade, restart, recover ==="
# Kill at tick 100, restart after 200: the 200-tick outage exceeds the
# 150-tick leases, so lease expiries and fallback stepping must show up
# in the degrade summary — not just dropped grants.
chaos_ticks=480
write_plan chaos "${chaos_ticks}" "1@100" 200
"${npsim}" --distributed "${work}/chaos.plan" \
    --record "${work}/chaos.csv" 2> "${work}/chaos.log" \
    | tee "${work}/chaos.out"
cat "${work}/chaos.log" >&2

grep -q "killed rank 1" "${work}/chaos.log" \
    || { echo "FAIL: supervisor never killed rank 1" >&2; exit 1; }
grep -q "restarted rank 1" "${work}/chaos.log" \
    || { echo "FAIL: supervisor never restarted rank 1" >&2; exit 1; }

# degrade: N dropped, N stale, N lease expiries, N fallback steps, ...
degrade="$(grep '^degrade:' "${work}/chaos.out")"
dropped="$(echo "${degrade}" | sed -n 's/^degrade: \([0-9]*\) dropped.*/\1/p')"
leases="$(echo "${degrade}" | sed -n 's/.*, \([0-9]*\) lease expiries.*/\1/p')"
[ -n "${dropped}" ] && [ "${dropped}" -gt 0 ] \
    || { echo "FAIL: no dropped grants in '${degrade}'" >&2; exit 1; }
[ -n "${leases}" ] && [ "${leases}" -gt 0 ] \
    || { echo "FAIL: no lease expiries in '${degrade}'" >&2; exit 1; }

# Clean recovery: every tick recorded, same sample count as a healthy
# run of the same length would produce.
expected=$((chaos_ticks - 1))
grep -q "wrote ${expected} samples" "${work}/chaos.out" \
    || { echo "FAIL: chaos run did not record all ${expected} samples" >&2
         exit 1; }
echo "OK: degraded (${dropped} dropped, ${leases} lease expiries)," \
     "restarted, and recovered cleanly"

echo "=== leg 3: [obs] plan — fleet scrape, cascade equivalence ==="
obs_ticks=6000
write_plan obs "${obs_ticks}"
cat >> "${work}/obs.plan" <<EOF

[obs]
metrics_every = 5
cascade = true
http = unix:${work}/obs-r%r.sock
EOF

# Single-process run of the same plan: the [obs] section arms the
# registry and the cascade tracer in every replica, so the recorder
# and cascade artifacts must match the distributed run byte for byte.
"${npsim}" --plan "${work}/obs.plan" \
    --record "${work}/obs-plan.csv" \
    --cascade "${work}/obs-plan-cascade.csv" > /dev/null

# Distributed run, scraped while in flight. Only the supervisor gets a
# linger window (the flag beats the plan, which has none), so the node
# processes still exit promptly at BYE.
"${npsim}" --distributed "${work}/obs.plan" \
    --record "${work}/obs-dist.csv" \
    --cascade "${work}/obs-dist-cascade.csv" \
    --metrics "${work}/obs-dist.prom" \
    --http-linger 20000 > "${work}/obs-dist.out" &
daemon=$!

# Mid-run: the supervisor serves the merged fleet view. The first
# per-rank snapshots arrive at the tick-5 barrier, so poll until the
# rank labels show up.
got=""
for _ in $(seq 100); do
    if "${npsfetch}" "unix:${work}/obs-r0.sock" /metrics \
            > "${work}/obs-mid.prom" 2>/dev/null \
        && grep -q 'rank="1"' "${work}/obs-mid.prom"; then
        got=1
        break
    fi
    sleep 0.05
done
[ -n "${got}" ] \
    || { echo "FAIL: supervisor never served a rank-labeled fleet" \
              "view" >&2; exit 1; }
"${npsfetch}" "unix:${work}/obs-r0.sock" /healthz \
    > "${work}/obs-health.json"
grep -q '"final": false' "${work}/obs-health.json" \
    || { echo "FAIL: fleet scrape landed after the run ended —" \
              "raise obs_ticks" >&2; exit 1; }
# Each node serves its own replica on its expanded %r endpoint.
"${npsfetch}" "unix:${work}/obs-r1.sock" /healthz \
    > "${work}/obs-r1-health.json"
grep -q '"rank": 1' "${work}/obs-r1-health.json" \
    || { echo "FAIL: rank 1 endpoint did not identify itself:" \
              "$(cat "${work}/obs-r1-health.json")" >&2; exit 1; }

# End of run: final scrape during the linger window must match the
# --metrics export byte for byte.
final=""
for _ in $(seq 100); do
    if [ -s "${work}/obs-dist.prom" ] \
        && "${npsfetch}" "unix:${work}/obs-r0.sock" /healthz \
            > "${work}/obs-health.json" \
        && grep -q '"final": true' "${work}/obs-health.json"; then
        final=1
        break
    fi
    sleep 0.2
done
[ -n "${final}" ] \
    || { echo "FAIL: supervisor never published a final snapshot" >&2
         exit 1; }
"${npsfetch}" "unix:${work}/obs-r0.sock" /metrics \
    > "${work}/obs-final.prom"
cmp "${work}/obs-dist.prom" "${work}/obs-final.prom" \
    || { echo "FAIL: final scrape differs from the --metrics export" >&2
         exit 1; }
"${npsfetch}" "unix:${work}/obs-r0.sock" /quitz > /dev/null
wait "${daemon}"

# The fleet export must carry the end-of-run snapshot of every rank
# (the last tick always ships, whatever the cadence).
for r in 0 1 2 3; do
    grep -q "^nps_fleet_snapshot_tick{rank=\"${r}\"} $((obs_ticks - 1))$" \
        "${work}/obs-dist.prom" \
        || { echo "FAIL: rank ${r} fleet snapshot is not at the final" \
                  "tick" >&2; exit 1; }
done
# Single-process vs distributed: same ticks, same hops, same bytes.
cmp "${work}/obs-plan.csv" "${work}/obs-dist.csv" \
    || { echo "FAIL: [obs] recorder CSV differs across runtimes" >&2
         exit 1; }
cmp "${work}/obs-plan-cascade.csv" "${work}/obs-dist-cascade.csv" \
    || { echo "FAIL: cascade CSV differs across runtimes" >&2
         exit 1; }
echo "OK: fleet view scraped mid-run; final scrape == export;" \
     "cascade and recorder byte-identical across runtimes"

echo "=== dist smoke: all legs passed ==="
