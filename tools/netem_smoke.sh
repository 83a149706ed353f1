#!/usr/bin/env bash
#
# End-to-end smoke test for the deterministic network-emulation layer
# (docs/NETWORK_FAULTS.md).
#
# Leg 1 (storm equivalence): run a 3-level plan with a [netem] latency
# storm — jittered delays on every link plus wire-level duplication and
# corruption on the EM fan-out — as four processes over a unix socket,
# and require the recorder CSV to be byte-identical to the
# single-process `--plan` oracle of the same plan, at threads 1 and 4.
# Duplication and corruption must be absorbed by the receiver's dedup
# window and the NPSF CRC/resync, so they can never show up in a CSV.
#
# Leg 2 (partition/heal): script a gm<->em partition that outlives the
# 150-tick budget lease (3x the GM's 50-tick period). The survivors
# must walk the degradation ladder — dropped grants, lease expiries,
# fallback stepping — while the netem summary shows the partition
# drops; after the heal the run must finish rc=0 with every tick
# recorded.
#
# Leg 3 (kill + reconnect under latency): SIGKILL the EM rank mid-storm
# with restart_after armed. The respawned npsnode must reconnect
# through the backoff path, resync from the supervisor snapshot (netem
# delivery queue included), and the run must finish full-length.
#
# Usage:  tools/netem_smoke.sh [npsim-binary] [workdir]
#
# Exits non-zero on the first mismatch. Stray child processes and
# sockets are cleaned up on any exit path.

set -euo pipefail

npsim="${1:-build/tools/npsim}"
work="${2:-$(mktemp -d)}"
mkdir -p "${work}"
work="$(cd "${work}" && pwd)" # plans embed the socket path: absolute

source "$(dirname "${BASH_SOURCE[0]}")/smoke_lib.sh"
smoke_reap_on_exit "${work}"

write_plan() { # <name> <ticks> <netem-script> [deadline] [kill] [restart]
    local name="$1" ticks="$2" script="$3" deadline="${4:-0}"
    local kill_spec="${5:-}" restart="${6:-0}"
    cat > "${work}/${name}.plan" <<EOF
[dist]
socket = ${work}/${name}.sock
timeout_ms = 60000
restart_after = ${restart}
reconnect_attempts = 10
reconnect_base_ms = 20
reconnect_max_ms = 200

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
    if [ -n "${script}" ]; then
        printf '\n[netem]\nseed = 7\n' >> "${work}/${name}.plan"
        [ "${deadline}" != "0" ] \
            && printf 'deadline_ticks = %s\n' "${deadline}" \
                >> "${work}/${name}.plan"
        printf 'script = %s\n' "${script}" >> "${work}/${name}.plan"
    fi
    if [ -n "${kill_spec}" ]; then
        printf '\n[chaos]\nkill = %s\n' "${kill_spec}" \
            >> "${work}/${name}.plan"
    fi
}

storm='delay * 40 200 1 3; dup em-sm 40 200 0.4; corrupt em-sm 40 200 0.3'

echo "=== leg 1: latency storm — distributed vs --plan oracle ==="
ticks=240
write_plan ref "${ticks}" "${storm}" 5
"${npsim}" --plan "${work}/ref.plan" --record "${work}/ref.csv" \
    | tee "${work}/ref.out"
grep -q '^netem:' "${work}/ref.out" \
    || { echo "FAIL: oracle run never exercised the virtual wire" >&2
         exit 1; }
for t in 1 4; do
    write_plan "storm${t}" "${ticks}" "${storm}" 5
    "${npsim}" --distributed "${work}/storm${t}.plan" --threads "${t}" \
        --record "${work}/storm${t}.csv"
    cmp "${work}/ref.csv" "${work}/storm${t}.csv" \
        || { echo "FAIL: netem distributed CSV differs from the --plan" \
                  "oracle at threads ${t}" >&2; exit 1; }
    echo "OK: threads ${t} is byte-identical to the --plan oracle"
done

echo "=== leg 2: gm<->em partition outliving the lease, then heal ==="
# Dark for 180 ticks — past the 150-tick lease — healed with 200 ticks
# left to recover.
part_ticks=480
write_plan part "${part_ticks}" 'partition gm-em 100 280'
"${npsim}" --distributed "${work}/part.plan" \
    --record "${work}/part.csv" | tee "${work}/part.out"

# degrade: N dropped, N stale, N lease expiries, N fallback steps, ...
degrade="$(grep '^degrade:' "${work}/part.out")"
dropped="$(echo "${degrade}" | sed -n 's/^degrade: \([0-9]*\) dropped.*/\1/p')"
leases="$(echo "${degrade}" | sed -n 's/.*, \([0-9]*\) lease expiries.*/\1/p')"
fallback="$(echo "${degrade}" | sed -n 's/.*, \([0-9]*\) fallback steps.*/\1/p')"
[ -n "${dropped}" ] && [ "${dropped}" -gt 0 ] \
    || { echo "FAIL: no dropped grants in '${degrade}'" >&2; exit 1; }
[ -n "${leases}" ] && [ "${leases}" -gt 0 ] \
    || { echo "FAIL: no lease expiries in '${degrade}'" >&2; exit 1; }
[ -n "${fallback}" ] && [ "${fallback}" -gt 0 ] \
    || { echo "FAIL: no fallback steps in '${degrade}'" >&2; exit 1; }

# netem: N delayed, N late, N expired, N partition drops, ...
netem="$(grep '^netem:' "${work}/part.out")"
pdrops="$(echo "${netem}" | sed -n 's/.*, \([0-9]*\) partition drops.*/\1/p')"
[ -n "${pdrops}" ] && [ "${pdrops}" -gt 0 ] \
    || { echo "FAIL: no partition drops in '${netem}'" >&2; exit 1; }

# Clean recovery: every tick recorded despite the outage.
expected=$((part_ticks - 1))
grep -q "wrote ${expected} samples" "${work}/part.out" \
    || { echo "FAIL: partition run did not record all ${expected}" \
              "samples" >&2; exit 1; }
echo "OK: partition degraded (${dropped} dropped, ${leases} lease" \
     "expiries, ${fallback} fallback steps, ${pdrops} partition" \
     "drops) and healed cleanly"

echo "=== leg 3: SIGKILL the EM rank mid-storm, reconnect, recover ==="
kill_ticks=360
write_plan kill "${kill_ticks}" 'delay * 40 300 1 2' 0 '2@120' 100
"${npsim}" --distributed "${work}/kill.plan" \
    --record "${work}/kill.csv" 2> "${work}/kill.log" \
    | tee "${work}/kill.out"
cat "${work}/kill.log" >&2

grep -q 'killed rank 2' "${work}/kill.log" \
    || { echo "FAIL: supervisor never killed rank 2" >&2; exit 1; }
grep -q 'restarted rank 2' "${work}/kill.log" \
    || { echo "FAIL: rank 2 never reconnected" >&2; exit 1; }
expected=$((kill_ticks - 1))
grep -q "wrote ${expected} samples" "${work}/kill.out" \
    || { echo "FAIL: kill run did not record all ${expected} samples" >&2
         exit 1; }
echo "OK: rank 2 killed mid-storm, reconnected, run recorded in full"

echo "=== netem smoke: all legs passed ==="
