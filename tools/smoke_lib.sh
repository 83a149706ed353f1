# Shared process reaping for the smoke scripts; source it, then call
#
#   smoke_reap_on_exit WORKDIR [HOOK]
#
# A failed or interrupted leg can orphan a supervisor's npsnode children
# (they block at the barrier until their socket timeout), a backgrounded
# npsim daemon or feeder, or an npsfetch stuck on a dead endpoint — and a
# leaked listener socket breaks the next run on the same path. Every
# process a leg spawns carries WORKDIR on its command line (plan paths,
# artifact paths, endpoints), so on any exit the sweep kills whatever
# still names it — excluding this shell, which may name it too —
# escalates to SIGKILL for anything that ignored the first pass, and
# removes the sockets. HOOK, when given, is a function run first, for
# pids the script tracks itself.

smoke_reap() {
    local p
    if [ -n "${smoke_hook}" ]; then
        "${smoke_hook}" || true
    fi
    for p in $(pgrep -f -- "${smoke_work}/" 2>/dev/null || true); do
        [ "${p}" = "$$" ] || kill "${p}" 2>/dev/null || true
    done
    sleep 0.2
    for p in $(pgrep -f -- "${smoke_work}/" 2>/dev/null || true); do
        [ "${p}" = "$$" ] || kill -9 "${p}" 2>/dev/null || true
    done
    rm -f "${smoke_work}"/*.sock
}

smoke_reap_on_exit() { # <workdir> [hook]
    smoke_work="$1"
    smoke_hook="${2:-}"
    trap smoke_reap EXIT INT TERM
}
