#!/usr/bin/env bash
# Fault-injection matrix for the in-process sweep and the artifact
# store (src/support/faultpoint.hh, DESIGN.md §6j).
#
# Baseline pass: runs a small grid fault-free against a fresh store
# and records the "cells" array as ground truth.
#
# Matrix pass: every registered fault point (discovered via
# predilp_sweep --list-fault-points) must be classified in the
# explicit table below; an unlisted point fails the script, so a new
# point can never dodge CI. Every point is armed `<point>=once`, in
# one of two classes:
#   heal  the store heals it inside the one run: exit 0 and a cells
#         array byte-identical to the baseline.
#   loud  the fault propagates (the evaluator retries nothing):
#         non-zero exit with stderr naming the point, after which a
#         disarmed re-run converges to the baseline bytes.
#
# Crash pass: SIGKILL inside the store's publish window (temp file
# staged, canonical path untouched). The sweep must die by SIGKILL,
# and a disarmed re-run on the same store must converge. Short-write
# cases tear an artifact or a certified record at half length and
# must heal in one run.
#
# Serve-no-corruption pass: after the whole matrix has battered the
# store, one disarmed run republishes anything a torn publish left
# behind, then a warm run must do zero compiles, zero captures and
# zero replays and still produce the baseline bytes, and
# `predilp_diff --verify` must pass on the store.
#
# Usage: scripts/fault_ci.sh. Assumes scripts/tier1.sh already built.
set -euo pipefail
cd "$(dirname "$0")/.."

SWEEP=build/tools/predilp_sweep
OUT=bench-out/fault-ci
rm -rf "${OUT}"
mkdir -p "${OUT}"
export PREDILP_STORE="${PWD}/${OUT}/store"
export PREDILP_STORE_MODE=rw

cat > "${OUT}/grid.json" <<'EOF'
{
  "workloads": ["cmp"],
  "axes": {"issue_width": [4, 8]}
}
EOF

# classify POINT: the class of every registered point ("heal" or
# "loud"). An unlisted point prints nothing.
classify() {
    case "$1" in
        store.publish.write | store.publish.rename | \
        store.publish.result | store.load.mmap | store.load.validate)
            echo heal ;; # quarantine / recompute in the store
        eval.compile | eval.replay.batch)
            echo loud ;; # strict evaluator rethrows
    esac
}

# sweep REPORT: run the grid into REPORT under the current env.
sweep() {
    "${SWEEP}" --spec "${OUT}/grid.json" --out "$1"
}

# dump_cells REPORT OUT: write REPORT's canonical cells array to OUT.
dump_cells() {
    python3 - "$1" "$2" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
with open(sys.argv[2], "w") as f:
    json.dump(report["cells"], f, sort_keys=True)
PYEOF
}

# expect_baseline NAME REPORT: REPORT's cells equal the baseline's.
expect_baseline() {
    dump_cells "$2" "${OUT}/cells.json"
    if ! cmp -s "${OUT}/cells.json" "${OUT}/baseline_cells.json"; then
        echo "error: $1: cells differ from fault-free baseline" >&2
        diff "${OUT}/baseline_cells.json" "${OUT}/cells.json" >&2 || true
        exit 1
    fi
    echo "ok: $1 converged to baseline cells"
}

# heal_case NAME SPEC: SPEC armed, the run exits 0 with baseline cells.
heal_case() {
    echo "== heal case: $1 (${2:-disarmed}) =="
    PREDILP_FAULTS="$2" sweep "${OUT}/report.json"
    expect_baseline "$1" "${OUT}/report.json"
}

# converge NAME: a disarmed re-run on the same store converges.
converge() {
    PREDILP_FAULTS="" sweep "${OUT}/report.json"
    expect_baseline "$1 (disarmed re-run)" "${OUT}/report.json"
}

# loud_case POINT SPEC: SPEC armed, the run fails naming POINT.
loud_case() {
    local point="$1" spec="$2" status=0
    echo "== loud case: ${point} (${spec}) =="
    PREDILP_FAULTS="${spec}" sweep "${OUT}/report.json" \
        2> "${OUT}/stderr.txt" || status=$?
    if [ "${status}" -eq 0 ]; then
        echo "error: ${point}: armed run exited 0" >&2
        exit 1
    fi
    if ! grep -qxF "predilp_sweep: injected fault at ${point}" \
            "${OUT}/stderr.txt"; then
        echo "error: ${point}: stderr does not name the point:" >&2
        cat "${OUT}/stderr.txt" >&2
        exit 1
    fi
    echo "ok: ${point} failed loudly (exit ${status})"
    converge "${point}"
}

# crash_case NAME SPEC: SPEC armed, the sweep dies by SIGKILL.
crash_case() {
    local status=0
    echo "== crash case: $1 ($2) =="
    PREDILP_FAULTS="$2" sweep "${OUT}/report.json" || status=$?
    if [ "${status}" -ne 137 ]; then
        echo "error: $1: exit ${status}, expected SIGKILL (137)" >&2
        exit 1
    fi
    echo "ok: $1 died by SIGKILL"
    converge "$1"
}

echo "== baseline pass (store: ${PREDILP_STORE}) =="
sweep "${OUT}/baseline.json"
dump_cells "${OUT}/baseline.json" "${OUT}/baseline_cells.json"

points=$("${SWEEP}" --list-fault-points)
if [ -z "${points}" ]; then
    echo "error: --list-fault-points returned nothing" >&2
    exit 1
fi
echo "== matrix pass ($(echo "${points}" | wc -l) registered points) =="
while IFS= read -r point; do
    class=$(classify "${point}")
    if [ -z "${class}" ]; then
        echo "error: fault point '${point}' is not classified in" \
             "scripts/fault_ci.sh" >&2
        exit 1
    fi
    # The load-side points need the warm store's traces (they fire
    # on real artifact loads), but not its certified records: those
    # would serve every cell before any trace is loaded, so they go
    # and each cell is re-priced off a loaded trace. Everything else
    # gets a cold store so compile, capture, and publish actually run
    # and the armed point bites.
    case "${point}" in
        store.load.*) rm -rf "${PREDILP_STORE}/results" ;;
        *) rm -rf "${PREDILP_STORE}" ;;
    esac
    if [ "${class}" = heal ]; then
        heal_case "throw ${point}" "${point}=once"
    else
        loud_case "${point}" "${point}=once"
    fi
done <<< "${points}"

echo "== crash pass =="
# Cold stores so each publish actually happens.
for point in store.publish.write store.publish.rename \
        store.publish.result; do
    rm -rf "${PREDILP_STORE}"
    crash_case "${point} killed mid-publish" "${point}=once:crash"
done
# Artifact payload truncated at half length before publish; load
# validation must quarantine and recompute the torn artifact, never
# serve it.
rm -rf "${PREDILP_STORE}"
heal_case "truncated artifact publish" \
    "store.publish.write=once:short-write"
# Certified result record torn at half length: the record fails its
# seal on read and the next evaluation republishes it; figures never
# change.
rm -rf "${PREDILP_STORE}"
heal_case "torn certified result publish" \
    "store.publish.result=once:short-write"

echo "== serve-no-corruption pass =="
# A torn publish may still be sitting in the store; one disarmed run
# is allowed to quarantine and recompute it...
heal_case "healing run" ""
# ...after which the warm run must find only good artifacts and
# records: zero compiles, zero captures, zero replays, baseline bytes.
heal_case "warm run" ""
python3 - "${OUT}/report.json" <<'PYEOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    counters = json.load(f)["timing"]["counters"]
for key in ("compiles", "captures", "replays"):
    if counters.get(key, 0) != 0:
        sys.exit(f"error: warm run after fault matrix did new work "
                 f"({counters[key]} {key}) — a corrupt artifact or "
                 f"certified record survived in the store")
print("ok: warm store serves only validated artifacts and records "
      "(0 compiles, 0 captures, 0 replays)")
PYEOF

# ...and the whole store must pass the provenance contract: every
# artifact parses and every certified record passes its seal. Anything the fault matrix tore
# must have been healed, not left behind.
build/tools/predilp_diff --verify "${PREDILP_STORE}"

echo "fault-ci: all cases converged byte-identically"
