#!/usr/bin/env bash
# Run each bench binary twice against a persistent artifact store and
# validate every BENCH_*.json it emits (the StatsSnapshot-serialized
# observability payload) with a strict JSON parser.
#
# Cold pass: enforces the packed-trace perf contract — the throughput
# counters must be present and bytes-per-capture / bytes-per-entry
# must stay under the committed thresholds (the packed 4-byte entry +
# varint delta format sits well below them; the old 8-byte format
# would trip both). A perf-floor miss is recorded, not fatal on the
# spot: the drift gate, warm pass and interp pass still run, and the
# script exits 1 at the end. A shape or identity failure stops it at
# once.
#
# Warm pass: reruns the same binaries against the store populated by
# the cold pass and enforces the store contract — every
# evaluator-driven bench (store.hit + store.result_hit > 0) must
# report zero compiles, zero captures, zero replays (every cell is
# served from its certified record), zero emulation seconds, and
# figure output bit-identical to the cold run.
#
# Interp-backend pass: reruns everything with PREDILP_EMU=interp
# against a separate (cold) store and requires figure output
# bit-identical to the threaded cold pass, so CI catches
# threaded-vs-interp emulation drift the unit suite might miss.
#
# Usage: scripts/bench_json.sh [bench-binary...]; defaults to the
# Figure 8 benchmark plus the replay-, batched-replay-, and
# capture-kernel microbenchmarks. Assumes scripts/tier1.sh already
# built.
# PREDILP_STORE overrides the store location (default
# bench-out/store).
set -euo pipefail
cd "$(dirname "$0")/.."

benches=("$@")
if [ "${#benches[@]}" -eq 0 ]; then
    benches=(bench_fig08_issue8_br1 bench_replay_hot bench_replay_batch bench_capture_hot)
fi

mkdir -p bench-out
export PREDILP_STORE="${PREDILP_STORE:-$PWD/bench-out/store}"
export PREDILP_STORE_MODE="${PREDILP_STORE_MODE:-rw}"
cd bench-out

# Under fault injection the perf floors are meaningless (delay
# faults inflate wall time, store quarantine re-emulates on purpose),
# so skip them and the warm zero-work counters — but keep every
# shape check and every bit-identity contract: injected faults must
# never change the figures.
if [ -n "${PREDILP_FAULTS:-}" ]; then
    echo "== PREDILP_FAULTS='${PREDILP_FAULTS}': perf floors and" \
        "warm zero-work counters skipped; identity checks kept =="
fi

run_benches() {
    for bench in "${benches[@]}"; do
        "../build/bench/${bench}"
    done
}

# Move the previous run's certified result records (if any) out of
# the store, so the drift gate below can compare the two runs cell by
# cell. Moved, not copied: the evaluator serves warm cells from these
# records, so leaving them in place would make the cold pass echo
# the old figures back instead of re-pricing every cell on the cached
# traces, and the gate could never see cycle-model drift.
rm -rf results-before
if [ -d "${PREDILP_STORE}/results" ]; then
    mv "${PREDILP_STORE}/results" results-before
fi

# Validate only what this run emits: a BENCH_*.json left in
# bench-out by another script (e.g. sweep_ci.sh's BENCH_sweep*.json)
# would otherwise be checked against contracts it was never run
# under.
rm -f BENCH_*.json

echo "== cold pass (store: ${PREDILP_STORE}) =="
run_benches

shopt -s nullglob
jsons=(BENCH_*.json)
if [ "${#jsons[@]}" -eq 0 ]; then
    echo "error: no BENCH_*.json produced" >&2
    exit 1
fi
for json in "${jsons[@]}"; do
    python3 -m json.tool "${json}" > /dev/null
    echo "ok: ${json}"
done

# Exit status 2 means only perf floors failed (see the top of this
# script); any other nonzero status is fatal.
floors_failed=0
cold_status=0
python3 - "${jsons[@]}" <<'EOF' || cold_status=$?
import json
import os
import sys

# Perf floors only bind on fault-free runs; see the PREDILP_FAULTS
# note at the top of this script.
FLOORS = not os.environ.get("PREDILP_FAULTS")

# Committed thresholds for the packed trace format. Baselines on the
# old 8-byte format: ~4.2 MB/capture and ~10.8 B/entry; the packed
# format measures ~1.9 MB/capture and ~4.9 B/entry.
MAX_TRACE_BYTES_PER_CAPTURE = 3_000_000
MAX_TRACE_BYTES_PER_ENTRY = 6.0

# Floors for the capture-kernel microbenchmark (the only bench that
# reports speedup_vs_interp). The threaded backend measures
# ~140-180 Mrec/s capture and ~2.5-3x over the interpreter on the dev
# box; the floors sit far enough below that container noise cannot
# trip them, while a regression to interpreter-level dispatch
# (~55 Mrec/s, 1.0x) trips both.
MIN_EMULATE_RECORDS_PER_SEC = 60_000_000
MIN_CAPTURE_SPEEDUP_VS_INTERP = 1.5

# Floors for the replay kernels (benches reporting replay_passes —
# the evaluator-driven benches time whole phases, not the kernel).
# The baked static-op metadata table measures ~63-68 Mrec/s
# single-config on the dev box; the pre-table path measured
# ~36 Mrec/s, so the floor catches a regression to per-record
# StaticOp re-derivation (the committed >=1.3x table win) while
# sitting clear of container noise.
MIN_REPLAY_RECORDS_PER_SEC = 45_000_000

# Amortized per-config floor for the batched-replay kernel: the
# acceptance batch mixes real-cache and narrow-machine configs, so
# per-config throughput sits well below the perfect-cache
# single-config rate (~7 Mrec/s measured serially on the dev box).
MIN_REPLAY_BATCH_PER_CONFIG = 4_000_000

# Aggregate batch speedup vs pricing the same configs with
# sequential replay() calls. The committed contract is >=3x at batch
# 8, delivered by spreading one lane per pool thread — so it is only
# enforceable where the pool actually has threads to spread over.
# With fewer than 4 threads the floor degrades to "batching must not
# meaningfully lose to sequential": serial amortization alone
# measures ~1.05-1.15x on a 1-core container, with ~10% run-to-run
# noise even under best-of-5 timing, so the serial floor sits just
# below parity.
MIN_BATCH_SPEEDUP_PARALLEL = 3.0
MIN_BATCH_SPEEDUP_SERIAL = 0.9

failed = False
floor_failed = False


def fail(msg):
    global failed
    failed = True
    print(f"error: {msg}", file=sys.stderr)


def floor_fail(msg):
    global floor_failed
    if FLOORS:
        floor_failed = True
        print(f"error: perf floor: {msg}", file=sys.stderr)
    else:
        print(f"skip (faults armed): {msg}")


for path in sys.argv[1:]:
    with open(path) as f:
        timing = json.load(f)["timing"]
    counters = timing.get("counters", {})
    throughput = timing.get("throughput", {})
    store_hits = timing.get("store", {}).get("hit", 0)

    replays = counters.get("replays", counters.get("replay_passes", 0))
    if replays and "replay_records_per_sec" not in throughput:
        fail(f"{path}: missing throughput.replay_records_per_sec")

    if counters.get("replay_passes", 0):
        rps = throughput.get("replay_records_per_sec", 0.0)
        if rps < MIN_REPLAY_RECORDS_PER_SEC:
            floor_fail(f"{path}: replay_records_per_sec {rps:.3g} below "
                 f"floor {MIN_REPLAY_RECORDS_PER_SEC:.3g}")
        else:
            print(f"ok: {path} replay_records_per_sec {rps:.3g} "
                  f">= {MIN_REPLAY_RECORDS_PER_SEC:.3g}")

    if "replay_batch_records_per_sec_per_config" in throughput:
        per_config = throughput["replay_batch_records_per_sec_per_config"]
        if per_config < MIN_REPLAY_BATCH_PER_CONFIG:
            floor_fail(f"{path}: replay_batch_records_per_sec_per_config "
                 f"{per_config:.3g} below floor "
                 f"{MIN_REPLAY_BATCH_PER_CONFIG:.3g}")
        else:
            print(f"ok: {path} replay_batch per-config {per_config:.3g} "
                  f">= {MIN_REPLAY_BATCH_PER_CONFIG:.3g}")
        threads = counters.get("pool_threads", 1)
        floor = (MIN_BATCH_SPEEDUP_PARALLEL if threads >= 4
                 else MIN_BATCH_SPEEDUP_SERIAL)
        speedup = throughput.get("batch_speedup_vs_sequential", 0.0)
        if speedup < floor:
            floor_fail(f"{path}: batch_speedup_vs_sequential {speedup:.2f} "
                 f"below floor {floor} ({threads} pool threads)")
        else:
            print(f"ok: {path} batch_speedup_vs_sequential "
                  f"{speedup:.2f} >= {floor} ({threads} pool threads)")

    records = counters.get("captured_records",
                           counters.get("trace_records", 0))
    if records:
        if "trace_bytes_per_entry" not in throughput:
            fail(f"{path}: missing throughput.trace_bytes_per_entry")
        else:
            bpe = throughput["trace_bytes_per_entry"]
            if bpe > MAX_TRACE_BYTES_PER_ENTRY:
                floor_fail(f"{path}: trace_bytes_per_entry {bpe:.2f} exceeds "
                     f"threshold {MAX_TRACE_BYTES_PER_ENTRY}")
    elif not store_hits:
        # A bench that neither captured nor loaded traces did no
        # trace work at all; the threshold checks are vacuous.
        pass

    if "speedup_vs_interp" in throughput:
        rps = throughput.get("emulate_records_per_sec", 0.0)
        if rps < MIN_EMULATE_RECORDS_PER_SEC:
            floor_fail(f"{path}: emulate_records_per_sec {rps:.3g} below "
                 f"floor {MIN_EMULATE_RECORDS_PER_SEC:.3g}")
        else:
            print(f"ok: {path} emulate_records_per_sec {rps:.3g} "
                  f">= {MIN_EMULATE_RECORDS_PER_SEC:.3g}")
        speedup = throughput["speedup_vs_interp"]
        if speedup < MIN_CAPTURE_SPEEDUP_VS_INTERP:
            floor_fail(f"{path}: capture speedup_vs_interp {speedup:.2f} below "
                 f"floor {MIN_CAPTURE_SPEEDUP_VS_INTERP}")
        else:
            print(f"ok: {path} speedup_vs_interp {speedup:.2f} "
                  f">= {MIN_CAPTURE_SPEEDUP_VS_INTERP}")

    captures = counters.get("captures", 0)
    captured_bytes = counters.get("captured_bytes", 0)
    if captures and captured_bytes:
        per_capture = captured_bytes / captures
        if per_capture > MAX_TRACE_BYTES_PER_CAPTURE:
            floor_fail(f"{path}: {per_capture:.0f} trace bytes/capture exceeds "
                 f"threshold {MAX_TRACE_BYTES_PER_CAPTURE}")
        else:
            print(f"ok: {path} trace bytes/capture {per_capture:.0f} "
                  f"<= {MAX_TRACE_BYTES_PER_CAPTURE}")

sys.exit(1 if failed else 2 if floor_failed else 0)
EOF
case "${cold_status}" in
    0) ;;
    2)
        floors_failed=1
        echo "== perf floors failed; running the remaining passes =="
        ;;
    *) exit "${cold_status}" ;;
esac

# Certified drift gate: join this run's certified records against the
# archived previous run by provenance identity. Cells whose digests
# moved are explained; a cell with identical provenance but different
# figures is unexplained drift and fails the build (predilp_diff
# exits 1). First run on a fresh store just seeds the baseline.
if [ -d results-before ] && [ -d "${PREDILP_STORE}/results" ]; then
    echo "== certified drift gate (vs previous run) =="
    ../build/tools/predilp_diff --before results-before \
        --after "${PREDILP_STORE}/results"
else
    echo "== certified drift gate: no previous results; seeding =="
fi

# Stash the cold JSONs, then rerun against the now-populated store.
mkdir -p cold
for json in "${jsons[@]}"; do
    cp "${json}" "cold/${json}"
done

echo "== warm pass =="
run_benches

python3 - "${jsons[@]}" <<'EOF'
import json
import os
import sys

# Injected faults legitimately break the warm zero-work contract
# (quarantine-and-recompute re-emulates on purpose); the figure
# bit-identity contract below still binds.
ZERO_WORK = not os.environ.get("PREDILP_FAULTS")

failed = False


def fail(msg):
    global failed
    failed = True
    print(f"error: {msg}", file=sys.stderr)


def zero_work_fail(msg):
    if ZERO_WORK:
        fail(msg)
    else:
        print(f"skip (faults armed): {msg}")


asserted = 0
for path in sys.argv[1:]:
    with open(path) as f:
        warm = json.load(f)
    timing = warm["timing"]
    store = timing.get("store", {})
    # A warm evaluator serves cells from their certified records
    # (result_hit) and loads traces (hit) only for cells it has to
    # replay; either one means the bench exercised the store.
    if store.get("hit", 0) + store.get("result_hit", 0) == 0:
        # Not evaluator-driven (e.g. the replay-kernel
        # microbenchmark bypasses the cache tiers): no store
        # contract to enforce.
        print(f"skip: {path} (no store hits)")
        continue
    asserted += 1

    counters = timing.get("counters", {})
    phases = timing.get("phases", {})
    if counters.get("replays", 0) != 0:
        zero_work_fail(f"{path}: warm run replayed "
                       f"({counters['replays']} replays)")
    if store.get("miss", 0) != 0:
        zero_work_fail(f"{path}: warm run missed the store "
                       f"({store['miss']} misses)")
    if counters.get("compiles", 0) != 0:
        zero_work_fail(f"{path}: warm run compiled "
                       f"({counters['compiles']} compiles)")
    if counters.get("captures", 0) != 0:
        zero_work_fail(f"{path}: warm run emulated "
                       f"({counters['captures']} captures)")
    if phases.get("emulate_seconds", 0.0) != 0.0:
        zero_work_fail(f"{path}: warm run spent "
                       f"{phases['emulate_seconds']}s in emulation")

    with open(f"cold/{path}") as f:
        cold = json.load(f)
    if warm["benchmarks"] != cold["benchmarks"]:
        fail(f"{path}: warm figure output differs from cold run")
    else:
        print(f"ok: {path} warm == cold "
              f"({store.get('result_hit', 0)} result hits, "
              f"{store['hit']} store hits, 0 emulations)")

if asserted == 0:
    fail("no bench exercised the artifact store")
sys.exit(1 if failed else 0)
EOF

# Interp-backend pass: force the interpreter backend against a
# separate, empty store so every evaluator bench actually re-captures
# with the interpreter, then require figure output bit-identical to
# the threaded cold pass. Catches threaded-vs-interp emulation drift.
echo "== interp-backend pass (figures drift check) =="
export PREDILP_EMU=interp
export PREDILP_STORE="${PREDILP_STORE}-interp"
rm -rf "${PREDILP_STORE}"
run_benches

python3 - "${jsons[@]}" <<'EOF'
import json
import sys

failed = False


def fail(msg):
    global failed
    failed = True
    print(f"error: {msg}", file=sys.stderr)


asserted = 0
for path in sys.argv[1:]:
    with open(path) as f:
        interp = json.load(f)
    if "benchmarks" not in interp:
        # Kernel microbenchmarks carry no figure output; the
        # capture kernel checks interp-vs-threaded bit-identity
        # internally on every pass.
        print(f"skip: {path} (no figure output)")
        continue
    asserted += 1

    emu = interp["timing"].get("emu", {})
    threaded_runs = emu.get("backend", {}).get("threaded", 0)
    if threaded_runs != 0:
        fail(f"{path}: interp pass still used the threaded backend "
             f"({threaded_runs} runs)")
    if emu.get("records", {}).get("interp", 0) == 0:
        fail(f"{path}: interp pass captured no interpreter records")

    with open(f"cold/{path}") as f:
        cold = json.load(f)
    if interp["benchmarks"] != cold["benchmarks"]:
        fail(f"{path}: interpreter-backend figure output differs "
             f"from threaded cold run")
    else:
        print(f"ok: {path} interp figures == threaded figures")

if asserted == 0:
    fail("no bench produced figure output for the backend check")
sys.exit(1 if failed else 0)
EOF

if [ "${floors_failed}" -ne 0 ]; then
    echo "error: cold-pass perf floors failed (see above)" >&2
    exit 1
fi
