#!/usr/bin/env bash
# Exercise the in-process scenario-sweep driver end to end and
# validate its consolidated report.
#
# Cold pass: runs a small grid (2 x 2 x 2 over the cheapest workload)
# on a 4-thread pool against the artifact store, then checks the
# BENCH_sweep.json shape — cell_count matches, cell indices are
# exactly 0..n-1 (no duplicates, no holes), every cell carries axes /
# digests / per-model figures, the timing section records the pool
# size, and the crossover summary covers every axis.
#
# Determinism pass: re-runs the same grid on a 1-thread pool (fresh
# store) and requires the "cells" array to be byte-identical to the
# 4-thread run's — the sweep's determinism contract. (Batched vs
# cell-by-cell identity is pinned by the evaluator's own tests.)
#
# Warm pass: re-runs the sweep against the store the cold pass
# populated and requires zero compiles, zero captures and zero
# replays: every cell must be served from its certified record.
#
# Usage: scripts/sweep_ci.sh. Assumes scripts/tier1.sh already built.
# PREDILP_STORE overrides the store location (default
# bench-out/sweep-store).
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p bench-out
export PREDILP_STORE="${PREDILP_STORE:-$PWD/bench-out/sweep-store}"
export PREDILP_STORE_MODE="${PREDILP_STORE_MODE:-rw}"
cd bench-out

cat > sweep_grid.json <<'EOF'
{
  "workloads": ["cmp"],
  "axes": {
    "issue_width": [4, 8],
    "btb_entries": [256, 1024],
    "perfect_caches": [true, false]
  }
}
EOF

echo "== cold pass, 4 threads (store: ${PREDILP_STORE}) =="
PREDILP_THREADS=4 ../build/tools/predilp_sweep --spec sweep_grid.json \
    --out BENCH_sweep.json

python3 - BENCH_sweep.json <<'EOF'
import json
import sys

failed = False


def fail(msg):
    global failed
    failed = True
    print(f"error: {msg}", file=sys.stderr)


path = sys.argv[1]
with open(path) as f:
    report = json.load(f)

if report.get("bench") != "sweep":
    fail(f"{path}: bench key is {report.get('bench')!r}, not 'sweep'")

cells = report.get("cells", [])
cell_count = report.get("cell_count")
if cell_count != len(cells):
    fail(f"{path}: cell_count {cell_count} != len(cells) {len(cells)}")
if cell_count != 8:
    fail(f"{path}: expected the 2x2x2 grid's 8 cells, got {cell_count}")
threads = report.get("timing", {}).get("threads")
if threads != 4:
    fail(f"{path}: timing.threads is {threads}, expected the pool's 4")

# Completeness: indices must be exactly 0..n-1 — a duplicate or a
# missing cell is a grid-assembly bug.
indices = [cell.get("index") for cell in cells]
if sorted(indices) != list(range(len(cells))):
    dupes = sorted({i for i in indices if indices.count(i) > 1})
    missing = sorted(set(range(len(cells))) - set(indices))
    fail(f"{path}: bad cell indices (duplicates {dupes}, "
         f"missing {missing})")
if indices != sorted(indices):
    fail(f"{path}: cells not in grid order: {indices}")

for cell in cells:
    index = cell.get("index")
    for key in ("axes", "request_digest", "config_digest",
                "benchmarks"):
        if key not in cell:
            fail(f"{path}: cell {index} missing '{key}'")
    for digest_key in ("request_digest", "config_digest"):
        if not str(cell.get(digest_key, "")).startswith("v1:"):
            fail(f"{path}: cell {index} has unversioned "
                 f"{digest_key}")
    for bench in cell.get("benchmarks", []):
        models = bench.get("models", {})
        for model in ("superblock", "cond_move", "full_pred"):
            if model not in models:
                fail(f"{path}: cell {index} benchmark "
                     f"{bench.get('name')!r} missing model "
                     f"{model!r}")
            elif "speedup" not in models[model]:
                fail(f"{path}: cell {index} model {model!r} "
                     f"missing speedup")

crossover = report.get("crossover", [])
spec_axes = {"issue_width", "btb_entries", "perfect_caches"}
summarized = {entry.get("axis") for entry in crossover}
if summarized != spec_axes:
    fail(f"{path}: crossover summarizes {sorted(summarized)}, "
         f"expected {sorted(spec_axes)}")
for entry in crossover:
    if not entry.get("points"):
        fail(f"{path}: crossover axis {entry.get('axis')!r} has no "
             f"points")

if not failed:
    print(f"ok: {path} shape valid ({cell_count} cells, "
          f"{len(crossover)} crossover axes)")
sys.exit(1 if failed else 0)
EOF

echo "== determinism pass (1 thread, fresh store) =="
PREDILP_THREADS=1 PREDILP_STORE="${PREDILP_STORE}-seq" \
    ../build/tools/predilp_sweep --spec sweep_grid.json \
    --out BENCH_sweep_seq.json
rm -rf "${PREDILP_STORE}-seq"

python3 - BENCH_sweep.json BENCH_sweep_seq.json <<'EOF'
import json
import sys

parallel_path, serial_path = sys.argv[1:3]
with open(parallel_path) as f:
    parallel = json.load(f)
with open(serial_path) as f:
    serial = json.load(f)
if parallel["cells"] != serial["cells"]:
    print("error: 4-thread cells differ from the 1-thread run",
          file=sys.stderr)
    sys.exit(1)
print("ok: 4-thread cells identical to 1-thread run")
EOF

echo "== warm pass =="
../build/tools/predilp_sweep --spec sweep_grid.json \
    --out BENCH_sweep_warm.json

python3 - BENCH_sweep_warm.json BENCH_sweep.json <<'EOF'
import json
import sys

failed = False


def fail(msg):
    global failed
    failed = True
    print(f"error: {msg}", file=sys.stderr)


warm_path, cold_path = sys.argv[1:3]
with open(warm_path) as f:
    warm = json.load(f)
timing = warm.get("timing", {})
counters = timing.get("counters", {})
store = timing.get("store", {})
if counters.get("compiles", 0) != 0:
    fail(f"{warm_path}: warm sweep compiled "
         f"({counters['compiles']} compiles)")
if counters.get("captures", 0) != 0:
    fail(f"{warm_path}: warm sweep emulated "
         f"({counters['captures']} captures)")
if counters.get("replays", 0) != 0:
    fail(f"{warm_path}: warm sweep replayed "
         f"({counters['replays']} replays)")
if store.get("result_hit", 0) == 0:
    fail(f"{warm_path}: warm sweep served no certified records")

with open(cold_path) as f:
    cold = json.load(f)
if warm["cells"] != cold["cells"]:
    fail(f"{warm_path}: warm cells differ from cold run")

if not failed:
    print(f"ok: warm sweep did no new work "
          f"({store.get('result_hit', 0)} result hits, 0 compiles, "
          f"0 captures, 0 replays)")
sys.exit(1 if failed else 0)
EOF
