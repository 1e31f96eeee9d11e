/**
 * @file
 * Scenario-sweep grid driver. A declarative SweepSpec — a base
 * EvalRequest plus ordered value lists for the paper's hardware axes
 * (issue width, BTB entries/associativity/predictor, cache size/line/
 * associativity/penalty, perfect-vs-real caches) — expands into the
 * full cross product of SweepCells, each a complete, serializable
 * EvalRequest.
 *
 * runSweep() prices the whole grid in-process with one
 * SuiteEvaluator::evaluateBatch call on the evaluator's thread pool
 * (sized by PREDILP_THREADS, else the hardware count). evaluateBatch
 * groups cells by trace key, so every captured trace is streamed
 * once for all of the configs that replay it. With PREDILP_STORE set
 * the evaluator shares captured traces through the flock-safe
 * ArtifactStore, so a warm re-run of the same grid performs zero
 * compiles and zero captures — also when several sweep processes
 * race on one store. The result is one consolidated BENCH_sweep.json
 * with the cells in grid order plus a per-axis crossover summary
 * (where full predication's mean speedup overtakes the
 * partial-predication Cond. Move model).
 *
 * Determinism: the cells array is a pure function of the grid, byte-
 * identical for every pool size, because evaluateBatch assembles
 * responses by index and cells are rendered through JsonValue's
 * canonical dump.
 */

#ifndef PREDILP_DRIVER_SWEEP_HH
#define PREDILP_DRIVER_SWEEP_HH

#include <string>
#include <utility>
#include <vector>

#include "driver/eval_request.hh"
#include "driver/evaluator.hh"
#include "support/diag.hh"
#include "support/json.hh"

namespace predilp
{

/** One ordered sweep axis: name plus the values to sweep. */
struct SweepAxis
{
    std::string name;
    std::vector<JsonValue> values;
};

/** One expanded grid cell. */
struct SweepCell
{
    /** Row-major position; the first listed axis varies slowest. */
    std::size_t index = 0;
    /** The fully resolved request (base + this cell's axis values). */
    EvalRequest request;
    /** This cell's (axis name, value) coordinates, in axis order. */
    std::vector<std::pair<std::string, JsonValue>> axisValues;
};

/** A declarative sweep grid; see file comment. */
struct SweepSpec
{
    /**
     * The request template: workloads, models, ablation, scale, and
     * the SimConfig every axis modifies (spec key "base").
     */
    EvalRequest base;

    /**
     * Axes in declaration order (order is semantic: the first listed
     * axis varies slowest in the expanded grid).
     */
    std::vector<SweepAxis> axes;

    /**
     * Parse a grid spec. Top-level keys: "workloads", "models",
     * "ablation", "scale", "base" (a SimConfig object), "axes" (an
     * object mapping axis name -> non-empty value array). Unknown
     * top-level keys and unknown axis names throw FatalError.
     */
    static SweepSpec fromJson(const JsonValue &json);

    /** Known axis names (for diagnostics and validation). */
    static const std::vector<std::string> &knownAxes();

    /** Cross product of all axes, row-major; no axes = one cell. */
    std::vector<SweepCell> expandGrid() const;
};

/** What one sweep run produced. */
struct SweepOutcome
{
    std::size_t cells = 0;
    /** Threads in the evaluator pool that priced the grid. */
    int threads = 1;
    /** The evaluator's timing for the whole grid. */
    BenchTiming timing;
    /**
     * The dumped "cells" array — the determinism surface: equal for
     * every pool size on the same grid and tree.
     */
    std::string cellsJson;
    /** Path of the consolidated report written ("" = not written). */
    std::string path;
};

/**
 * Price every cell of @p spec in-process and write the consolidated
 * report to @p outPath ("" skips the file). Arms PREDILP_FAULTS
 * (once per process) first. The evaluator runs its strict policy and
 * retries nothing: the first failed cell's exception propagates as
 * its typed error, and no report is written.
 */
SweepOutcome runSweep(const SweepSpec &spec,
                      const std::string &outPath = "");

/**
 * The retired (workers, batch) signature, kept only for the
 * benchmark harness under perfbench/, which calls runSweep(spec, 1,
 * "", true). Forwards exactly that call shape and throws FatalError
 * for any other. Delete it when that harness moves to the
 * two-argument form.
 */
inline SweepOutcome
runSweep(const SweepSpec &spec, int workers,
         const std::string &outPath, bool batch)
{
    if (workers != 1 || !batch) {
        throw FatalError("runSweep: sweeps run in-process and batched "
                         "only (workers must be 1, batch true)");
    }
    return runSweep(spec, outPath);
}

} // namespace predilp

#endif // PREDILP_DRIVER_SWEEP_HH
