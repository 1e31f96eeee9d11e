/**
 * @file
 * The traced walk: the work SuiteEvaluator does for a Plan, redone
 * call by call through the library's public entry points
 * (compilePrefix, compileFromSnapshot, DecodedProgram, captureDecoded,
 * runReference, replay, replayBatch, ArtifactStore::load/save/
 * saveResult) with a span around each call. It keeps the evaluator's
 * caches and keys — front-end snapshot per workload, decoded program
 * and trace per compile identity, priced result per config, traces
 * released between phases, sweeps planned and priced trace-major as
 * evaluateBatch does — so it performs the same compiles, captures,
 * replays and store traffic as an untraced pass, and a warm walk hits
 * the store entries an evaluator published. Spans never nest, so a
 * span's duration is its layer's self time; the untimed remainder of
 * a walk is the evaluator layer's own work (planning, caches,
 * futures, assembly), reported as driver.overhead_s.
 */

#ifndef PERFBENCH_WALK_HH
#define PERFBENCH_WALK_HH

#include <string>
#include <vector>

#include "plan.hh"
#include "store/store.hh"
#include "support/stats_registry.hh"

namespace perfbench
{

/** One timed call into a layer. */
struct Span
{
    std::string name; ///< layer.call, e.g. compile.model, sim.replay.
    double start = 0; ///< seconds since the walk began.
    double end = 0;
    /** Records captured, or replayed summed over configs. */
    std::uint64_t records = 0;
    std::uint64_t configs = 0;   ///< configs priced by a replay span.
    bool realCaches = false;     ///< a replay span priced real caches.
    std::uint64_t bytes = 0;     ///< bytes a store span moved.

    double seconds() const { return end - start; }
};

/** What one traced walk measured. */
struct WalkResult
{
    Cells cells;
    double wall = 0;
    std::vector<Span> spans;
    /** Pass counters and timers of every compile in the walk. */
    StatsSnapshot passStats;
    std::uint64_t resultHits = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    /** Captures whose program outcome differed from runReference. */
    std::uint64_t divergences = 0;
};

/**
 * Walk @p plan; see file comment. With @p store, traces are loaded
 * from it before compiling and, in read-write mode, captures and
 * certified records are published to it as the evaluator does.
 */
WalkResult tracedWalk(const Plan &plan, ArtifactStore *store);

} // namespace perfbench

#endif // PERFBENCH_WALK_HH
