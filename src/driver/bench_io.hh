/**
 * @file
 * Bench-harness instrumentation output: human-readable per-phase
 * timing and a machine-readable BENCH_<name>.json per benchmark
 * binary, so the performance trajectory (cycles, speedups, elapsed
 * seconds, cache effectiveness) is trackable across PRs.
 */

#ifndef PREDILP_DRIVER_BENCH_IO_HH
#define PREDILP_DRIVER_BENCH_IO_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "driver/evaluator.hh"
#include "driver/report.hh"

namespace predilp
{

/**
 * A bench or tool binary's main(): run @p body and return its status.
 * An exception escaping it (an invalid PREDILP_* value, a failed
 * cell) prints "<binary>: <message>" to stderr and returns 1.
 */
int benchMain(const char *binary, const std::function<int()> &body);

/** Print compile/emulate/simulate phase totals and cache counters. */
void printPhaseTiming(std::ostream &os, const BenchTiming &timing,
                      double wallSeconds, int threads);

/**
 * The harness timing/cache section of BENCH_*.json as a snapshot:
 * phase seconds, cache counters, emulator-backend counters, store
 * counters, and derived throughput leaves.
 */
StatsSnapshot timingSnapshot(const BenchTiming &timing,
                             double wallSeconds, int threads);

/**
 * One (benchmark, model) cell of BENCH_*.json: the simulator's
 * detailed sim.* counters plus the headline numbers (cycles,
 * dyn_instrs, speedup, ...) as top-level leaves. Shared by
 * writeBenchJson and the sweep driver so both emit identical cell
 * payloads.
 */
StatsSnapshot cellSnapshot(const BenchmarkResult &result, Model model,
                           const SimResult &sim);

/**
 * Write BENCH_<benchName>.json (in the working directory). All
 * numeric payloads are StatsSnapshots rendered by toJson(): the
 * harness timing/cache section, the merged per-pass compiler stats
 * (pass @p compilerStats = SuiteEvaluator::compileStats()), and one
 * snapshot per (benchmark, model) cell combining the headline
 * numbers (cycles, dyn_instrs, speedup, ...) with the simulator's
 * detailed `sim.*` counters.
 * @return the path written.
 */
std::string
writeBenchJson(const std::string &benchName,
               const std::vector<BenchmarkResult> &results,
               const BenchTiming &timing, double wallSeconds,
               int threads,
               const StatsSnapshot &compilerStats = StatsSnapshot());

} // namespace predilp

#endif // PREDILP_DRIVER_BENCH_IO_HH
