/**
 * @file
 * What one benchmark pass evaluates, and how its cells are checked.
 *
 * A Plan is the request set of one workload, drawn from the seed:
 *
 *  - figures_cold / figures_warm: the §5 request set of
 *    bench_figures_all (Figures 8-11; Tables 2-3 read Figure 8's
 *    cells), with each figure's workload order shuffled by the seed;
 *  - sweep_cache: a real-cache grid at 8 issue / 1 branch whose BTB,
 *    predictor and cache-size values the seed draws from fixed pools.
 *
 * Every priced cell is keyed "<group>/<workload>/<model>", where the
 * group is a figure name or a sweep config label, and checked against
 * golden figures and the interpreter reference run.
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/eval_request.hh"
#include "driver/sweep.hh"
#include "emu/emulator.hh"

namespace perfbench
{

using namespace predilp;

/** One priced cell as the benchmark checks it. */
struct Cell
{
    std::uint64_t baseCycles = 0; ///< 1-issue Superblock denominator.
    std::uint64_t cycles = 0;
    std::uint64_t dynInstrs = 0;
    double speedup = 0;
    /** Program outcome; only paths that see it set hasRun. */
    bool hasRun = false;
    std::int64_t exitValue = 0;
    std::string output;
};

/** Cells keyed "<group>/<workload>/<model>". */
using Cells = std::map<std::string, Cell>;

/** One request of a pass and the group name its cells carry. */
struct NamedRequest
{
    std::string group;
    EvalRequest request;
};

/** The request set of one workload; see file comment. */
struct Plan
{
    /** Evaluator pool threads (1, or every hardware thread). */
    int threads = 1;
    /** Run against a filled artifact store. */
    bool warm = false;
    /** Evaluate through runSweep / evaluateBatch. */
    bool sweep = false;
    /** Phases in order; traces are released between phases. */
    std::vector<std::vector<NamedRequest>> phases;
    /** sweep_cache only: the grid runSweep expands. */
    SweepSpec spec;
    /** Workload inputs, by workload name. */
    std::map<std::string, std::string> inputs;
};

/** Names of the benchmark's workloads. */
const std::vector<std::string> &workloadNames();

/**
 * The request set of @p workload for @p seed; throws FatalError on an
 * unknown workload. Generates every workload input.
 */
Plan makePlan(const std::string &workload, std::uint64_t seed);

/**
 * Every sweep_cache config any seed can draw, as one grid over the
 * full value pools (golden generation prices all of them).
 */
SweepSpec fullSweepSpec();

/** Group label of a sweep config: its BTB, predictor and cache. */
std::string configLabel(const SimConfig &sim);

/** Key of one cell. */
std::string cellKey(const std::string &group, const std::string &workload,
                    Model model);

/** The cells of one evaluated request. */
void addCells(Cells &cells, const std::string &group,
              const EvalResponse &response);

/** The cells of a sweep's canonical "cells" array. */
Cells sweepCells(const SweepSpec &spec, const std::string &cellsJson);

/**
 * Interpreter reference run (frontend + classical optimization,
 * EmuBackend::Interp) of every workload on its plan input.
 */
std::map<std::string, RunResult>
referenceRuns(const std::map<std::string, std::string> &inputs);

/** Golden cells: base cycles, cycles, dynamic instructions, speedup. */
using Golden = std::map<std::string, Cell>;

/** Read a golden file written by writeGolden(). */
Golden readGolden(const std::string &path);

/** Write @p cells as a golden file. */
void writeGolden(const std::string &path, const Cells &cells);

/** Outcome of checking a set of cells. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few mismatches, for the log. */
    std::vector<std::string> errors;

    void fail(const std::string &message);
    void merge(const Check &other);
};

/**
 * Check every cell of @p cells: its figures must equal @p golden and,
 * where the cell carries its run, its exit value and output must
 * equal the reference run of its workload.
 */
Check checkCells(const Cells &cells, const Golden &golden,
                 const std::map<std::string, RunResult> &references);

/** Check that two walks over the same plan priced identical cells. */
Check compareCells(const Cells &expected, const Cells &actual);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
