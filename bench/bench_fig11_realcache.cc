/**
 * @file
 * Reproduces Figure 11: 8-issue, 1-branch processor with real 64K
 * direct-mapped instruction and data caches (64-byte blocks, 12-cycle
 * miss penalty, write-through / no-write-allocate). Cache effects
 * compress every model's gains; predication's larger footprint costs
 * it instruction-cache misses.
 */

#include <iostream>

#include "driver/bench_io.hh"

static int
run()
{
    using namespace predilp;
    WallTimer wall;
    EvalRequest request;
    request.sim = SimConfig::paperMachine();
    request.sim.perfectCaches = false;
    SuiteEvaluator evaluator;
    auto results = evaluator.evaluate(request).results;
    printSpeedupFigure(
        std::cout,
        "Figure 11: speedup, 8-issue / 1-branch, 64K real caches",
        results);
    BenchTiming timing = evaluator.timing();
    printPhaseTiming(std::cout, timing, wall.seconds(),
                     evaluator.threadCount());
    writeBenchJson("fig11_realcache", results, timing,
                   wall.seconds(), evaluator.threadCount(),
                   evaluator.compileStats());
    return 0;
}

int
main()
{
    return predilp::benchMain("bench_fig11_realcache", run);
}
