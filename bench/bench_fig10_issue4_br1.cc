/**
 * @file
 * Reproduces Figure 10: 4-issue processor, 1 branch per cycle,
 * perfect caches. The paper's headline: Cond. Move's extra
 * instructions saturate the narrow machine and it loses to
 * Superblock on most benchmarks, while Full Predication still wins.
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
    request.sim.machine = issue4Branch1();
    SuiteEvaluator evaluator;
    auto results = evaluator.evaluate(request).results;
    printSpeedupFigure(
        std::cout,
        "Figure 10: speedup, 4-issue / 1-branch, perfect caches",
        results);
    BenchTiming timing = evaluator.timing();
    printPhaseTiming(std::cout, timing, wall.seconds(),
                     evaluator.threadCount());
    writeBenchJson("fig10_issue4_br1", results, timing,
                   wall.seconds(), evaluator.threadCount(),
                   evaluator.compileStats());
    return 0;
}

int
main()
{
    return predilp::benchMain("bench_fig10_issue4_br1", run);
}
