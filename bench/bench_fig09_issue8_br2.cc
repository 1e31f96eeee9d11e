/**
 * @file
 * Reproduces Figure 9: 8-issue processor with 2 branches per cycle,
 * perfect caches. The paper's headline: the extra branch slot lifts
 * the Superblock baseline, collapsing Cond. Move's margin (~3%)
 * while Full Predication stays well ahead (~35%).
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
    request.sim.machine = issue8Branch2();
    SuiteEvaluator evaluator;
    auto results = evaluator.evaluate(request).results;
    printSpeedupFigure(
        std::cout,
        "Figure 9: speedup, 8-issue / 2-branch, perfect caches",
        results);
    BenchTiming timing = evaluator.timing();
    printPhaseTiming(std::cout, timing, wall.seconds(),
                     evaluator.threadCount());
    writeBenchJson("fig09_issue8_br2", results, timing,
                   wall.seconds(), evaluator.threadCount(),
                   evaluator.compileStats());
    return 0;
}

int
main()
{
    return predilp::benchMain("bench_fig09_issue8_br2", run);
}
