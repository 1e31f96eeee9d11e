/**
 * @file
 * Reproduces Figure 8 of the paper: effectiveness of full and
 * partial predicate support for an 8-issue, 1-branch processor with
 * perfect caches. Speedups are relative to the 1-issue baseline.
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
    SuiteEvaluator evaluator;
    auto results = evaluator.evaluate(request).results;
    printSpeedupFigure(
        std::cout,
        "Figure 8: speedup, 8-issue / 1-branch, perfect caches",
        results);
    BenchTiming timing = evaluator.timing();
    printPhaseTiming(std::cout, timing, wall.seconds(),
                     evaluator.threadCount());
    writeBenchJson("fig08_issue8_br1", results, timing,
                   wall.seconds(), evaluator.threadCount(),
                   evaluator.compileStats());
    return 0;
}

int
main()
{
    return predilp::benchMain("bench_fig08_issue8_br1", run);
}
