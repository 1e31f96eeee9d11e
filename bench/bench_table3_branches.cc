/**
 * @file
 * Reproduces Table 3: dynamic branch counts, misprediction counts,
 * and misprediction rates per model. Expected shape: the predicated
 * models execute far fewer branches; absolute mispredictions drop,
 * though the *rate* over surviving branches can rise (the paper's
 * grep observation on branch combining).
 */

#include <iostream>

#include "driver/bench_io.hh"

static int
run()
{
    using namespace predilp;
    WallTimer wall;
    SuiteConfig config;
    config.machine = issue8Branch1();
    config.perfectCaches = true;
    SuiteEvaluator evaluator(config.threads);
    auto results =
        evaluator.evaluate(EvalRequest::fromSuiteConfig(config))
            .results;
    printBranchTable(std::cout, results);
    BenchTiming timing = evaluator.timing();
    printPhaseTiming(std::cout, timing, wall.seconds(),
                     evaluator.threadCount());
    writeBenchJson("table3_branches", results, timing,
                   wall.seconds(), evaluator.threadCount(),
                   evaluator.compileStats());
    return 0;
}

int
main()
{
    return predilp::benchMain("bench_table3_branches", run);
}
