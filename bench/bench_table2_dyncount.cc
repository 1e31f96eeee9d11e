/**
 * @file
 * Reproduces Table 2: dynamic instruction counts per model, with the
 * ratios against the Superblock baseline the paper prints in
 * parentheses. Expected shape: Cond. Move executes substantially
 * more instructions (paper mean 1.46x), Full Predication only
 * slightly more (paper mean 1.07x).
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
    printInstructionTable(std::cout, results);
    BenchTiming timing = evaluator.timing();
    printPhaseTiming(std::cout, timing, wall.seconds(),
                     evaluator.threadCount());
    writeBenchJson("table2_dyncount", results, timing,
                   wall.seconds(), evaluator.threadCount(),
                   evaluator.compileStats());
    return 0;
}

int
main()
{
    return predilp::benchMain("bench_table2_dyncount", run);
}
