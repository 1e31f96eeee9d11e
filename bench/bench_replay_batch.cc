/**
 * @file
 * Batched-replay microbenchmark: compile the largest workload
 * (espresso) once for Full Predication, capture its trace once, then
 * price a batch of 8 heterogeneous SimConfigs two ways — 8
 * sequential replay() calls versus one replayBatch() pass with lanes
 * spread over a thread pool sized to the hardware — and verify the
 * results agree cycle for cycle. Reports the single-config kernel
 * rate (replay_records_per_sec), the batch's amortized per-config
 * rate (replay_batch_records_per_sec_per_config), the aggregate
 * batch rate, and batch_speedup_vs_sequential into
 * BENCH_replay_batch.json, which CI tracks (scripts/bench_json.sh).
 * pool_threads is reported alongside so the speedup floor can be
 * interpreted against the parallelism that was actually available.
 */

#include <fstream>
#include <iostream>
#include <span>
#include <thread>
#include <vector>

#include "driver/bench_io.hh"
#include "driver/pipeline.hh"
#include "sched/machine.hh"
#include "support/logging.hh"
#include "support/stats_registry.hh"
#include "support/thread_pool.hh"
#include "support/timer.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

static int
run()
{
    using namespace predilp;
    WallTimer wall;

    const Workload *workload = findWorkload("espresso");
    panicIf(workload == nullptr, "espresso workload missing");
    std::string input = workload->input();

    CompileOptions opts;
    opts.model = Model::FullPred;
    opts.machine = issue8Branch1();
    opts.profileInput = input;
    std::unique_ptr<Program> prog =
        compileForModel(workload->source, opts);

    std::unique_ptr<TraceBuffer> trace = capture(*prog, input);
    const std::uint64_t records = trace->size();
    const std::uint64_t bytes = trace->memoryBytes();
    panicIf(records == 0, "empty trace");

    // The acceptance batch: 8 configs with the hardware axes the
    // sweep grids actually vary (width, BTB geometry, predictor,
    // penalty, perfect/real caches), so lanes mix address-reading
    // and address-skipping models like a real sweep shard does.
    const MachineConfig machines[] = {issue8Branch1(), issue1(),
                                      issue4Branch1(),
                                      issue8Branch2()};
    std::vector<SimConfig> configs;
    for (std::size_t i = 0; i < 8; ++i) {
        SimConfig sim;
        sim.machine = machines[i % 4];
        sim.machine.mispredictPenalty =
            4 + static_cast<int>(i % 3) * 3;
        sim.perfectCaches = (i % 2) == 0;
        sim.btbEntries = 64u << (i % 4);
        if (i % 3 == 1)
            sim.predictor = BranchPredictor::OneBit;
        configs.push_back(sim);
    }

    // Warm-up: page the buffer in and grab reference results.
    std::vector<SimResult> expected;
    for (const SimConfig &sim : configs)
        expected.push_back(replay(*trace, sim));

    // Single-config kernel rate (same contract bench_replay_hot
    // tracks, measured here on the batch's first config; best-of-N
    // like the mode comparison below).
    constexpr int singlePasses = 4;
    double singleSeconds = 0;
    for (int i = 0; i < singlePasses; ++i) {
        WallTimer singleTimer;
        SimResult result = replay(*trace, configs[0]);
        const double seconds = singleTimer.seconds();
        if (i == 0 || seconds < singleSeconds)
            singleSeconds = seconds;
        panicIf(result.cycles != expected[0].cycles,
                "single replay is not deterministic");
    }

    // Best-of-N timing, modes interleaved within each pass so a
    // slow system phase penalizes both sides alike: one pass of
    // either mode is short enough that scheduler noise swamps a
    // ~15% serial amortization win, and min-time is the standard
    // estimator for the noise-free cost of a deterministic kernel.
    constexpr int timedPasses = 5;
    const int poolThreads = std::max(
        1u, std::thread::hardware_concurrency());
    ThreadPool pool(poolThreads);
    double seqSeconds = 0;
    double batchSeconds = 0;
    for (int pass = 0; pass < timedPasses; ++pass) {
        // Sequential baseline: one replay() call per config.
        WallTimer seqTimer;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            SimResult result = replay(*trace, configs[i]);
            panicIf(result.cycles != expected[i].cycles,
                    "sequential replay is not deterministic");
        }
        const double seq = seqTimer.seconds();
        if (pass == 0 || seq < seqSeconds)
            seqSeconds = seq;

        // Batched: one streaming pass, lanes spread over the pool.
        WallTimer batchTimer;
        std::vector<SimResult> batched =
            replayBatch(*trace, configs, &pool);
        const double batch = batchTimer.seconds();
        if (pass == 0 || batch < batchSeconds)
            batchSeconds = batch;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            panicIf(batched[i].cycles != expected[i].cycles ||
                        batched[i].dynInstrs !=
                            expected[i].dynInstrs,
                    "batched replay diverges from sequential "
                    "replay");
        }
    }

    const double nConfigs = static_cast<double>(configs.size());
    const double singleRate =
        static_cast<double>(records) / singleSeconds;
    const double aggregateRate =
        static_cast<double>(records) * nConfigs / batchSeconds;
    const double perConfigRate = aggregateRate / nConfigs;
    const double speedup = seqSeconds / batchSeconds;

    StatsSnapshot s;
    s.setSeconds("elapsed_seconds", wall.seconds());
    s.setSeconds("phases.replay_seconds",
                 singleSeconds + seqSeconds + batchSeconds);
    s.setCounter("counters.replay_passes",
                 singlePasses +
                     2 * timedPasses * configs.size());
    s.setCounter("counters.batch_configs", configs.size());
    s.setCounter("counters.pool_threads",
                 static_cast<std::uint64_t>(poolThreads));
    s.setCounter("counters.trace_records", records);
    s.setCounter("counters.trace_bytes", bytes);
    s.setSeconds("throughput.trace_bytes_per_entry",
                 static_cast<double>(bytes) /
                     static_cast<double>(records));
    s.setSeconds("throughput.replay_records_per_sec", singleRate);
    s.setSeconds("throughput.replay_batch_records_per_sec",
                 aggregateRate);
    s.setSeconds(
        "throughput.replay_batch_records_per_sec_per_config",
        perConfigRate);
    s.setSeconds("throughput.batch_speedup_vs_sequential", speedup);

    std::cout << "replay_batch: " << records << " records x "
              << configs.size() << " configs, sequential "
              << seqSeconds << "s, batched " << batchSeconds
              << "s (" << poolThreads << " threads) = "
              << aggregateRate / 1e6 << " Mrec/s aggregate, "
              << perConfigRate / 1e6 << " Mrec/s per config, "
              << speedup << "x vs sequential (single-config "
              << singleRate / 1e6 << " Mrec/s)\n";

    std::ofstream os("BENCH_replay_batch.json");
    panicIf(!os, "cannot write BENCH_replay_batch.json");
    os << "{\n  \"bench\": \"replay_batch\",\n  \"timing\": "
       << s.toJson(2) << "\n}\n";
    return 0;
}

int
main()
{
    return predilp::benchMain("bench_replay_batch", run);
}
