/**
 * @file
 * Replay-kernel microbenchmark: compile the largest workload
 * (espresso) once for Full Predication, capture its trace once, then
 * hammer replay() repeatedly — isolating the hot loop this repo's
 * packed 4-byte entries, dense scoreboard, and chunked ChunkCursor
 * path optimize. Reports records/second through the replay kernel
 * and the packed format's bytes-per-entry into
 * BENCH_replay_hot.json, which CI tracks (scripts/bench_json.sh).
 */

#include <fstream>
#include <iostream>

#include "driver/bench_io.hh"
#include "driver/pipeline.hh"
#include "sched/machine.hh"
#include "support/logging.hh"
#include "support/stats_registry.hh"
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

    SimConfig sim;
    sim.machine = issue8Branch1();
    sim.perfectCaches = true;

    // One warm-up pass (page in the buffer), then timed passes.
    SimResult expected = replay(*trace, sim);
    constexpr int passes = 8;
    WallTimer replayTimer;
    for (int i = 0; i < passes; ++i) {
        SimResult result = replay(*trace, sim);
        panicIf(result.cycles != expected.cycles,
                "replay is not deterministic");
    }
    double replaySeconds = replayTimer.seconds();

    StatsSnapshot s;
    s.setSeconds("elapsed_seconds", wall.seconds());
    s.setSeconds("phases.replay_seconds", replaySeconds);
    s.setCounter("counters.replay_passes", passes);
    s.setCounter("counters.trace_records", records);
    s.setCounter("counters.trace_bytes", bytes);
    s.setCounter("counters.cycles", expected.cycles);
    s.setSeconds("throughput.replay_records_per_sec",
                 static_cast<double>(records) * passes /
                     replaySeconds);
    s.setSeconds("throughput.trace_bytes_per_entry",
                 static_cast<double>(bytes) /
                     static_cast<double>(records));

    std::cout << "replay_hot: " << records << " records, " << bytes
              << " bytes ("
              << static_cast<double>(bytes) /
                     static_cast<double>(records)
              << " B/entry), " << passes << " passes in "
              << replaySeconds << "s = "
              << static_cast<double>(records) * passes /
                     replaySeconds / 1e6
              << " Mrec/s\n";

    std::ofstream os("BENCH_replay_hot.json");
    panicIf(!os, "cannot write BENCH_replay_hot.json");
    os << "{\n  \"bench\": \"replay_hot\",\n  \"timing\": "
       << s.toJson(2) << "\n}\n";
    return 0;
}

int
main()
{
    return predilp::benchMain("bench_replay_hot", run);
}
