/**
 * @file
 * Sweep-driver tests: row-major grid expansion, eager spec
 * validation, the determinism contract (every pool size prices the
 * grid to the byte-identical cells array with the same work), the
 * consolidated report's shape, strict fault propagation, and store
 * sharing — concurrent sweep processes racing on one artifact store
 * all succeed, a sweep killed inside the store's publish window
 * leaves a store a later run converges on, and a warm sweep over a
 * populated store performs zero compiles, captures and replays.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "driver/sweep.hh"
#include "support/diag.hh"
#include "support/faultpoint.hh"

namespace predilp
{
namespace
{

namespace fs = std::filesystem;

/** Fresh empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** A cheap 4-cell grid over the suite's fastest workload. */
SweepSpec
smallSpec()
{
    return SweepSpec::fromJson(JsonValue::parse(R"({
      "workloads": ["cmp"],
      "axes": {
        "issue_width": [4, 8],
        "perfect_caches": [true, false]
      }
    })"));
}

TEST(Sweep, ExpandGridIsRowMajor)
{
    SweepSpec spec = SweepSpec::fromJson(JsonValue::parse(R"({
      "axes": {
        "issue_width": [2, 4],
        "btb_entries": [256, 1024],
        "perfect_caches": [true, false]
      }
    })"));
    auto cells = spec.expandGrid();
    ASSERT_EQ(cells.size(), 8u);
    // The first listed axis varies slowest, the last fastest.
    EXPECT_EQ(cells[0].request.sim.machine.issueWidth, 2);
    EXPECT_EQ(cells[0].request.sim.btbEntries, 256u);
    EXPECT_TRUE(cells[0].request.sim.perfectCaches);
    EXPECT_FALSE(cells[1].request.sim.perfectCaches);
    EXPECT_EQ(cells[1].request.sim.btbEntries, 256u);
    EXPECT_EQ(cells[2].request.sim.btbEntries, 1024u);
    EXPECT_EQ(cells[4].request.sim.machine.issueWidth, 4);
    EXPECT_EQ(cells[7].request.sim.machine.issueWidth, 4);
    EXPECT_EQ(cells[7].request.sim.btbEntries, 1024u);
    EXPECT_FALSE(cells[7].request.sim.perfectCaches);
    std::set<std::string> digests;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].index, i);
        ASSERT_EQ(cells[i].axisValues.size(), 3u);
        EXPECT_EQ(cells[i].axisValues[0].first, "issue_width");
        digests.insert(cells[i].request.requestDigest());
    }
    // Every cell is a distinct request.
    EXPECT_EQ(digests.size(), cells.size());
}

TEST(Sweep, NoAxesYieldsSingleCell)
{
    SweepSpec spec = SweepSpec::fromJson(
        JsonValue::parse("{\"workloads\": [\"cmp\"]}"));
    auto cells = spec.expandGrid();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_TRUE(cells[0].axisValues.empty());
    EXPECT_TRUE(cells[0].request.sim == SimConfig{});
}

TEST(Sweep, SpecValidatesEagerly)
{
    // Unknown axis, empty axis, bad value, unknown top-level key,
    // and a bad enum value all fail at parse time — before any cell
    // evaluation starts.
    EXPECT_THROW(SweepSpec::fromJson(
                     JsonValue::parse("{\"axes\": {\"issue\": [2]}}")),
                 FatalError);
    EXPECT_THROW(SweepSpec::fromJson(JsonValue::parse(
                     "{\"axes\": {\"issue_width\": []}}")),
                 FatalError);
    EXPECT_THROW(SweepSpec::fromJson(JsonValue::parse(
                     "{\"axes\": {\"issue_width\": [0]}}")),
                 FatalError);
    EXPECT_THROW(
        SweepSpec::fromJson(JsonValue::parse("{\"grid\": {}}")),
        FatalError);
    EXPECT_THROW(SweepSpec::fromJson(JsonValue::parse(
                     "{\"axes\": {\"predictor\": [\"gshare\"]}}")),
                 FatalError);
}

/** runSweep(@p spec) on a pool of @p threads (PREDILP_THREADS). */
SweepOutcome
sweepOnThreads(const SweepSpec &spec, const char *threads,
               const std::string &outPath = "")
{
    EXPECT_EQ(setenv("PREDILP_THREADS", threads, 1), 0);
    SweepOutcome outcome = runSweep(spec, outPath);
    EXPECT_EQ(unsetenv("PREDILP_THREADS"), 0);
    return outcome;
}

TEST(Sweep, ThreadCountsMatchByteForByte)
{
    SweepSpec spec = smallSpec();
    SweepOutcome serial = sweepOnThreads(spec, "1");
    SweepOutcome parallel = sweepOnThreads(spec, "4");
    EXPECT_EQ(serial.cells, 4u);
    EXPECT_EQ(serial.threads, 1);
    EXPECT_EQ(parallel.threads, 4);
    // The determinism contract: the cells array is identical for
    // every pool size, byte for byte, and so is the work done to
    // produce it — the once-per-key caches compile and capture each
    // trace exactly once however many threads race for it.
    EXPECT_EQ(parallel.cellsJson, serial.cellsJson);
    EXPECT_EQ(parallel.timing.compiles, serial.timing.compiles);
    EXPECT_EQ(parallel.timing.captures, serial.timing.captures);
}

/**
 * Sets PREDILP_FAULTS for the sweeps in its scope. runSweep arms the
 * spec itself, once per process, so the latch is reset on entry and
 * everything is disarmed on exit.
 */
class ScopedFaults
{
  public:
    explicit ScopedFaults(const char *spec)
    {
        faultpoints::resetForTest();
        EXPECT_EQ(setenv("PREDILP_FAULTS", spec, 1), 0);
    }
    ~ScopedFaults()
    {
        unsetenv("PREDILP_FAULTS");
        faultpoints::resetForTest();
    }
    ScopedFaults(const ScopedFaults &) = delete;
    ScopedFaults &operator=(const ScopedFaults &) = delete;
};

TEST(Sweep, CompileFaultFailsLoudlyAndDisarmedSweepIsClean)
{
    SweepSpec spec = smallSpec();
    const std::string clean = runSweep(spec).cellsJson;

    // Nothing retries a failed trace group, so even a one-shot
    // compile fault propagates out of the strict evaluator as its
    // typed error, naming the point...
    {
        ScopedFaults faults("eval.compile=once");
        try {
            runSweep(spec);
            ADD_FAILURE() << "expected FaultInjectedError";
        } catch (const FaultInjectedError &e) {
            EXPECT_EQ(e.point(), "eval.compile");
        }
    }
    // ...and the next, disarmed sweep prices the clean cells.
    EXPECT_EQ(runSweep(spec).cellsJson, clean);
}

TEST(Sweep, LegacySignatureOnlyForwardsTheInProcessShape)
{
    SweepSpec spec = smallSpec();
    EXPECT_EQ(runSweep(spec, 1, "", true).cellsJson,
              runSweep(spec).cellsJson);
    EXPECT_THROW(runSweep(spec, 2, "", true), FatalError);
    EXPECT_THROW(runSweep(spec, 1, "", false), FatalError);
}

TEST(Sweep, ReportFileHasTheDocumentedShape)
{
    const std::string dir = freshDir("sweep_report");
    const std::string path = dir + "/BENCH_sweep.json";
    SweepOutcome outcome = sweepOnThreads(smallSpec(), "3", path);
    EXPECT_EQ(outcome.path, path);

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    JsonValue report = JsonValue::parse(text.str());
    EXPECT_EQ(report.at("bench").asString(), "sweep");
    EXPECT_EQ(report.at("cell_count").asInt(), 4);
    // The timing section records the pool that priced the grid.
    EXPECT_EQ(report.at("timing").at("threads").asInt(), 3);
    EXPECT_TRUE(report.at("crossover").isArray());

    const auto &cells = report.at("cells").items();
    ASSERT_EQ(cells.size(), 4u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const JsonValue &cell = cells[i];
        EXPECT_EQ(cell.at("index").asInt(),
                  static_cast<std::int64_t>(i));
        EXPECT_TRUE(cell.at("axes").isObject());
        EXPECT_EQ(cell.at("request_digest").asString().substr(0, 3),
                  "v1:");
        ASSERT_EQ(cell.at("benchmarks").items().size(), 1u);
        const JsonValue &bench = cell.at("benchmarks").items()[0];
        EXPECT_EQ(bench.at("name").asString(), "cmp");
        EXPECT_GT(bench.at("base_cycles").asInt(), 0);
        EXPECT_TRUE(bench.at("models").find("full_pred") != nullptr);
    }
}

TEST(Sweep, ConcurrentSweepsShareOneStore)
{
    const std::string dir = freshDir("sweep_contention_store");
    ASSERT_EQ(setenv("PREDILP_STORE", dir.c_str(), 1), 0);
    SweepSpec spec = smallSpec();

    // Two whole sweep processes race on the same store, publishing
    // the same artifacts concurrently under the flock protocol, and
    // both must succeed.
    pid_t pids[2];
    for (auto &pid : pids) {
        pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            try {
                runSweep(spec);
                _exit(0);
            } catch (...) {
                _exit(1);
            }
        }
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // A warm sweep over the populated store does no new work — every
    // cell is served from its certified record, so not even a replay
    // — and still produces the same bytes as a cold run with no
    // store at all.
    SweepOutcome warm = runSweep(spec);
    EXPECT_EQ(warm.timing.compiles, 0u);
    EXPECT_EQ(warm.timing.captures, 0u);
    EXPECT_EQ(warm.timing.replays, 0u);
    EXPECT_GT(warm.timing.storeResultHits, 0u);
    ASSERT_EQ(unsetenv("PREDILP_STORE"), 0);
    SweepOutcome cold = runSweep(spec);
    EXPECT_EQ(warm.cellsJson, cold.cellsJson);
}

TEST(Sweep, StorePublishCrashConvergesOnTheSharedStore)
{
    SweepSpec spec = smallSpec();
    const std::string clean = runSweep(spec).cellsJson;
    const std::string dir = freshDir("sweep_publish_crash_store");
    ASSERT_EQ(setenv("PREDILP_STORE", dir.c_str(), 1), 0);

    // A sweep process dies by SIGKILL inside the store's publish
    // window: the artifact is staged, its canonical path untouched.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        faultpoints::resetForTest();
        setenv("PREDILP_FAULTS", "store.publish.rename=once:crash", 1);
        try {
            runSweep(spec);
        } catch (...) {
        }
        _exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // A disarmed re-run on the same store converges to the clean
    // cells, and a warm run after it does zero emulation: a torn or
    // poisoned artifact would force a quarantine-and-recapture. The
    // certified records are dropped first so the warm run prices
    // every cell off the stored traces.
    EXPECT_EQ(runSweep(spec).cellsJson, clean);
    fs::remove_all(fs::path(dir) / "results");
    SweepOutcome warm = runSweep(spec);
    ASSERT_EQ(unsetenv("PREDILP_STORE"), 0);
    EXPECT_EQ(warm.timing.captures, 0u);
    EXPECT_GT(warm.timing.storeHits, 0u);
    EXPECT_EQ(warm.cellsJson, clean);
}

} // namespace
} // namespace predilp
