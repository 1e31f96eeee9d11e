/**
 * @file
 * predbench: the PredILP benchmark program.
 *
 *   predbench --workload W --seed N --seconds S --trace 0|1
 *             --golden-dir DIR --work-dir DIR [--perturb-golden]
 *   predbench --write-golden DIR
 *
 * Each workload is a closed-loop batch job with one client: a pass
 * evaluates the workload's whole request set (see plan.hh) through
 * SuiteEvaluator::evaluate or runSweep, and the next pass starts when
 * it ends. Every pass uses a fresh evaluator, so simulated caches and
 * the evaluator's in-process caches start empty in every cell.
 *
 * --trace 0 sets up several times, then runs passes for S seconds
 * (at least three) and reports the medians of the end-to-end metrics.
 * --trace 1 splits S between untraced passes and traced walks
 * (walk.hh) and reports per-layer metrics; the traced walk must price
 * exactly the untraced cells. Every cell is checked against golden
 * figures and against the interpreter reference run; the last line
 * of output is one JSON object {correct, attempted, failed, metrics}.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "driver/evaluator.hh"
#include "plan.hh"
#include "support/diag.hh"
#include "walk.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::string goldenDir;
    std::string workDir;
    bool perturbGolden = false;
    std::string writeGoldenDir;
};

/** One metric line of the result. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/**
 * Return free heap memory to the kernel, then reset its peak-RSS mark
 * (VmHWM) to the current RSS. Without the trim, memory that earlier
 * multi-threaded work left in per-thread malloc arenas would stay
 * resident and count towards every later pass's peak.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS since the last reset, in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/** Nearest-rank percentile @p p (0-100) of @p values. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

std::string
number(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

std::string
spread(const std::vector<double> &values)
{
    auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    std::ostringstream os;
    os.precision(4);
    os << "median " << median(values) << " min " << *lo << " max " << *hi
       << " n " << values.size() << ":";
    for (double value : values)
        os << ' ' << value;
    return os.str();
}

/**
 * Host speed, measured by fixed reference work (hash-table updates and
 * lookups, and sorting 4 MB) run on @p threads threads at once.
 * @return the mean seconds per thread. End-to-end times are scaled by
 * referenceSeconds / hostSpeed() measured just before each sample, so
 * a shared host's slow periods, which slow this work too, cancel out.
 */
double
hostSpeed(int threads)
{
    auto work = [] {
        const Clock::time_point start = Clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        std::unordered_map<std::uint64_t, std::uint64_t> table;
        table.reserve(1 << 17);
        std::vector<std::uint32_t> data(1 << 20);
        for (int round = 0; round < 4; ++round) {
            table.clear();
            for (std::uint32_t i = 0; i < (1u << 17); ++i)
                table[next() & 0xfffff] += i;
            for (std::uint32_t &d : data)
                d = static_cast<std::uint32_t>(next());
            std::sort(data.begin(), data.end());
            for (std::uint32_t i = 0; i < (1u << 18); ++i) {
                auto it = table.find(data[i] & 0xfffff);
                acc += it == table.end() ? data[i] : it->second;
            }
        }
        volatile std::uint64_t sink = acc;
        (void)sink;
        return since(start);
    };
    std::vector<double> seconds(static_cast<std::size_t>(threads));
    {
        std::vector<std::jthread> workers;
        for (std::size_t t = 1; t < seconds.size(); ++t)
            workers.emplace_back([&, t] { seconds[t] = work(); });
        seconds[0] = work();
    }
    double sum = 0;
    for (double s : seconds)
        sum += s;
    return sum / static_cast<double>(seconds.size());
}

/** Seconds the reference work takes on the reference host. */
constexpr double referenceSeconds = 0.5;

/** What one untraced pass measured. */
struct Pass
{
    double wall = 0;
    double cpu = 0;
    double rssMb = 0;
    Cells cells;
    BenchTiming timing;
};

/** Evaluate @p plan's request set, as bench_figures_all does. */
std::vector<std::pair<std::string, EvalResponse>>
evaluatePlan(SuiteEvaluator &evaluator, const Plan &plan)
{
    std::vector<std::pair<std::string, EvalResponse>> responses;
    for (std::size_t p = 0; p < plan.phases.size(); ++p) {
        if (p > 0)
            evaluator.releaseTraces();
        for (const NamedRequest &named : plan.phases[p])
            responses.emplace_back(named.group,
                                   evaluator.evaluate(named.request));
    }
    return responses;
}

/**
 * A fresh evaluator with @p threads pool threads (0 = every hardware
 * thread); store read-write when @p storeDir is set.
 */
std::unique_ptr<SuiteEvaluator>
makeEvaluator(int threads, const std::string &storeDir)
{
    auto evaluator = std::make_unique<SuiteEvaluator>(threads);
    EvalPolicy policy;
    policy.isolateFaults = true;
    if (!storeDir.empty()) {
        policy.storeMode = StoreMode::ReadWrite;
        policy.storeDir = storeDir;
    }
    evaluator->setPolicy(policy);
    return evaluator;
}

/** One timed pass over @p plan's request set. */
Pass
runPass(const Plan &plan, const std::string &storeDir)
{
    Pass pass;
    if (plan.sweep) {
        resetPeakRss();
        const double cpu0 = cpuSeconds();
        const Clock::time_point start = Clock::now();
        SweepOutcome outcome = runSweep(plan.spec, 1, "", true);
        pass.wall = since(start);
        pass.cpu = cpuSeconds() - cpu0;
        pass.rssMb = peakRssMb();
        pass.cells = sweepCells(plan.spec, outcome.cellsJson);
        pass.timing = outcome.timing;
        return pass;
    }
    std::unique_ptr<SuiteEvaluator> evaluator =
        makeEvaluator(plan.threads, storeDir);
    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    auto responses = evaluatePlan(*evaluator, plan);
    pass.wall = since(start);
    pass.cpu = cpuSeconds() - cpu0;
    pass.rssMb = peakRssMb();
    for (const auto &[group, response] : responses)
        addCells(pass.cells, group, response);
    pass.timing = evaluator->timing();
    return pass;
}

/**
 * Set-up: generate the plan's inputs and build the evaluator and its
 * pool. For figures_warm the evaluator also fills a fresh store at
 * @p storeDir. @return the seconds it took.
 */
double
setUp(const Args &args, const std::string &storeDir, Plan &plan)
{
    const Clock::time_point start = Clock::now();
    plan = makePlan(args.workload, args.seed);
    if (plan.warm)
        evaluatePlan(*makeEvaluator(plan.threads, storeDir), plan);
    else
        makeEvaluator(plan.threads, "");
    return since(start);
}

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto &entry : fs::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec))
            bytes += entry.file_size(ec);
    }
    return bytes;
}

/** Sum of span seconds (and records, bytes, configs) by name. */
struct SpanTotals
{
    double seconds = 0;
    std::uint64_t count = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::uint64_t configs = 0;
};

SpanTotals
totals(const WalkResult &walk, const std::string &name)
{
    SpanTotals t;
    for (const Span &span : walk.spans) {
        if (span.name != name)
            continue;
        t.seconds += span.seconds();
        t.count += 1;
        t.records += span.records;
        t.bytes += span.bytes;
        t.configs += span.configs;
    }
    return t;
}

double
busySeconds(const WalkResult &walk)
{
    double busy = 0;
    for (const Span &span : walk.spans)
        busy += span.seconds();
    return busy;
}

/**
 * Compile-pass self seconds from the pass timers the walk's compiles
 * recorded. Scalar fixpoint children are subtracted from opt.scalar,
 * so the leaves sum to the compile busy time less the untimed
 * remainder (front end, snapshot clone, pass-manager bookkeeping).
 */
std::vector<Metric>
passMetrics(const WalkResult &walk, double compileBusy)
{
    const StatsSnapshot &stats = walk.passStats;
    static const char *const scalarChildren[] = {
        "opt.fold", "opt.copyprop", "opt.cse", "opt.memfwd",
        "opt.coalesce", "opt.dce", "opt.simplifycfg"};
    static const char *const reported[] = {
        "opt.cse", "opt.dce", "opt.copyprop", "opt.coalesce",
        "opt.simplifycfg"};
    auto secs = [&](const std::string &pass) {
        return stats.seconds(pass + ".seconds");
    };
    auto count = [&](const std::string &name) {
        return static_cast<double>(stats.counter(name));
    };
    double children = 0;
    for (const char *child : scalarChildren)
        children += secs(child);
    double module[4] = {0, 0, 0, 0}; // superblock, hyperblock, partial, sched
    static const char *const modules[] = {"superblock.", "hyperblock.",
                                          "partial.", "sched."};
    double other = 0; // opt.* passes reported as neither leaf nor scalar
    double leaves = 0;
    for (const auto &[name, value] : stats.timers()) {
        const std::string suffix = ".seconds";
        if (name.size() < suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0 ||
            name == "opt.scalar.seconds")
            continue;
        leaves += value;
        const std::string pass = name.substr(0, name.size() - suffix.size());
        bool placed = false;
        for (int m = 0; m < 4; ++m) {
            if (pass.rfind(modules[m], 0) == 0) {
                module[m] += value;
                placed = true;
            }
        }
        for (const char *leaf : reported)
            placed |= pass == leaf;
        placed |= pass == "driver.profile" || pass == "driver.reprofile";
        if (!placed)
            other += value;
    }
    const double scalarSelf = secs("opt.scalar") - children;
    std::vector<Metric> metrics = {
        {"compile.reprofile_s", secs("driver.reprofile"), "s"},
        {"compile.profile_s", secs("driver.profile"), "s"},
        {"opt.scalar.self_s", scalarSelf, "s"},
    };
    for (const char *leaf : reported)
        metrics.push_back({std::string(leaf) + ".s", secs(leaf), "s"});
    metrics.push_back({"opt.other.s", other, "s"});
    metrics.push_back({"superblock.s", module[0], "s"});
    metrics.push_back({"hyperblock.s", module[1], "s"});
    metrics.push_back({"partial.s", module[2], "s"});
    metrics.push_back({"sched.s", module[3], "s"});
    metrics.push_back(
        {"compile.untimed_s", compileBusy - leaves - scalarSelf, "s"});
    metrics.push_back({"opt.scalar.iterations_per_run",
                       ratio(count("opt.scalar.iterations"),
                             count("opt.scalar.runs")),
                       "ratio"});
    metrics.push_back({"opt.cse.changed_ratio",
                       ratio(count("opt.cse.changed_runs"),
                             count("opt.cse.runs")),
                       "ratio"});
    metrics.push_back({"opt.copyprop.changed_ratio",
                       ratio(count("opt.copyprop.changed_runs"),
                             count("opt.copyprop.runs")),
                       "ratio"});
    return metrics;
}

/** Inputs to the per-layer metrics besides the walk itself. */
struct LayerContext
{
    int threads = 1;
    double untracedWall = 0; ///< median untraced pass wall time.
    BenchTiming timing;      ///< an untraced pass's evaluator counters.
    SpanTotals storeSave;    ///< trace publishes (the warm fill).
    std::uint64_t storeBytes = 0;
};

std::vector<Metric>
layerMetrics(const WalkResult &walk, const LayerContext &ctx)
{
    const SpanTotals prefix = totals(walk, "compile.prefix");
    const SpanTotals model = totals(walk, "compile.model");
    std::vector<double> modelMs;
    for (const Span &span : walk.spans) {
        if (span.name == "compile.model")
            modelMs.push_back(span.seconds() * 1e3);
    }
    const SpanTotals decode = totals(walk, "emu.decode");
    const SpanTotals capture = totals(walk, "emu.capture");
    const SpanTotals reference = totals(walk, "emu.reference");
    const SpanTotals load = totals(walk, "store.load");
    const SpanTotals saveResult = totals(walk, "store.save_result");
    SpanTotals replay, perfect, real;
    for (const Span &span : walk.spans) {
        if (span.name != "sim.replay")
            continue;
        for (SpanTotals *t : {&replay, span.realCaches ? &real : &perfect}) {
            t->seconds += span.seconds();
            t->count += 1;
            t->records += span.records;
            t->configs += span.configs;
        }
    }
    const double busy = busySeconds(walk);
    const double mb = 1e6;
    std::vector<Metric> metrics = {
        {"compile.prefix_s", prefix.seconds, "s"},
        {"compile.model_s", model.seconds, "s"},
        {"compile.model_ms_p50", percentile(modelMs, 50), "ms"},
        {"compile.model_ms_p90", percentile(modelMs, 90), "ms"},
        {"compile.calls", static_cast<double>(model.count), "count"},
    };
    for (Metric &m : passMetrics(walk, prefix.seconds + model.seconds))
        metrics.push_back(std::move(m));
    const std::vector<Metric> rest = {
        {"emu.decode_s", decode.seconds, "s"},
        {"emu.capture_s", capture.seconds, "s"},
        {"emu.reference_s", reference.seconds, "s"},
        {"emu.capture_mrec_per_s",
         ratio(static_cast<double>(capture.records), capture.seconds) / 1e6,
         "Mrec/s"},
        {"emu.records", static_cast<double>(capture.records), "count"},
        {"sim.replay_s", replay.seconds, "s"},
        {"sim.replays", static_cast<double>(replay.configs), "count"},
        {"sim.records", static_cast<double>(replay.records), "count"},
        {"sim.replay_mrec_per_s.perfect",
         ratio(static_cast<double>(perfect.records), perfect.seconds) / 1e6,
         "Mrec/s"},
        {"sim.replay_mrec_per_s.real",
         ratio(static_cast<double>(real.records), real.seconds) / 1e6,
         "Mrec/s"},
        {"sim.host_ns_per_record",
         ratio(replay.seconds * 1e9, static_cast<double>(replay.records)),
         "ns"},
        {"sim.batch_configs_per_pass",
         ratio(static_cast<double>(replay.configs),
               static_cast<double>(replay.count)),
         "count"},
        {"store.load_s", load.seconds, "s"},
        {"store.load_mb_per_s",
         ratio(static_cast<double>(load.bytes) / mb, load.seconds), "MB/s"},
        {"store.save_s", ctx.storeSave.seconds, "s"},
        {"store.save_mb_per_s",
         ratio(static_cast<double>(ctx.storeSave.bytes) / mb,
               ctx.storeSave.seconds),
         "MB/s"},
        {"store.save_result_s", saveResult.seconds, "s"},
        {"store.bytes", static_cast<double>(ctx.storeBytes), "B"},
        {"store.hits", static_cast<double>(walk.storeHits), "count"},
        {"store.misses", static_cast<double>(walk.storeMisses), "count"},
        {"driver.overhead_s", ctx.untracedWall - busy / ctx.threads, "s"},
        {"driver.pool_busy_ratio",
         ratio(busy, ctx.untracedWall * ctx.threads), "ratio"},
        {"driver.trace_residual_s", walk.wall - ctx.untracedWall, "s"},
        {"driver.replays", static_cast<double>(ctx.timing.replays),
         "count"},
        {"driver.result_cache_hits",
         static_cast<double>(ctx.timing.resultCacheHits), "count"},
        {"driver.trace_peak_mb",
         static_cast<double>(ctx.timing.tracePeakBytes) / (1024.0 * 1024.0),
         "MB"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    return metrics;
}

/** Per-metric medians over several walks' metric lists. */
std::vector<Metric>
medianMetrics(const std::vector<std::vector<Metric>> &runs)
{
    std::vector<Metric> out = runs.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> values;
        for (const std::vector<Metric> &run : runs)
            values.push_back(run[i].value);
        out[i].value = median(values);
    }
    return out;
}

void
printFingerprint(const Plan &plan, const Args &args)
{
    std::ostringstream axes;
    for (const SweepAxis &axis : plan.spec.axes) {
        axes << (axes.tellp() > 0 ? "," : "") << "\"" << axis.name
             << "\":[";
        for (std::size_t i = 0; i < axis.values.size(); ++i)
            axes << (i ? "," : "") << axis.values[i].dump();
        axes << "]";
    }
    std::cout << "# host {\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
              << ",\"pool_threads\":" << plan.threads
              << ",\"compiler\":\"" << PREDBENCH_COMPILER
              << "\",\"build_type\":\"" << PREDBENCH_BUILD_TYPE
              << "\",\"workload\":\"" << args.workload
              << "\",\"seed\":" << args.seed << ",\"trace\":" << args.trace
              << ",\"sweep_axes\":{" << axes.str() << "}}\n";
}

void
printResult(const Check &check, const std::vector<Metric> &metrics)
{
    for (const std::string &error : check.errors)
        std::cout << "# FAIL " << error << "\n";
    std::cout << "# fail_ratio "
              << number(ratio(static_cast<double>(check.failed),
                              static_cast<double>(check.attempted)))
              << " (" << check.failed << " of " << check.attempted
              << " cells)\n";
    std::cout << "{\"correct\": " << (check.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << check.attempted
              << ", \"failed\": " << check.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << number(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

std::string
goldenPath(const Args &args, const Plan &plan)
{
    return args.goldenDir + (plan.sweep ? "/sweep_cache.json"
                                        : "/figures.json");
}

/**
 * The golden cells for @p plan; with --perturb-golden, the first cell
 * the plan prices is off by one cycle, so every pass must fail it.
 */
Golden
loadGolden(const Args &args, const Plan &plan)
{
    Golden golden = readGolden(goldenPath(args, plan));
    if (args.perturbGolden) {
        const NamedRequest &first = plan.phases.front().front();
        golden.at(cellKey(first.group, first.request.workloads.front(),
                          Model::Superblock))
            .cycles += 1;
    }
    return golden;
}

/**
 * End-to-end run: set-up repeats, then untraced passes. Every timed
 * sample is scaled to the reference host speed measured just before
 * it; the raw seconds are printed too.
 */
int
runEndToEnd(const Args &args)
{
    Plan plan = makePlan(args.workload, args.seed);
    // Set-up is cheap except on figures_warm, where it fills a store.
    const int setups = plan.warm ? 3 : 5;
    std::vector<double> setupTimes, rawSetup;
    std::string storeDir;
    for (int i = 0; i < setups; ++i) {
        if (!storeDir.empty())
            fs::remove_all(storeDir);
        storeDir = args.workDir + "/store" + std::to_string(i);
        const double speed = hostSpeed(plan.threads);
        rawSetup.push_back(setUp(args, storeDir, plan));
        setupTimes.push_back(rawSetup.back() * referenceSeconds / speed);
    }
    if (!plan.warm)
        fs::remove_all(storeDir);
    printFingerprint(plan, args);
    const Golden golden = loadGolden(args, plan);
    const auto references = referenceRuns(plan.inputs);

    Check check;
    std::vector<double> walls, cpus, rss, rawWalls, speeds;
    const Clock::time_point start = Clock::now();
    while (walls.size() < 3 || since(start) < args.seconds) {
        speeds.push_back(hostSpeed(plan.threads));
        const double scale = referenceSeconds / speeds.back();
        Pass pass = runPass(plan, plan.warm ? storeDir : "");
        rawWalls.push_back(pass.wall);
        walls.push_back(pass.wall * scale);
        cpus.push_back(pass.cpu * scale);
        rss.push_back(pass.rssMb);
        check.merge(checkCells(pass.cells, golden, references));
    }
    std::cout << "# reference work s " << spread(speeds)
              << "\n# raw setup_s " << spread(rawSetup)
              << "\n# raw wall_s " << spread(rawWalls) << "\n# setup_s "
              << spread(setupTimes) << "\n# wall_s " << spread(walls)
              << "\n# cpu_s " << spread(cpus) << "\n# peak_rss_mb "
              << spread(rss) << "\n";
    printResult(check, {{"wall_s", median(walls), "s"},
                        {"cpu_s", median(cpus), "s"},
                        {"setup_s", median(setupTimes), "s"},
                        {"peak_rss_mb", median(rss), "MB"}});
    return 0;
}

/** Traced run: untraced passes, then traced walks of the same plan. */
int
runTraced(const Args &args)
{
    Plan plan = makePlan(args.workload, args.seed);
    printFingerprint(plan, args);
    const Golden golden = loadGolden(args, plan);
    const auto references = referenceRuns(plan.inputs);
    Check check;

    LayerContext ctx;
    ctx.threads = plan.threads;
    std::string storeDir;
    std::unique_ptr<ArtifactStore> store;
    if (plan.warm) {
        // The traced fill: the cold walk that publishes every trace,
        // so store writes are measured where set-up pays them.
        storeDir = args.workDir + "/store";
        store = std::make_unique<ArtifactStore>(storeDir,
                                                StoreMode::ReadWrite);
        WalkResult fill = tracedWalk(plan, store.get());
        ctx.storeSave = totals(fill, "store.save");
        ctx.storeBytes = directoryBytes(storeDir);
        check.merge(checkCells(fill.cells, golden, references));
    }

    const double half = args.seconds / 2;
    std::vector<double> walls;
    Cells untraced;
    Clock::time_point start = Clock::now();
    while (walls.size() < 2 || since(start) < half) {
        Pass pass = runPass(plan, storeDir);
        walls.push_back(pass.wall);
        check.merge(checkCells(pass.cells, golden, references));
        untraced = std::move(pass.cells);
        ctx.timing = pass.timing;
    }
    ctx.untracedWall = median(walls);
    if (plan.warm && ctx.timing.compiles != 0) {
        std::cout << "# WARN the untraced warm pass compiled "
                  << ctx.timing.compiles
                  << " programs: the traced fill's store keys differ\n";
    }

    std::vector<std::vector<Metric>> runs;
    std::vector<double> tracedWalls;
    start = Clock::now();
    while (runs.size() < 2 || since(start) < half) {
        WalkResult walk = tracedWalk(plan, store.get());
        check.merge(compareCells(untraced, walk.cells));
        check.merge(checkCells(walk.cells, golden, references));
        for (std::uint64_t i = 0; i < walk.divergences; ++i)
            check.fail("traced capture diverged from runReference");
        tracedWalls.push_back(walk.wall);
        runs.push_back(layerMetrics(walk, ctx));
    }
    std::vector<Metric> metrics = medianMetrics(runs);

    // The identity: layer self times (per thread) plus evaluator overhead
    // make the untraced wall time; the residual to the traced wall
    // time is what tracing itself cost.
    auto value = [&metrics](const std::string &name) {
        for (const Metric &m : metrics) {
            if (m.name == name)
                return m.value;
        }
        throw FatalError("no metric " + name);
    };
    const double overhead = value("driver.overhead_s");
    const double residual = value("driver.trace_residual_s");
    const double layers = ctx.untracedWall - overhead;
    const double compileBusy =
        value("compile.prefix_s") + value("compile.model_s");
    const double untimed = value("compile.untimed_s");
    std::cout << "# compile: pass self times " << number(compileBusy - untimed)
              << " s + compile.untimed_s " << number(untimed)
              << " s = compile busy " << number(compileBusy) << " s\n";
    if (untimed < 0)
        check.fail("pass self times exceed compile busy time");
    std::cout << "# identity: traced wall " << number(median(tracedWalls))
              << " s = layer self " << number(layers * plan.threads)
              << " s / " << plan.threads << " threads + driver.overhead_s "
              << number(overhead) << " s + residual " << number(residual)
              << " s\n# untraced wall_s " << spread(walls)
              << "\n# traced wall_s " << spread(tracedWalls) << "\n";
    store.reset();
    if (!storeDir.empty())
        fs::remove_all(storeDir);
    printResult(check, metrics);
    return 0;
}

/** Price every golden cell once and write the golden files. */
int
writeGoldenFiles(const std::string &dir)
{
    Plan figures = makePlan("figures_cold", 0);
    figures.threads = 0;
    writeGolden(dir + "/figures.json", runPass(figures, "").cells);
    Plan sweep = makePlan("sweep_cache", 0);
    sweep.spec = fullSweepSpec();
    writeGolden(dir + "/sweep_cache.json", runPass(sweep, "").cells);
    return 0;
}

int
usage()
{
    std::cerr << "usage: predbench --workload W --seed N --seconds S "
                 "--trace 0|1 --golden-dir DIR --work-dir DIR "
                 "[--perturb-golden]\n"
                 "       predbench --write-golden DIR\n";
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--perturb-golden") {
            args.perturbGolden = true;
        } else if (!hasValue) {
            return usage();
        } else if (arg == "--workload") {
            args.workload = argv[++i];
        } else if (arg == "--seed") {
            args.seed = std::stoull(argv[++i]);
        } else if (arg == "--seconds") {
            args.seconds = std::stod(argv[++i]);
        } else if (arg == "--trace") {
            args.trace = std::stoi(argv[++i]);
        } else if (arg == "--golden-dir") {
            args.goldenDir = argv[++i];
        } else if (arg == "--work-dir") {
            args.workDir = argv[++i];
        } else if (arg == "--write-golden") {
            args.writeGoldenDir = argv[++i];
        } else {
            return usage();
        }
    }
    try {
        if (!args.writeGoldenDir.empty())
            return writeGoldenFiles(args.writeGoldenDir);
        if (args.goldenDir.empty() || args.workDir.empty() ||
            (args.trace != 0 && args.trace != 1) ||
            std::find(workloadNames().begin(), workloadNames().end(),
                      args.workload) == workloadNames().end())
            return usage();
        fs::create_directories(args.workDir);
        return args.trace ? runTraced(args) : runEndToEnd(args);
    } catch (const std::exception &e) {
        std::cerr << "predbench: " << e.what() << "\n";
        return 1;
    }
}
