/**
 * @file
 * SuiteEvaluator tests: results are identical for every thread
 * count, repeated evaluation hits the caches instead of recompiling,
 * one evaluator reuses captured traces across simulation
 * configurations (the trace-once/replay-many contract), and a fresh
 * evaluator on a filled store serves every cell from its certified
 * record without loading a trace.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "driver/certified.hh"
#include "driver/evaluator.hh"
#include "store/store.hh"
#include "support/diag.hh"
#include "support/env.hh"

namespace predilp
{
namespace
{

const std::vector<std::string> subset = {"cmp", "qsort", "wc"};

SuiteConfig
smallConfig()
{
    SuiteConfig config;
    config.machine = issue8Branch1();
    config.perfectCaches = true;
    return config;
}

EvalRequest
requestFor(const SuiteConfig &config,
           std::vector<std::string> workloads = {},
           std::vector<Model> models = {})
{
    EvalRequest request = EvalRequest::fromSuiteConfig(config);
    request.workloads = std::move(workloads);
    request.models = std::move(models);
    return request;
}

std::vector<BenchmarkResult>
evalSuite(SuiteEvaluator &evaluator, const SuiteConfig &config,
          const std::vector<std::string> &names)
{
    return evaluator.evaluate(requestFor(config, names)).results;
}

BenchmarkResult
evalOne(SuiteEvaluator &evaluator, const Workload &workload,
        const SuiteConfig &config, std::vector<Model> models = {})
{
    return evaluator
        .evaluate(
            requestFor(config, {workload.name}, std::move(models)))
        .results.at(0);
}

void
expectResultsEq(const std::vector<BenchmarkResult> &a,
                const std::vector<BenchmarkResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].baseCycles, b[i].baseCycles);
        ASSERT_EQ(a[i].models.size(), b[i].models.size());
        for (const auto &[model, sim] : a[i].models) {
            const SimResult &other = b[i].models.at(model);
            EXPECT_EQ(sim.cycles, other.cycles);
            EXPECT_EQ(sim.dynInstrs, other.dynInstrs);
            EXPECT_EQ(sim.nullified, other.nullified);
            EXPECT_EQ(sim.branches, other.branches);
            EXPECT_EQ(sim.condBranches, other.condBranches);
            EXPECT_EQ(sim.mispredicts, other.mispredicts);
            EXPECT_EQ(sim.loads, other.loads);
            EXPECT_EQ(sim.stores, other.stores);
            EXPECT_EQ(sim.icacheMisses, other.icacheMisses);
            EXPECT_EQ(sim.dcacheMisses, other.dcacheMisses);
            EXPECT_EQ(sim.exitValue, other.exitValue);
            EXPECT_EQ(sim.output, other.output);
            EXPECT_TRUE(sim.stats == other.stats);
        }
    }
}

/** Results of @p responses, concatenated in order. */
std::vector<BenchmarkResult>
flatten(const std::vector<EvalResponse> &responses)
{
    std::vector<BenchmarkResult> out;
    for (const EvalResponse &response : responses)
        out.insert(out.end(), response.results.begin(),
                   response.results.end());
    return out;
}

/** A read-write store policy rooted at a fresh @p name directory. */
EvalPolicy
freshStorePolicy(const std::string &name)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    EvalPolicy policy;
    policy.storeMode = StoreMode::ReadWrite;
    policy.storeDir = dir.string();
    return policy;
}

/** Overwrite @p path with @p bytes. */
void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    ASSERT_TRUE(out.good()) << path;
}

TEST(SuiteEvaluator, ThreadCountDoesNotChangeResults)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator serial(1);
    SuiteEvaluator parallel(4);
    EXPECT_EQ(serial.threadCount(), 1);
    EXPECT_EQ(parallel.threadCount(), 4);
    auto a = evalSuite(serial, config, subset);
    auto b = evalSuite(parallel, config, subset);
    expectResultsEq(a, b);
    // Order follows the requested names, not completion order.
    ASSERT_EQ(a.size(), subset.size());
    for (std::size_t i = 0; i < subset.size(); ++i)
        EXPECT_EQ(a[i].name, subset[i]);
}

TEST(SuiteEvaluator, RepeatHitsResultCache)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator evaluator(1);
    auto first = evalSuite(evaluator, config, subset);
    BenchTiming cold = evaluator.timing();
    EXPECT_GT(cold.compiles, 0u);
    EXPECT_EQ(cold.resultCacheHits, 0u);

    auto second = evalSuite(evaluator, config, subset);
    BenchTiming warm = evaluator.timing();
    expectResultsEq(first, second);
    // The repeat did no new work: every cell was a result-cache hit.
    EXPECT_EQ(warm.compiles, cold.compiles);
    EXPECT_EQ(warm.captures, cold.captures);
    EXPECT_EQ(warm.replays, cold.replays);
    EXPECT_EQ(warm.resultCacheHits,
              cold.resultCacheHits + 4 * subset.size());
}

TEST(SuiteEvaluator, TracesReusedAcrossSimConfigs)
{
    SuiteConfig perfect = smallConfig();
    SuiteConfig real = smallConfig();
    real.perfectCaches = false;

    SuiteEvaluator evaluator(1);
    evalSuite(evaluator, perfect, subset);
    BenchTiming cold = evaluator.timing();

    evalSuite(evaluator, real, subset);
    BenchTiming warm = evaluator.timing();
    // Real caches change only the pricing: no recompilation or
    // re-emulation, every cell replayed from the cached trace.
    EXPECT_EQ(warm.compiles, cold.compiles);
    EXPECT_EQ(warm.captures, cold.captures);
    EXPECT_EQ(warm.traceCacheHits,
              cold.traceCacheHits + 4 * subset.size());
    EXPECT_EQ(warm.replays, cold.replays + 4 * subset.size());
}

TEST(SuiteEvaluator, ModelSubsetEvaluatesOnlyThatModel)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator evaluator(1);
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    BenchmarkResult r =
        evalOne(evaluator, *workload, config, {Model::FullPred});
    EXPECT_EQ(r.models.size(), 1u);
    EXPECT_GT(r.baseCycles, 0u);
    EXPECT_GT(r.speedup(Model::FullPred), 0.0);
    // Baseline + one model: exactly two compiles.
    EXPECT_EQ(evaluator.timing().compiles, 2u);
}

TEST(SuiteEvaluator, ReleaseTracesKeepsResults)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator evaluator(1);
    auto first = evalSuite(evaluator, config, subset);
    EXPECT_GT(evaluator.timing().traceBytes, 0u);
    evaluator.releaseTraces();
    EXPECT_EQ(evaluator.timing().traceBytes, 0u);
    // Priced results survive the trace drop.
    auto second = evalSuite(evaluator, config, subset);
    expectResultsEq(first, second);
    // Per workload: 4 capturing emulations + 1 reference run.
    EXPECT_EQ(evaluator.timing().captures, first.size() * 5);
}

TEST(SuiteEvaluator, UnknownWorkloadPanics)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator evaluator(1);
    EXPECT_ANY_THROW(evalSuite(evaluator, config, {"nope"}));
}

TEST(SuiteEvaluator, StrictModePropagatesTypedTrapThroughPool)
{
    // A budget far below any workload's dynamic count forces an
    // EmuTrap in every capturing cell; under the default strict
    // policy the first failed cell's exception must surface from
    // evaluate() with its type intact (kept as an exception_ptr by
    // its pool-run trace group and rethrown at assembly).
    SuiteConfig tiny = smallConfig();
    tiny.maxDynInstrs = 500;
    SuiteEvaluator evaluator(4);
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    try {
        evalOne(evaluator, *workload, tiny, {Model::FullPred});
        FAIL() << "expected EmuTrap";
    } catch (const EmuTrap &trap) {
        EXPECT_EQ(trap.kind(), TrapKind::FuelExhausted);
        EXPECT_GE(trap.steps(), 500u);
    }
}

TEST(SuiteEvaluator, FailedComputationIsEvictedForRetry)
{
    // A failed cell must not poison the once-per-key cache: the
    // retry recomputes (captures grows) instead of replaying the
    // stale exception as a cache hit forever.
    SuiteConfig tiny = smallConfig();
    tiny.maxDynInstrs = 500;
    SuiteEvaluator evaluator(1);
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    EXPECT_THROW(
        evalOne(evaluator, *workload, tiny, {Model::FullPred}),
        EmuTrap);
    // The model compile lands before the capture traps, so a real
    // retry recompiles; a poisoned cache would instead resolve the
    // retry as a trace-cache hit with no new compile.
    const BenchTiming cold = evaluator.timing();
    EXPECT_GT(cold.compiles, 0u);
    EXPECT_THROW(
        evalOne(evaluator, *workload, tiny, {Model::FullPred}),
        EmuTrap);
    const BenchTiming warm = evaluator.timing();
    EXPECT_GT(warm.compiles, cold.compiles);
    EXPECT_EQ(warm.traceCacheHits, cold.traceCacheHits);
}

TEST(SuiteEvaluator, IsolatedTrapCellDegradesToErrorAndReproducer)
{
    const std::string reproDir =
        testing::TempDir() + "predilp-repro";
    SuiteConfig tiny = smallConfig();
    tiny.maxDynInstrs = 500;

    SuiteEvaluator evaluator(1);
    EvalPolicy policy;
    policy.isolateFaults = true;
    policy.reproducerDir = reproDir;
    evaluator.setPolicy(policy);

    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);

    // Every cell traps, but evaluate() completes and reports each
    // failure as a structured record with a readable reproducer.
    BenchmarkResult result = evalOne(evaluator, *workload, tiny);
    EXPECT_EQ(result.errors.size(), 4u);
    for (const CellError &error : result.errors) {
        EXPECT_EQ(error.workload, "cmp");
        EXPECT_EQ(error.kind, "EmuTrap");
        EXPECT_NE(error.message.find("budget"), std::string::npos);
        ASSERT_FALSE(error.reproducerPath.empty());
        std::ifstream in(error.reproducerPath);
        ASSERT_TRUE(in.good());
        std::string header;
        std::getline(in, header);
        EXPECT_EQ(header, "// predilp reproducer");
    }

    // The same evaluator then completes an honest configuration
    // bit-identically to a fresh strict evaluator: the failed
    // cells neither poisoned the caches nor leaked into results.
    SuiteConfig normal = smallConfig();
    BenchmarkResult ok = evalOne(evaluator, *workload, normal);
    EXPECT_TRUE(ok.errors.empty());
    SuiteEvaluator fresh(1);
    BenchmarkResult expected = evalOne(fresh, *workload, normal);
    EXPECT_EQ(ok.baseCycles, expected.baseCycles);
    ASSERT_EQ(ok.models.size(), expected.models.size());
    for (const auto &[model, sim] : ok.models) {
        EXPECT_EQ(sim.cycles, expected.models.at(model).cycles);
        EXPECT_EQ(sim.output, expected.models.at(model).output);
    }
}

TEST(SuiteEvaluator, EqualCellKeysGetDistinctReproducerFiles)
{
    // Two failing cells can share (title, kind) — here the same
    // model requested twice — and each must still get its own
    // reproducer file: the sequence suffix in the filename keeps
    // the second write from clobbering the first.
    const std::string reproDir =
        testing::TempDir() + "predilp-repro-collide";
    SuiteConfig tiny = smallConfig();
    tiny.maxDynInstrs = 500;

    SuiteEvaluator evaluator(1);
    EvalPolicy policy;
    policy.isolateFaults = true;
    policy.reproducerDir = reproDir;
    evaluator.setPolicy(policy);

    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    BenchmarkResult result = evalOne(
        evaluator, *workload, tiny,
        {Model::FullPred, Model::FullPred});
    ASSERT_EQ(result.errors.size(), 3u);

    std::vector<std::string> paths;
    for (const CellError &error : result.errors) {
        ASSERT_FALSE(error.reproducerPath.empty());
        paths.push_back(error.reproducerPath);
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
        for (std::size_t j = i + 1; j < paths.size(); ++j)
            EXPECT_NE(paths[i], paths[j]);
        std::ifstream in(paths[i]);
        EXPECT_TRUE(in.good()) << paths[i];
    }
}

TEST(SuiteEvaluator, EvaluateBatchMatchesSequentialEvaluation)
{
    // A batch over requests that differ only in non-machine axes
    // must price trace-major (one capture pass per trace, many
    // configs per walk) and still return responses bit-identical to
    // evaluating each request on a fresh evaluator.
    std::vector<EvalRequest> requests;
    for (int btbEntries : {256, 1024}) {
        for (bool perfect : {true, false}) {
            EvalRequest request =
                requestFor(smallConfig(), subset);
            request.sim.perfectCaches = perfect;
            request.sim.btbEntries = btbEntries;
            requests.push_back(std::move(request));
        }
    }

    SuiteEvaluator batched(2);
    std::vector<EvalResponse> fromBatch =
        batched.evaluateBatch(requests);
    ASSERT_EQ(fromBatch.size(), requests.size());

    SuiteEvaluator sequential(1);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EvalResponse expected = sequential.evaluate(requests[i]);
        EXPECT_EQ(fromBatch[i].requestDigest,
                  expected.requestDigest);
        expectResultsEq(fromBatch[i].results, expected.results);
    }

    // Trace-once across the whole batch: the four configurations
    // share one set of captures (4 capturing cells + 1 reference
    // per workload), and every cell was replayed exactly once.
    BenchTiming timing = batched.timing();
    EXPECT_EQ(timing.captures, subset.size() * 5);
    EXPECT_EQ(timing.replays,
              requests.size() * subset.size() * 4);
}

TEST(SuiteEvaluator, EvaluateBatchCountsOnlyRealResultReuse)
{
    // A result-cache hit is a cell some earlier pricing already
    // paid for: a cold batch of distinct cells has none, and
    // repeating it serves every cell (4 per workload per request)
    // from the cache with no new replay.
    std::vector<EvalRequest> requests;
    EvalRequest real = requestFor(smallConfig(), subset);
    real.sim.perfectCaches = false;
    requests.push_back(requestFor(smallConfig(), subset));
    requests.push_back(std::move(real));
    const std::size_t cells = requests.size() * subset.size() * 4;

    SuiteEvaluator evaluator(1);
    std::vector<EvalResponse> cold = evaluator.evaluateBatch(requests);
    EXPECT_EQ(evaluator.timing().resultCacheHits, 0u);
    EXPECT_EQ(evaluator.timing().replays, cells);

    std::vector<EvalResponse> repeat =
        evaluator.evaluateBatch(requests);
    EXPECT_EQ(evaluator.timing().resultCacheHits, cells);
    EXPECT_EQ(evaluator.timing().replays, cells);
    expectResultsEq(flatten(repeat), flatten(cold));
}

TEST(SuiteEvaluator, CertifiedRecordsServeWarmCells)
{
    EvalRequest perfect = requestFor(smallConfig(), subset);
    EvalRequest real = perfect;
    real.sim.perfectCaches = false;
    const std::size_t cellsPerRequest = subset.size() * 4;

    // Cold: price both requests and publish one record per cell.
    const EvalPolicy policy = freshStorePolicy("eval-result-tier");
    SuiteEvaluator cold(2);
    cold.setPolicy(policy);
    const std::vector<BenchmarkResult> coldPerfect =
        cold.evaluate(perfect).results;
    const std::vector<BenchmarkResult> coldReal =
        cold.evaluate(real).results;
    EXPECT_EQ(cold.timing().replays, 2 * cellsPerRequest);
    EXPECT_EQ(cold.timing().storeResultHits, 0u);

    // Warm: fresh evaluators on the filled store serve every cell
    // from its record — no compile, capture, trace load or replay —
    // with results equal to the cold ones, stats counters included.
    auto expectServed = [&](const BenchTiming &timing,
                            std::size_t cells) {
        EXPECT_EQ(timing.compiles, 0u);
        EXPECT_EQ(timing.prefixCompiles, 0u);
        EXPECT_EQ(timing.captures, 0u);
        EXPECT_EQ(timing.replays, 0u);
        EXPECT_EQ(timing.storeHits, 0u);
        EXPECT_EQ(timing.storeMisses, 0u);
        EXPECT_EQ(timing.storeWrites, 0u);
        EXPECT_EQ(timing.storeResultHits, cells);
    };
    {
        SCOPED_TRACE("perfect caches");
        SuiteEvaluator warm(2);
        warm.setPolicy(policy);
        expectResultsEq(warm.evaluate(perfect).results, coldPerfect);
        expectServed(warm.timing(), cellsPerRequest);
    }
    {
        SCOPED_TRACE("real caches");
        SuiteEvaluator warm(2);
        warm.setPolicy(policy);
        expectResultsEq(warm.evaluate(real).results, coldReal);
        expectServed(warm.timing(), cellsPerRequest);
    }
    {
        // The batch planner serves records too: a hit seeds the
        // result cache and never joins a batch group.
        SCOPED_TRACE("evaluateBatch");
        SuiteEvaluator warm(2);
        warm.setPolicy(policy);
        std::vector<BenchmarkResult> expected = coldPerfect;
        expected.insert(expected.end(), coldReal.begin(),
                        coldReal.end());
        expectResultsEq(flatten(warm.evaluateBatch({perfect, real})),
                        expected);
        expectServed(warm.timing(), 2 * cellsPerRequest);
    }
}

TEST(SuiteEvaluator, DamagedCertifiedRecordsAreReplayedAndRepublished)
{
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    const EvalRequest request =
        requestFor(smallConfig(), {workload->name});
    const EvalPolicy policy = freshStorePolicy("eval-result-damage");
    SuiteEvaluator cold(1);
    cold.setPolicy(policy);
    const std::vector<BenchmarkResult> expected =
        cold.evaluate(request).results;
    const CellProvenance prov =
        expected.at(0).provenance.at(Model::FullPred);
    ArtifactStore store(policy.storeDir, StoreMode::ReadOnly);
    const std::string path =
        store.resultPath(certifiedResultKey(prov));
    const JsonValue good = store.loadResult(certifiedResultKey(prov))
                               .value_or(JsonValue());
    ASSERT_TRUE(certifiedResult(good, prov).has_value());

    // Every damaged record is a miss for its one cell: that cell is
    // replayed off the stored trace and its record republished,
    // while the other three cells are still served.
    CellProvenance otherProv = prov;
    otherProv.pipelineDigest = "v1:edited";
    JsonValue reprovenanced = JsonValue::makeObject({
        {"schema", JsonValue::makeString(certSchemaTag)},
        {"provenance", otherProv.toJson()},
        {"figures", *good.find("figures")},
        {"run", *good.find("run")},
    });
    JsonValue v1Shaped = JsonValue::makeObject({
        {"schema", JsonValue::makeString("predilp-cert-v1")},
        {"provenance", prov.toJson()},
        {"figures", *good.find("figures")},
    });
    const std::string goodText = sealRecord(good).dump() + "\n";
    const std::vector<std::pair<std::string, std::string>> damages = {
        {"torn", goodText.substr(0, goodText.size() / 2)},
        {"provenance edited and resealed",
         sealRecord(reprovenanced).dump() + "\n"},
        {"v1-shaped", sealRecord(v1Shaped).dump() + "\n"},
    };
    for (const auto &[name, bytes] : damages) {
        SCOPED_TRACE(name);
        writeBytes(path, bytes);
        SuiteEvaluator warm(1);
        warm.setPolicy(policy);
        expectResultsEq(warm.evaluate(request).results, expected);
        const BenchTiming timing = warm.timing();
        EXPECT_EQ(timing.compiles, 0u);
        EXPECT_EQ(timing.captures, 0u);
        EXPECT_EQ(timing.replays, 1u);
        EXPECT_EQ(timing.storeHits, 1u);
        EXPECT_EQ(timing.storeResultHits, 3u);
        std::optional<JsonValue> republished =
            store.loadResult(certifiedResultKey(prov));
        ASSERT_TRUE(republished.has_value());
        EXPECT_EQ(republished->dump(), good.dump());
    }
}

TEST(SuiteEvaluator, ReadOnlyStoreServesRecordsAndWritesNone)
{
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    const EvalRequest request =
        requestFor(smallConfig(), {workload->name});
    EvalPolicy policy = freshStorePolicy("eval-result-ro");
    SuiteEvaluator cold(1);
    cold.setPolicy(policy);
    const std::vector<BenchmarkResult> expected =
        cold.evaluate(request).results;

    // Tear one record: the read-only evaluator replays that cell
    // but must not republish it, and serves the other three.
    const CellProvenance prov =
        expected.at(0).provenance.at(Model::CondMove);
    policy.storeMode = StoreMode::ReadOnly;
    ArtifactStore store(policy.storeDir, StoreMode::ReadOnly);
    const std::string path =
        store.resultPath(certifiedResultKey(prov));
    writeBytes(path, "{\"schema\": ");

    SuiteEvaluator warm(1);
    warm.setPolicy(policy);
    expectResultsEq(warm.evaluate(request).results, expected);
    const BenchTiming timing = warm.timing();
    EXPECT_EQ(timing.compiles, 0u);
    EXPECT_EQ(timing.replays, 1u);
    EXPECT_EQ(timing.storeResultHits, 3u);
    EXPECT_EQ(timing.storeWrites, 0u);
    EXPECT_FALSE(
        store.loadResult(certifiedResultKey(prov)).has_value());
}

TEST(SuiteEvaluator, VerifyEachPassPolicyMatchesDefaultResults)
{
    // Running the verifier after every pass is purely observational:
    // cycle-for-cycle identical results, just slower compiles.
    SuiteConfig config = smallConfig();
    SuiteEvaluator verifying(1);
    EvalPolicy policy;
    policy.verifyEachPass = true;
    verifying.setPolicy(policy);
    SuiteEvaluator plain(1);
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    BenchmarkResult a = evalOne(verifying, *workload, config);
    BenchmarkResult b = evalOne(plain, *workload, config);
    EXPECT_EQ(a.baseCycles, b.baseCycles);
    ASSERT_EQ(a.models.size(), b.models.size());
    for (const auto &[model, sim] : a.models)
        EXPECT_EQ(sim.cycles, b.models.at(model).cycles);
}

TEST(SuiteEvaluator, StoreModeEnvIsValidated)
{
    const std::string dir = testing::TempDir() + "store_mode_env";
    ASSERT_EQ(setenv("PREDILP_STORE", dir.c_str(), 1), 0);
    auto modeFor = [](const char *mode) {
        EXPECT_EQ(setenv("PREDILP_STORE_MODE", mode, 1), 0);
        return SuiteEvaluator(1).policy().storeMode;
    };
    EXPECT_EQ(modeFor("rw"), StoreMode::ReadWrite);
    EXPECT_EQ(modeFor(""), StoreMode::ReadWrite);
    EXPECT_EQ(modeFor("ro"), StoreMode::ReadOnly);

    // Anything else fails loudly at store setup, naming the accepted
    // values, instead of silently meaning read-write. "off" is not
    // a mode: unsetting PREDILP_STORE turns the store off.
    for (const char *bad : {"off", "readonly"}) {
        ASSERT_EQ(setenv("PREDILP_STORE_MODE", bad, 1), 0);
        // Readers that never open a store are not affected.
        EXPECT_EQ(EnvConfig::fromEnvironment().storeMode, bad);
        try {
            SuiteEvaluator evaluator(1);
            ADD_FAILURE() << "expected FatalError for " << bad;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("accepted: rw, ro"),
                      std::string::npos)
                << e.what();
        }
    }
    ASSERT_EQ(unsetenv("PREDILP_STORE_MODE"), 0);
    ASSERT_EQ(unsetenv("PREDILP_STORE"), 0);
}

} // namespace
} // namespace predilp
