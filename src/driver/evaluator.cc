#include "driver/evaluator.hh"

#include <exception>
#include <sstream>
#include <unordered_set>

#include "driver/certified.hh"
#include "driver/reproducer.hh"
#include "store/sha256.hh"
#include "support/env.hh"
#include "support/faultpoint.hh"

namespace predilp
{

namespace
{

CompileOptions
makeCompileOptions(const EvalRequest &request, Model model,
                   const MachineConfig &machine,
                   const std::string &input, bool verifyEachPass)
{
    CompileOptions opts;
    opts.model = model;
    opts.machine = machine;
    opts.profileInput = input;
    opts.ablation = request.ablation;
    opts.verifyEachPass = verifyEachPass;
    return opts;
}

std::string
machineKey(const MachineConfig &m)
{
    // Shared with the certified records' machine identity so a cell
    // in the store and a cell in a cache key name the same machine
    // by the same string.
    return machineIdentity(m);
}

/**
 * Ablation flags that can affect @p model's compilation, in
 * canonical form (AblationFlags::canonicalFor pins flags the
 * pipeline ignores for a model to their defaults), so e.g. a
 * no-or-tree sweep reuses the Superblock and Full Predication traces
 * of the default configuration.
 */
std::string
flagsKey(const EvalRequest &request, Model model)
{
    return request.ablation.canonicalFor(model).key();
}

/**
 * Identity of a compiled program: everything traceKey() hashes
 * except the capture fuel, which decoding never reads. Keys the
 * decoded-program cache.
 *
 * Deliberately machine-only (not the full SimConfig digest): traces
 * depend on what the scheduler emitted and how far emulation ran,
 * never on cache or BTB parameters, so e.g. the real-cache Figure 11
 * replays the perfect-cache Figure 8 traces byte-for-byte.
 */
std::string
decodedKey(const Workload &workload, const EvalRequest &request,
           Model model, const MachineConfig &machine)
{
    std::ostringstream os;
    os << workload.name << "|s" << request.scale << "|m"
       << static_cast<int>(model) << '|' << machineKey(machine)
       << '|' << flagsKey(request, model);
    return os.str();
}

std::string
traceKey(const Workload &workload, const EvalRequest &request,
         Model model, const MachineConfig &machine,
         std::uint64_t fuel)
{
    return decodedKey(workload, request, model, machine) + "|f" +
           std::to_string(fuel);
}

/**
 * Full provenance of one priced cell. A pure function of
 * (workload, request, model, sim), so the BENCH/sweep emitters and
 * the certified records in the store agree on every digest.
 */
CellProvenance
cellProvenance(const Workload &workload, const EvalRequest &request,
               Model model, const SimConfig &sim)
{
    CellProvenance prov;
    prov.workload = workload.name;
    prov.model = modelKey(model);
    prov.scale = request.scale;
    prov.ablation = flagsKey(request, model);
    prov.fuel = sim.maxDynInstrs;
    prov.machine = machineIdentity(sim.machine);
    prov.sourceSha256 = sha256Hex(workload.source);
    prov.pipelineDigest = passPipelineDigest(model, request.ablation);
    prov.configDigest = sim.configDigest();
    prov.traceDigest = ArtifactStore::keyFor(
        workload.source, traceKey(workload, request, model,
                                  sim.machine, sim.maxDynInstrs));
    return prov;
}

/**
 * The result tier: the cell's SimResult rebuilt from its certified
 * record in @p store, or nullopt on a miss (no store, no record, or
 * a torn or mismatched one — the caller then replays and
 * republishes). Read-only stores serve records too.
 */
std::optional<SimResult>
certifiedHit(ArtifactStore *store, const Workload &workload,
             const EvalRequest &request, Model model,
             const SimConfig &sim)
{
    if (store == nullptr)
        return std::nullopt;
    CellProvenance prov =
        cellProvenance(workload, request, model, sim);
    std::optional<JsonValue> record =
        store->loadResult(certifiedResultKey(prov));
    if (!record)
        return std::nullopt;
    std::optional<SimResult> result = certifiedResult(*record, prov);
    if (result)
        store->countResultHit();
    return result;
}

/**
 * Publish the certified record for one freshly priced cell.
 * Best-effort like save(): a refusal degrades to a thinner result
 * DB, never a failed evaluation.
 */
void
publishCertified(ArtifactStore *store, const Workload &workload,
                 const EvalRequest &request, Model model,
                 const SimConfig &sim, const SimResult &result)
{
    if (store == nullptr || store->mode() != StoreMode::ReadWrite)
        return;
    CellProvenance prov =
        cellProvenance(workload, request, model, sim);
    store->saveResult(certifiedResultKey(prov),
                      certifiedRecord(prov, result));
}

/**
 * The isolated policy's record of one failed cell: its classified
 * exception, plus a self-contained reproducer file when
 * @p reproducerDir is set.
 */
CellError
cellError(const Workload &workload, const EvalRequest &request,
          Model model, bool baseline, const std::string &input,
          std::exception_ptr ep, const std::string &reproducerDir)
{
    CellError error;
    error.workload = workload.name;
    error.model = modelName(model);
    error.baseline = baseline;
    error.kind = classifyException(ep);
    try {
        std::rethrow_exception(ep);
    } catch (const std::exception &e) {
        error.message = e.what();
    } catch (...) {
        error.message = "non-standard exception";
    }
    if (!reproducerDir.empty()) {
        ReproducerSpec spec;
        spec.title = workload.name + "-" + error.model +
                     (baseline ? "-base" : "");
        spec.model = error.model;
        spec.ablation = request.ablation;
        spec.scale = request.scale;
        spec.kind = error.kind;
        spec.message = error.message;
        spec.input = input;
        spec.source = workload.source;
        error.reproducerPath = writeReproducer(reproducerDir, spec);
    }
    return error;
}

} // namespace

SuiteEvaluator::SuiteEvaluator(int threads) : pool_(threads)
{
    // Opt-in persistence without code changes, via the one
    // documented reader of PREDILP_STORE / PREDILP_STORE_MODE
    // (EnvConfig). setPolicy can still override both.
    // An unknown PREDILP_STORE_MODE fails here, at store setup,
    // rather than silently meaning read-write.
    EnvConfig env = EnvConfig::fromEnvironment();
    if (env.storeMode != "" && env.storeMode != "rw" &&
        env.storeMode != "ro") {
        throw FatalError("invalid PREDILP_STORE_MODE value '" +
                         env.storeMode +
                         "' (accepted: rw, ro; unset PREDILP_STORE "
                         "to turn the store off)");
    }
    if (!env.storeDir.empty()) {
        policy_.storeDir = env.storeDir;
        policy_.storeMode = env.storeMode == "ro"
                                ? StoreMode::ReadOnly
                                : StoreMode::ReadWrite;
    }
    openStore();
}

void
SuiteEvaluator::setPolicy(EvalPolicy policy)
{
    policy_ = std::move(policy);
    openStore();
}

void
SuiteEvaluator::openStore()
{
    if (policy_.storeMode == StoreMode::Off ||
        policy_.storeDir.empty()) {
        store_.reset();
        return;
    }
    store_ = std::make_unique<ArtifactStore>(policy_.storeDir,
                                             policy_.storeMode);
}

namespace
{

/**
 * Future-based once-per-key cache: the first requester computes
 * inline (so a running pool task never blocks on a queued one);
 * concurrent requesters block on the owner's shared_future.
 * Exceptions propagate to every waiter already attached, but the
 * failed entry is evicted first, so the cache is never poisoned: a
 * later request for the same key recomputes instead of replaying a
 * stale failure forever.
 */
template <typename T, typename Fn>
T
cachedCompute(
    std::mutex &mutex,
    std::unordered_map<std::string, std::shared_future<T>> &cache,
    const std::string &key, std::atomic<std::uint64_t> &hits,
    Fn &&compute)
{
    std::promise<T> promise;
    std::shared_future<T> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(key);
        if (it == cache.end()) {
            future = promise.get_future().share();
            cache.emplace(key, future);
            owner = true;
        } else {
            future = it->second;
            hits.fetch_add(1, std::memory_order_relaxed);
        }
    }
    if (owner) {
        try {
            promise.set_value(compute());
        } catch (...) {
            // Evict before publishing the failure: waiters holding
            // this future still observe the exception, but the key
            // is free for a clean retry.
            {
                std::lock_guard<std::mutex> lock(mutex);
                cache.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

} // namespace

SuiteEvaluator::SnapshotPtr
SuiteEvaluator::snapshotFor(const Workload &workload,
                            const std::string &input, int scale,
                            std::uint64_t profileFuel)
{
    std::string key =
        workload.name + "|prefix|s" + std::to_string(scale);
    return cachedCompute(
        mutex_, snapshots_, key, prefixCacheHits_,
        [&]() -> SnapshotPtr {
            PhaseTimer timer(compileTime_);
            StatsRegistry perPrefix;
            auto snapshot = std::make_shared<FrontendSnapshot>(
                compilePrefix(workload.source, input, profileFuel,
                              &perPrefix, policy_.verifyEachPass));
            compileStats_.merge(perPrefix);
            prefixCompiles_.fetch_add(1,
                                      std::memory_order_relaxed);
            return snapshot;
        });
}

RunResult
SuiteEvaluator::referenceFor(const Workload &workload,
                             const std::string &input, int scale)
{
    std::string key =
        workload.name + "|ref|s" + std::to_string(scale);
    return cachedCompute(
        mutex_, references_, key, referenceCacheHits_, [&] {
            PhaseTimer timer(captureTime_);
            captures_.fetch_add(1, std::memory_order_relaxed);
            RunResult ref = runReference(workload.source, input);
            auto &records =
                defaultEmuBackend() == EmuBackend::Threaded
                    ? threadedRecords_
                    : interpRecords_;
            records.fetch_add(ref.dynInstrs,
                              std::memory_order_relaxed);
            return ref;
        });
}

SuiteEvaluator::DecodedPtr
SuiteEvaluator::decodedFor(const Program &prog,
                           const std::string &key)
{
    return cachedCompute(
        mutex_, decoded_, key, decodedCacheHits_,
        [&]() -> DecodedPtr {
            PhaseTimer timer(decodeTime_);
            auto dp = std::make_shared<DecodedProgram>(prog);
            decodes_.fetch_add(1, std::memory_order_relaxed);
            decodedBytes_.fetch_add(dp->memoryBytes(),
                                    std::memory_order_relaxed);
            return dp;
        });
}

SuiteEvaluator::TracePtr
SuiteEvaluator::traceFor(const Workload &workload,
                         const EvalRequest &request, Model model,
                         const MachineConfig &machine,
                         const std::string &input,
                         std::uint64_t fuel,
                         const std::string &key)
{
    return cachedCompute(
        mutex_, traces_, key, traceCacheHits_, [&]() -> TracePtr {
            // Second tier: the persistent artifact store. A hit
            // skips compile, capture, and the reference-divergence
            // check entirely — artifacts were verified against the
            // oracle before they were published, and the checksum
            // guards the bytes — so warm runs pay zero emulation.
            std::string storeKey;
            if (store_ != nullptr) {
                storeKey =
                    ArtifactStore::keyFor(workload.source, key);
                if (TracePtr fromDisk = store_->load(storeKey))
                    return fromDisk;
            }
            CompileOptions opts =
                makeCompileOptions(request, model, machine, input,
                                   policy_.verifyEachPass);
            // All models of a cell resume from one shared
            // front-end snapshot; only the model-specific pass
            // suffix runs per compile.
            SnapshotPtr snapshot =
                snapshotFor(workload, input, request.scale,
                            opts.maxProfileInstrs);
            std::unique_ptr<Program> prog;
            {
                PhaseTimer timer(compileTime_);
                FAULT_POINT("eval.compile");
                // Each compile records into its own registry (the
                // worker owns it, unsynchronized); the additive
                // merge below makes the aggregate independent of
                // thread count and completion order.
                StatsRegistry perCompile;
                prog = compileFromSnapshot(*snapshot, opts,
                                           &perCompile);
                compileStats_.merge(perCompile);
                compiles_.fetch_add(1, std::memory_order_relaxed);
            }
            // The threaded backend splits capture into a cached
            // decode (shared across fuel budgets) and the engine
            // run; only the latter counts as emulation time.
            const bool threaded =
                defaultEmuBackend() == EmuBackend::Threaded;
            DecodedPtr decoded;
            if (threaded) {
                decoded = decodedFor(
                    *prog,
                    decodedKey(workload, request, model, machine));
            }
            std::unique_ptr<TraceBuffer> buffer;
            {
                PhaseTimer timer(captureTime_);
                buffer = threaded ? captureDecoded(*decoded, input, fuel)
                                  : capture(*prog, input, fuel,
                                            EmuBackend::Interp);
                captures_.fetch_add(1, std::memory_order_relaxed);
            }
            auto &backendRecords =
                threaded ? threadedRecords_ : interpRecords_;
            backendRecords.fetch_add(buffer->size(),
                                     std::memory_order_relaxed);
            RunResult reference = referenceFor(
                workload, input, request.scale);
            const RunResult &run = buffer->run();
            if (run.output != reference.output ||
                run.exitValue != reference.exitValue ||
                run.memHash != reference.memHash) {
                throw DivergenceError(detail::formatMessage(
                    modelName(model), " diverged from reference on ",
                    workload.name, ": exit ", run.exitValue, " vs ",
                    reference.exitValue, ", output ",
                    run.output.size(), " vs ",
                    reference.output.size(), " bytes",
                    run.output == reference.output ? " (equal)"
                                                   : " (differ)",
                    ", memHash ", run.memHash, " vs ",
                    reference.memHash));
            }
            if (store_ != nullptr)
                store_->save(storeKey, *buffer);
            std::uint64_t bytes = buffer->memoryBytes();
            capturedBytes_.fetch_add(bytes,
                                     std::memory_order_relaxed);
            capturedRecords_.fetch_add(
                buffer->size(), std::memory_order_relaxed);
            std::uint64_t resident =
                traceBytes_.fetch_add(bytes,
                                      std::memory_order_relaxed) +
                bytes;
            std::uint64_t peak =
                tracePeakBytes_.load(std::memory_order_relaxed);
            while (resident > peak &&
                   !tracePeakBytes_.compare_exchange_weak(
                       peak, resident, std::memory_order_relaxed)) {
            }
            return TracePtr(std::move(buffer));
        });
}

EvalResponse
SuiteEvaluator::evaluate(const EvalRequest &request)
{
    return std::move(evaluateBatch({request}).front());
}

std::vector<EvalResponse>
SuiteEvaluator::evaluateBatch(const std::vector<EvalRequest> &requests)
{
    /** One priced cell of a row; cell 0 is the baseline. */
    struct Cell
    {
        Model model = Model::Superblock;
        bool baseline = false;
        std::string rkey;
    };
    /** One workload of one request, with its input computed once. */
    struct Row
    {
        std::size_t requestIndex = 0;
        const Workload *workload = nullptr;
        std::string input;
        std::vector<Cell> cells;
    };
    /**
     * One trace's worth of pending work: every not-yet-priced
     * SimConfig whose cell maps to the same trace key. Configs
     * within a group differ only in non-machine axes (or belong to
     * different requests sharing a machine) — trace keys are
     * machine-only.
     */
    struct Group
    {
        const Row *row = nullptr;
        Model model = Model::Superblock;
        std::string tkey;
        std::vector<std::string> rkeys;
        std::vector<SimConfig> configs;
        std::exception_ptr failure;
    };

    // --- plan: resolve every workload name before any compile, then
    // enumerate cells, count result-cache hits, serve certified
    // records, and group the rest by trace key (deterministic
    // first-appearance order) ---
    std::vector<Row> rows;
    for (std::size_t r = 0; r < requests.size(); ++r) {
        const EvalRequest &request = requests[r];
        std::vector<const Workload *> selected;
        if (request.workloads.empty()) {
            for (const Workload &workload : allWorkloads())
                selected.push_back(&workload);
        } else {
            for (const std::string &name : request.workloads) {
                const Workload *workload = findWorkload(name);
                if (workload == nullptr)
                    throw FatalError("unknown workload '" + name + "'");
                selected.push_back(workload);
            }
        }
        for (const Workload *workload : selected) {
            rows.push_back(Row{
                r, workload,
                workload->makeInput(workload->defaultScale *
                                    request.scale),
                {}});
        }
    }

    std::vector<Group> groups;
    std::unordered_map<std::string, std::size_t> groupIndex;
    std::unordered_set<std::string> plannedRkeys;
    for (Row &row : rows) {
        const EvalRequest &request = requests[row.requestIndex];
        const std::vector<Model> models = request.effectiveModels();
        // Cell 0: the 1-issue Superblock baseline denominator (paper
        // §4.1), sharing every non-machine axis of the request's
        // config; cells 1..n: the requested models at its machine.
        for (std::size_t i = 0; i < models.size() + 1; ++i) {
            Cell cell;
            cell.baseline = i == 0;
            cell.model = cell.baseline ? Model::Superblock
                                       : models[i - 1];
            SimConfig sim = request.sim;
            if (cell.baseline)
                sim.machine = issue1();
            std::string tkey =
                traceKey(*row.workload, request, cell.model,
                         sim.machine, sim.maxDynInstrs);
            // The priced-result key extends the trace identity with
            // the full SimConfig digest: any config axis (cache
            // geometry, BTB shape, predictor, penalties) forces a
            // fresh replay, while the trace itself is still shared.
            cell.rkey = tkey + "##" + sim.configDigest();
            row.cells.push_back(cell);
            bool priced = !plannedRkeys.insert(cell.rkey).second;
            if (!priced) {
                std::lock_guard<std::mutex> lock(mutex_);
                priced = results_.count(cell.rkey) != 0;
            }
            if (priced) {
                resultCacheHits_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            if (std::optional<SimResult> served = certifiedHit(
                    store_.get(), *row.workload, request, cell.model,
                    sim)) {
                std::lock_guard<std::mutex> lock(mutex_);
                results_.emplace(cell.rkey, std::move(*served));
                continue;
            }
            auto [it, inserted] =
                groupIndex.emplace(tkey, groups.size());
            if (inserted) {
                groups.push_back(
                    Group{&row, cell.model, std::move(tkey), {}, {}, {}});
            }
            Group &group = groups[it->second];
            group.rkeys.push_back(cell.rkey);
            group.configs.push_back(sim);
        }
    }

    // --- price: trace-major batch passes. Each group maps its trace
    // once and prices every pending config against it; a group that
    // throws keeps its exception for its cells. ---
    auto runGroup = [&](Group &group, ThreadPool *lanePool) {
        try {
            FAULT_POINT("eval.replay.batch");
            const Row &row = *group.row;
            const EvalRequest &request = requests[row.requestIndex];
            const SimConfig &first = group.configs.front();
            TracePtr trace =
                traceFor(*row.workload, request, group.model,
                         first.machine, row.input, first.maxDynInstrs,
                         group.tkey);
            std::vector<SimResult> priced;
            {
                PhaseTimer timer(replayTime_);
                priced = replayBatch(*trace, group.configs, lanePool);
            }
            replays_.fetch_add(priced.size(),
                               std::memory_order_relaxed);
            replayedRecords_.fetch_add(trace->size() * priced.size(),
                                       std::memory_order_relaxed);
            for (std::size_t i = 0; i < priced.size(); ++i) {
                // The record's provenance comes from the config that
                // keyed the cell, not from the group.
                publishCertified(store_.get(), *row.workload, request,
                                 group.model, group.configs[i],
                                 priced[i]);
                std::lock_guard<std::mutex> lock(mutex_);
                results_.emplace(group.rkeys[i], std::move(priced[i]));
            }
        } catch (...) {
            group.failure = std::current_exception();
        }
    };
    if (groups.size() == 1) {
        // A single trace group: parallelism comes from spreading
        // the batch's lanes across the pool instead.
        runGroup(groups.front(), &pool_);
    } else {
        pool_.parallelFor(groups.size(), [&](std::size_t i) {
            runGroup(groups[i], nullptr);
        });
    }
    std::unordered_map<std::string, std::exception_ptr> failures;
    for (const Group &group : groups) {
        if (group.failure) {
            for (const std::string &rkey : group.rkeys)
                failures.emplace(rkey, group.failure);
        }
    }

    // --- assemble in request order: strict rethrows the first
    // failed cell, isolated degrades each failed cell to a CellError
    // (plus a reproducer when configured) and keeps a default
    // SimResult in its place. ---
    std::vector<EvalResponse> responses(requests.size());
    for (std::size_t r = 0; r < requests.size(); ++r)
        responses[r].requestDigest = requests[r].requestDigest();
    for (const Row &row : rows) {
        const EvalRequest &request = requests[row.requestIndex];
        BenchmarkResult result;
        result.name = row.workload->name;
        for (const Cell &cell : row.cells) {
            SimResult sim;
            auto failure = failures.find(cell.rkey);
            if (failure == failures.end()) {
                std::lock_guard<std::mutex> lock(mutex_);
                sim = results_.at(cell.rkey);
            } else if (!policy_.isolateFaults) {
                std::rethrow_exception(failure->second);
            } else {
                result.errors.push_back(cellError(
                    *row.workload, request, cell.model, cell.baseline,
                    row.input, failure->second,
                    policy_.reproducerDir));
            }
            if (cell.baseline) {
                result.baseCycles = sim.cycles;
            } else {
                result.models[cell.model] = std::move(sim);
                result.provenance[cell.model] = cellProvenance(
                    *row.workload, request, cell.model, request.sim);
            }
        }
        responses[row.requestIndex].results.push_back(
            std::move(result));
    }
    return responses;
}

void
SuiteEvaluator::releaseTraces()
{
    std::lock_guard<std::mutex> lock(mutex_);
    traces_.clear();
    traceBytes_.store(0, std::memory_order_relaxed);
}

StatsSnapshot
SuiteEvaluator::compileStats() const
{
    return compileStats_.snapshot();
}

BenchTiming
SuiteEvaluator::timing() const
{
    BenchTiming timing;
    timing.compileSeconds = compileTime_.seconds();
    timing.captureSeconds = captureTime_.seconds();
    timing.replaySeconds = replayTime_.seconds();
    timing.compiles = compiles_.load(std::memory_order_relaxed);
    timing.prefixCompiles =
        prefixCompiles_.load(std::memory_order_relaxed);
    timing.prefixCacheHits =
        prefixCacheHits_.load(std::memory_order_relaxed);
    timing.captures = captures_.load(std::memory_order_relaxed);
    timing.replays = replays_.load(std::memory_order_relaxed);
    timing.traceCacheHits =
        traceCacheHits_.load(std::memory_order_relaxed);
    timing.resultCacheHits =
        resultCacheHits_.load(std::memory_order_relaxed);
    timing.traceBytes =
        traceBytes_.load(std::memory_order_relaxed);
    timing.tracePeakBytes =
        tracePeakBytes_.load(std::memory_order_relaxed);
    timing.capturedBytes =
        capturedBytes_.load(std::memory_order_relaxed);
    timing.capturedRecords =
        capturedRecords_.load(std::memory_order_relaxed);
    timing.replayedRecords =
        replayedRecords_.load(std::memory_order_relaxed);
    timing.decodeSeconds = decodeTime_.seconds();
    timing.decodes = decodes_.load(std::memory_order_relaxed);
    timing.decodedCacheHits =
        decodedCacheHits_.load(std::memory_order_relaxed);
    timing.decodedBytes =
        decodedBytes_.load(std::memory_order_relaxed);
    timing.threadedRecords =
        threadedRecords_.load(std::memory_order_relaxed);
    timing.interpRecords =
        interpRecords_.load(std::memory_order_relaxed);
    if (store_ != nullptr) {
        timing.storeHits = store_->hits();
        timing.storeMisses = store_->misses();
        timing.storeRepairs = store_->repairs();
        timing.storeWrites = store_->writes();
        timing.storeBytesMapped = store_->bytesMapped();
        timing.storeResultHits = store_->resultHits();
    }
    return timing;
}

} // namespace predilp
