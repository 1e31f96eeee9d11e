#include "walk.hh"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "driver/certified.hh"
#include "driver/pipeline.hh"
#include "emu/decoded.hh"
#include "store/sha256.hh"
#include "support/thread_pool.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;
using TracePtr = std::shared_ptr<const TraceBuffer>;
using SnapshotPtr = std::shared_ptr<const FrontendSnapshot>;
using DecodedPtr = std::shared_ptr<const DecodedProgram>;

/**
 * Once-per-key cache with the evaluator's semantics: the first
 * requester computes, concurrent requesters wait on its future, and
 * later requesters count as hits.
 */
template <typename T>
class OnceMap
{
  public:
    template <typename Fn>
    T
    get(const std::string &key, Fn &&compute,
        std::atomic<std::uint64_t> *hits = nullptr)
    {
        std::promise<T> promise;
        std::shared_future<T> future;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = map_.find(key);
            if (it == map_.end()) {
                future = promise.get_future().share();
                map_.emplace(key, future);
                owner = true;
            } else {
                future = it->second;
                if (hits != nullptr)
                    hits->fetch_add(1, std::memory_order_relaxed);
            }
        }
        if (owner) {
            try {
                promise.set_value(compute());
            } catch (...) {
                promise.set_exception(std::current_exception());
            }
        }
        return future.get();
    }

    /** Publish a computed value unless @p key is present. */
    void
    seed(const std::string &key, T value)
    {
        std::promise<T> promise;
        promise.set_value(std::move(value));
        std::lock_guard<std::mutex> lock(mutex_);
        map_.emplace(key, promise.get_future().share());
    }

    bool
    contains(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.count(key) != 0;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
    }

  private:
    std::mutex mutex_;
    std::unordered_map<std::string, std::shared_future<T>> map_;
};

/** The evaluator's compiled-program identity (decodedKey). */
std::string
decodedKey(const Workload &workload, const EvalRequest &request,
           Model model, const MachineConfig &machine)
{
    std::ostringstream os;
    os << workload.name << "|s" << request.scale << "|m"
       << static_cast<int>(model) << '|' << machineIdentity(machine)
       << '|' << request.ablation.canonicalFor(model).key();
    return os.str();
}

std::string
traceKey(const Workload &workload, const EvalRequest &request,
         Model model, const MachineConfig &machine, std::uint64_t fuel)
{
    return decodedKey(workload, request, model, machine) + "|f" +
           std::to_string(fuel);
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    std::uintmax_t size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

class Walker
{
  public:
    Walker(const Plan &plan, ArtifactStore *store)
        : plan_(plan), store_(store), pool_(plan.threads)
    {}

    WalkResult run();

  private:
    /** Records one span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Walker &walker, const char *name) : walker_(walker)
        {
            span.name = name;
            span.start = walker_.now();
        }
        ~Scope()
        {
            span.end = walker_.now();
            std::lock_guard<std::mutex> lock(walker_.spanMutex_);
            walker_.spans_.push_back(std::move(span));
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        Span span;

      private:
        Walker &walker_;
    };

    struct Group
    {
        const Workload *workload = nullptr;
        const EvalRequest *request = nullptr;
        Model model = Model::Superblock;
        std::string tkey;
        std::vector<std::string> rkeys;
        std::vector<SimConfig> configs;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    const std::string &input(const Workload &workload) const
    {
        return plan_.inputs.at(workload.name);
    }

    SnapshotPtr snapshotFor(const Workload &workload,
                            const EvalRequest &request,
                            std::uint64_t profileFuel);
    RunResult referenceFor(const Workload &workload,
                           const EvalRequest &request);
    TracePtr traceFor(const Workload &workload,
                      const EvalRequest &request, Model model,
                      const MachineConfig &machine, std::uint64_t fuel,
                      const std::string &tkey);
    SimResult resultFor(const Workload &workload,
                        const EvalRequest &request, Model model,
                        const SimConfig &sim);
    void publishCertified(const Workload &workload,
                          const EvalRequest &request, Model model,
                          const SimConfig &sim, const SimResult &result);
    void evaluate(const NamedRequest &named, Cells &cells);
    void batch(const std::vector<NamedRequest> &requests);

    const Plan &plan_;
    ArtifactStore *store_;
    Clock::time_point origin_ = Clock::now();

    OnceMap<SnapshotPtr> snapshots_;
    OnceMap<RunResult> references_;
    OnceMap<DecodedPtr> decoded_;
    OnceMap<TracePtr> traces_;
    OnceMap<SimResult> results_;
    std::atomic<std::uint64_t> resultHits_{0};
    std::atomic<std::uint64_t> divergences_{0};
    StatsRegistry passStats_;

    std::mutex spanMutex_;
    std::vector<Span> spans_;

    /** Last: its workers use every member above. */
    ThreadPool pool_;
};

SnapshotPtr
Walker::snapshotFor(const Workload &workload, const EvalRequest &request,
                    std::uint64_t profileFuel)
{
    return snapshots_.get(
        workload.name + "|prefix|s" + std::to_string(request.scale),
        [&]() -> SnapshotPtr {
            Scope scope(*this, "compile.prefix");
            StatsRegistry stats;
            auto snapshot = std::make_shared<const FrontendSnapshot>(
                compilePrefix(workload.source, input(workload),
                              profileFuel, &stats));
            passStats_.merge(stats);
            return snapshot;
        });
}

RunResult
Walker::referenceFor(const Workload &workload, const EvalRequest &request)
{
    return references_.get(
        workload.name + "|ref|s" + std::to_string(request.scale), [&] {
            Scope scope(*this, "emu.reference");
            RunResult ref = runReference(workload.source, input(workload));
            scope.span.records = ref.dynInstrs;
            return ref;
        });
}

TracePtr
Walker::traceFor(const Workload &workload, const EvalRequest &request,
                 Model model, const MachineConfig &machine,
                 std::uint64_t fuel, const std::string &tkey)
{
    return traces_.get(tkey, [&]() -> TracePtr {
        std::string storeKey;
        if (store_ != nullptr) {
            storeKey = ArtifactStore::keyFor(workload.source, tkey);
            Scope scope(*this, "store.load");
            if (TracePtr loaded = store_->load(storeKey)) {
                scope.span.bytes = fileBytes(store_->objectPath(storeKey));
                return loaded;
            }
        }
        CompileOptions opts;
        opts.model = model;
        opts.machine = machine;
        opts.profileInput = input(workload);
        opts.ablation = request.ablation;
        SnapshotPtr snapshot =
            snapshotFor(workload, request, opts.maxProfileInstrs);
        std::unique_ptr<Program> prog;
        {
            Scope scope(*this, "compile.model");
            StatsRegistry stats;
            prog = compileFromSnapshot(*snapshot, opts, &stats);
            passStats_.merge(stats);
        }
        DecodedPtr decoded = decoded_.get(
            decodedKey(workload, request, model, machine),
            [&]() -> DecodedPtr {
                Scope scope(*this, "emu.decode");
                return std::make_shared<const DecodedProgram>(*prog);
            });
        std::unique_ptr<TraceBuffer> buffer;
        {
            Scope scope(*this, "emu.capture");
            buffer = captureDecoded(*decoded, input(workload), fuel);
            scope.span.records = buffer->size();
        }
        const RunResult reference = referenceFor(workload, request);
        const RunResult &run = buffer->run();
        if (run.output != reference.output ||
            run.exitValue != reference.exitValue ||
            run.memHash != reference.memHash)
            divergences_.fetch_add(1, std::memory_order_relaxed);
        if (store_ != nullptr) {
            // The evaluator's provenance sidecar, field for field.
            SimConfig captureSim = request.sim;
            captureSim.machine = machine;
            JsonValue prov = JsonValue::makeObject({
                {"format_version",
                 JsonValue::makeInt(ArtifactStore::formatVersion)},
                {"store_key", JsonValue::makeString(storeKey)},
                {"cell_key", JsonValue::makeString(tkey)},
                {"workload", JsonValue::makeString(workload.name)},
                {"model", JsonValue::makeString(modelKey(model))},
                {"scale", JsonValue::makeInt(request.scale)},
                {"ablation",
                 JsonValue::makeString(
                     request.ablation.canonicalFor(model).key())},
                {"fuel",
                 JsonValue::makeInt(static_cast<std::int64_t>(fuel))},
                {"emu_backend", JsonValue::makeString(emuBackendName(
                                    EmuBackend::Threaded))},
                {"config_digest",
                 JsonValue::makeString(captureSim.configDigest())},
                {"source_sha256",
                 JsonValue::makeString(sha256Hex(workload.source))},
                {"pipeline_digest",
                 JsonValue::makeString(
                     passPipelineDigest(model, request.ablation))},
                {"records", JsonValue::makeInt(static_cast<std::int64_t>(
                                buffer->size()))},
            });
            Scope scope(*this, "store.save");
            store_->save(storeKey, *buffer, prov.dump() + "\n");
            scope.span.bytes = fileBytes(store_->objectPath(storeKey));
        }
        return TracePtr(std::move(buffer));
    });
}

void
Walker::publishCertified(const Workload &workload,
                         const EvalRequest &request, Model model,
                         const SimConfig &sim, const SimResult &result)
{
    if (store_ == nullptr || store_->mode() != StoreMode::ReadWrite)
        return;
    // The evaluator's cellProvenance, field for field.
    CellProvenance prov;
    prov.workload = workload.name;
    prov.model = modelKey(model);
    prov.scale = request.scale;
    prov.ablation = request.ablation.canonicalFor(model).key();
    prov.fuel = sim.maxDynInstrs;
    prov.machine = machineIdentity(sim.machine);
    prov.sourceSha256 = sha256Hex(workload.source);
    prov.pipelineDigest = passPipelineDigest(model, request.ablation);
    prov.configDigest = sim.configDigest();
    prov.traceDigest = ArtifactStore::keyFor(
        workload.source, traceKey(workload, request, model, sim.machine,
                                  sim.maxDynInstrs));
    Scope scope(*this, "store.save_result");
    const std::string key = certifiedResultKey(prov);
    store_->saveResult(key, certifiedRecord(prov, result));
    scope.span.bytes = fileBytes(store_->resultPath(key));
}

SimResult
Walker::resultFor(const Workload &workload, const EvalRequest &request,
                  Model model, const SimConfig &sim)
{
    const std::string tkey = traceKey(workload, request, model,
                                      sim.machine, sim.maxDynInstrs);
    return results_.get(
        tkey + "##" + sim.configDigest(),
        [&] {
            TracePtr trace = traceFor(workload, request, model,
                                      sim.machine, sim.maxDynInstrs, tkey);
            SimResult priced;
            {
                Scope scope(*this, "sim.replay");
                priced = replay(*trace, sim);
                scope.span.records = trace->size();
                scope.span.configs = 1;
                scope.span.realCaches = !sim.perfectCaches;
            }
            publishCertified(workload, request, model, sim, priced);
            return priced;
        },
        &resultHits_);
}

/** SuiteEvaluator::evaluate: workloads, then cells, over the pool. */
void
Walker::evaluate(const NamedRequest &named, Cells &cells)
{
    const EvalRequest &request = named.request;
    const std::vector<Model> models = request.effectiveModels();
    std::vector<BenchmarkResult> rows(request.workloads.size());
    pool_.parallelFor(rows.size(), [&](std::size_t w) {
        const Workload &workload = *findWorkload(request.workloads[w]);
        std::vector<SimResult> priced(models.size() + 1);
        pool_.parallelFor(priced.size(), [&](std::size_t i) {
            SimConfig sim = request.sim;
            if (i == 0)
                sim.machine = issue1();
            priced[i] = resultFor(workload,
                                  request, i == 0 ? Model::Superblock
                                                  : models[i - 1],
                                  sim);
        });
        rows[w].name = workload.name;
        rows[w].baseCycles = priced[0].cycles;
        for (std::size_t i = 0; i < models.size(); ++i)
            rows[w].models[models[i]] = std::move(priced[i + 1]);
    });
    EvalResponse response;
    response.results = std::move(rows);
    addCells(cells, named.group, response);
}

/**
 * SuiteEvaluator::evaluateBatch's pricing phase: group every
 * not-yet-priced cell by trace key, then price each trace's configs
 * in one replayBatch pass, trace-major across the pool.
 */
void
Walker::batch(const std::vector<NamedRequest> &requests)
{
    std::vector<Group> groups;
    std::unordered_map<std::string, std::size_t> groupIndex;
    std::unordered_set<std::string> planned;
    for (const NamedRequest &named : requests) {
        const EvalRequest &request = named.request;
        const std::vector<Model> models = request.effectiveModels();
        for (const std::string &name : request.workloads) {
            const Workload *workload = findWorkload(name);
            for (std::size_t i = 0; i < models.size() + 1; ++i) {
                const Model model =
                    i == 0 ? Model::Superblock : models[i - 1];
                SimConfig sim = request.sim;
                if (i == 0)
                    sim.machine = issue1();
                std::string tkey = traceKey(*workload, request, model,
                                            sim.machine, sim.maxDynInstrs);
                std::string rkey = tkey + "##" + sim.configDigest();
                if (!planned.insert(rkey).second || results_.contains(rkey))
                    continue;
                auto [it, inserted] =
                    groupIndex.emplace(tkey, groups.size());
                if (inserted) {
                    groups.push_back(
                        Group{workload, &request, model, tkey, {}, {}});
                }
                groups[it->second].rkeys.push_back(std::move(rkey));
                groups[it->second].configs.push_back(sim);
            }
        }
    }
    auto runGroup = [&](const Group &group, ThreadPool *lanePool) {
        const SimConfig &first = group.configs.front();
        TracePtr trace =
            traceFor(*group.workload, *group.request, group.model,
                     first.machine, first.maxDynInstrs, group.tkey);
        std::vector<SimResult> priced;
        {
            Scope scope(*this, "sim.replay");
            priced = replayBatch(*trace, group.configs, lanePool);
            scope.span.records = trace->size() * group.configs.size();
            scope.span.configs = group.configs.size();
            for (const SimConfig &config : group.configs)
                scope.span.realCaches |= !config.perfectCaches;
        }
        for (std::size_t i = 0; i < priced.size(); ++i) {
            publishCertified(*group.workload, *group.request, group.model,
                             group.configs[i], priced[i]);
            results_.seed(group.rkeys[i], std::move(priced[i]));
        }
    };
    if (groups.size() == 1) {
        runGroup(groups.front(), &pool_);
    } else {
        pool_.parallelFor(groups.size(), [&](std::size_t i) {
            runGroup(groups[i], nullptr);
        });
    }
}

WalkResult
Walker::run()
{
    WalkResult result;
    const std::uint64_t hits0 = store_ ? store_->hits() : 0;
    const std::uint64_t misses0 = store_ ? store_->misses() : 0;
    origin_ = Clock::now();
    for (std::size_t p = 0; p < plan_.phases.size(); ++p) {
        if (p > 0)
            traces_.clear();
        if (plan_.sweep)
            batch(plan_.phases[p]);
        for (const NamedRequest &named : plan_.phases[p])
            evaluate(named, result.cells);
    }
    result.wall = now();
    result.spans = std::move(spans_);
    result.passStats = passStats_.snapshot();
    result.resultHits = resultHits_.load();
    result.divergences = divergences_.load();
    if (store_ != nullptr) {
        result.storeHits = store_->hits() - hits0;
        result.storeMisses = store_->misses() - misses0;
    }
    return result;
}

} // namespace

WalkResult
tracedWalk(const Plan &plan, ArtifactStore *store)
{
    Walker walker(plan, store);
    return walker.run();
}

} // namespace perfbench
