/**
 * @file
 * SuiteEvaluator: cached, parallel evaluation of the benchmark suite.
 *
 * Trace-once/replay-many: every (workload, model, machine,
 * ablation-flag) combination is compiled and functionally emulated at
 * most once per evaluator; the captured TraceBuffer is then replayed
 * under as many SimConfigs as callers request (perfect vs. real
 * caches, different BTBs, ...). Cache keys canonicalize ablation
 * flags that cannot affect a model's compilation (e.g. the OR-tree
 * flag for the Superblock model), so ablation sweeps reuse aggres-
 * sively. Reference (oracle) runs and priced SimResults are cached
 * too.
 *
 * With a persistent store a priced cell is looked up in four tiers,
 * cheapest first: the in-memory result cache, the cell's certified
 * record in the store (driver/certified.hh; a hit loads no trace
 * and replays nothing), the trace tier (in-memory, then the store's
 * mmap'd artifact), and finally compile + capture.
 *
 * Compilation itself is split: the model-independent front end
 * (parse + classical opt + primary profiling) is computed once per
 * (workload, scale) as a FrontendSnapshot and deep-cloned per model,
 * so the three models of a cell only pay for their model-specific
 * pass suffixes.
 *
 * Pricing has one path, evaluateBatch(): plan every cell of every
 * request (result-cache and certified-record hits drop out here),
 * group the rest by trace key, price each group with one
 * replayBatch() pass on the ThreadPool, and assemble the responses
 * in request order — so output is deterministic and identical for
 * every thread count. evaluate() is evaluateBatch() of one request.
 * Nothing is retried: a failing group fails exactly its own cells,
 * which the EvalPolicy then rethrows or isolates.
 */

#ifndef PREDILP_DRIVER_EVALUATOR_HH
#define PREDILP_DRIVER_EVALUATOR_HH

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/eval_request.hh"
#include "driver/report.hh"
#include "emu/decoded.hh"
#include "store/store.hh"
#include "support/stats_registry.hh"
#include "support/thread_pool.hh"
#include "support/timer.hh"
#include "trace/replay.hh"

namespace predilp
{

/** Per-phase wall-clock totals and cache counters. */
struct BenchTiming
{
    double compileSeconds = 0;  ///< prefix + model compiles.
    double captureSeconds = 0;  ///< trace-producing emulation + refs.
    double replaySeconds = 0;   ///< pricing captured traces.
    std::uint64_t compiles = 0; ///< model compilations finished.
    std::uint64_t prefixCompiles = 0; ///< front-end snapshots built.
    std::uint64_t prefixCacheHits = 0; ///< snapshot-cache hits.
    std::uint64_t captures = 0; ///< emulation runs (traces + refs).
    std::uint64_t replays = 0;  ///< replay passes priced.
    std::uint64_t traceCacheHits = 0;
    std::uint64_t resultCacheHits = 0;
    std::uint64_t traceBytes = 0; ///< resident captured-trace bytes.
    std::uint64_t tracePeakBytes = 0; ///< high-water resident bytes.
    std::uint64_t capturedBytes = 0;  ///< cumulative trace bytes.
    std::uint64_t capturedRecords = 0; ///< records ever captured.
    std::uint64_t replayedRecords = 0; ///< records priced by replays.
    std::uint64_t storeHits = 0;    ///< traces loaded from disk.
    std::uint64_t storeMisses = 0;  ///< store lookups that missed.
    std::uint64_t storeRepairs = 0; ///< corrupt artifacts replaced.
    std::uint64_t storeWrites = 0;  ///< artifacts published to disk.
    std::uint64_t storeBytesMapped = 0; ///< bytes mmap'd on hits.
    /// Cells served from their certified records (no replay).
    std::uint64_t storeResultHits = 0;
    double decodeSeconds = 0; ///< pre-decoding for the threaded engine.
    std::uint64_t decodes = 0; ///< DecodedPrograms built.
    std::uint64_t decodedCacheHits = 0; ///< decoded-cache hits.
    std::uint64_t decodedBytes = 0; ///< resident decoded-program bytes.
    std::uint64_t threadedRecords = 0; ///< records emulated threaded.
    std::uint64_t interpRecords = 0; ///< records emulated interpreted.
};

/**
 * How the evaluator handles failing cells. Strict (the default):
 * the first failure propagates out of evaluate() as its typed
 * exception. Isolated: a throwing cell degrades to a CellError
 * record on the BenchmarkResult — with a self-contained reproducer
 * file when reproducerDir is set — and every other cell completes
 * normally.
 */
struct EvalPolicy
{
    /** Degrade failing cells to CellError records. */
    bool isolateFaults = false;
    /** Run the IR verifier after every compiler pass. */
    bool verifyEachPass = false;
    /** Directory for reproducer files ("" = don't write any). */
    std::string reproducerDir;
    /**
     * Persistent artifact-store tier (second level under the
     * in-process trace cache). Off by default; the SuiteEvaluator
     * constructor seeds these from PREDILP_STORE /
     * PREDILP_STORE_MODE so benches and CI opt in without code
     * changes, and setPolicy can override both afterwards.
     */
    StoreMode storeMode = StoreMode::Off;
    /** Store root directory (ignored while storeMode is Off). */
    std::string storeDir;
};

/** Cached parallel evaluator; see file comment. */
class SuiteEvaluator
{
  public:
    /** @param threads 0 = PREDILP_THREADS env / hardware count. */
    explicit SuiteEvaluator(int threads = 0);

    /** Resolved parallelism. */
    int threadCount() const { return pool_.threadCount(); }

    /**
     * Replace the policy (failure handling + store tier). Call
     * before evaluating: the store is (re)opened here, not lazily.
     */
    void setPolicy(EvalPolicy policy);

    /** The active failure-handling policy. */
    const EvalPolicy &policy() const { return policy_; }

    /**
     * Evaluate one request: evaluateBatch({request}).front(). Runs
     * @p request's workloads (empty = whole suite) under its models
     * (empty = all three), each cell at the request's full SimConfig
     * plus the 1-issue Superblock baseline denominator.
     */
    EvalResponse evaluate(const EvalRequest &request);

    /**
     * The one pricing path, index-aligned with @p requests:
     *  - plan: resolve every workload name (unknown names throw
     *    FatalError before any compile), then walk each row's cells,
     *    baseline first. A cell whose result key is already priced
     *    (by an earlier call or an earlier cell of this one) counts
     *    a result-cache hit; one served by its certified record
     *    costs no trace; every other cell joins its trace-key group.
     *    Trace keys are machine-only, so cells that vary only
     *    cache/BTB/predictor axes share a group, as do the 1-issue
     *    baselines of a whole sweep.
     *  - price: one replayBatch() pass per group across the pool, so
     *    each trace is loaded and walked once for all its configs.
     *    A group that throws fails its own cells; nothing retries.
     *  - assemble in request order: the strict policy rethrows the
     *    first failed cell's exception; the isolated policy turns
     *    each failed cell into a CellError (its SimResult stays
     *    default) and completes the rest.
     */
    std::vector<EvalResponse>
    evaluateBatch(const std::vector<EvalRequest> &requests);

    /**
     * Drop all cached TraceBuffers (priced SimResults stay cached).
     * Call between workload batches to bound resident memory.
     */
    void releaseTraces();

    /** Accumulated phase timing and cache counters so far. */
    BenchTiming timing() const;

    /**
     * Per-pass compiler counters and timers (opt.*, superblock.*,
     * hyperblock.*, partial.*, sched.*, driver.profile.*) summed
     * over every compilation this evaluator performed. Counter
     * totals are deterministic for every thread count (each compile
     * records into a private registry, merged additively); the
     * *.seconds timer leaves are wall-clock and naturally vary.
     */
    StatsSnapshot compileStats() const;

    /** The persistent store tier, or nullptr when storeMode is Off. */
    const ArtifactStore *store() const { return store_.get(); }

  private:
    using TracePtr = std::shared_ptr<const TraceBuffer>;
    using SnapshotPtr = std::shared_ptr<const FrontendSnapshot>;
    using DecodedPtr = std::shared_ptr<const DecodedProgram>;

    /** (Re)open store_ to match policy_; Off closes it. */
    void openStore();

    /**
     * The shared front-end snapshot for (workload, scale): parse +
     * classical optimization + primary profiling, computed once and
     * resumed by every model/ablation compile of the cell
     * (compileFromSnapshot). Keyed only by workload and scale —
     * nothing in the prefix reads the model, machine, or ablation
     * flags.
     */
    SnapshotPtr snapshotFor(const Workload &workload,
                            const std::string &input, int scale,
                            std::uint64_t profileFuel);

    /**
     * The threaded engine's pre-decoded form of @p prog, cached by
     * the compile's identity (workload, scale, model, canonical
     * ablation flags, machine) — everything that determines the
     * compiled program, and nothing that doesn't (fuel): captures at
     * different budgets share one decode, like the front-end
     * snapshot cache shares one prefix across models. A
     * DecodedProgram is self-contained, so it may outlive @p prog.
     */
    DecodedPtr decodedFor(const Program &prog,
                          const std::string &key);

    TracePtr traceFor(const Workload &workload,
                      const EvalRequest &request, Model model,
                      const MachineConfig &machine,
                      const std::string &input, std::uint64_t fuel,
                      const std::string &key);
    RunResult referenceFor(const Workload &workload,
                           const std::string &input, int scale);

    EvalPolicy policy_;
    std::unique_ptr<ArtifactStore> store_;
    ThreadPool pool_;
    std::mutex mutex_;
    std::unordered_map<std::string, std::shared_future<TracePtr>>
        traces_;
    std::unordered_map<std::string, std::shared_future<RunResult>>
        references_;
    /**
     * Priced cells by result key. A plain map, not a cachedCompute
     * cache: one evaluateBatch call prices each key in exactly one
     * trace group, so there is no concurrent owner to wait on.
     */
    std::unordered_map<std::string, SimResult> results_;
    std::unordered_map<std::string, std::shared_future<SnapshotPtr>>
        snapshots_;
    std::unordered_map<std::string, std::shared_future<DecodedPtr>>
        decoded_;

    PhaseAccumulator compileTime_;
    PhaseAccumulator captureTime_;
    PhaseAccumulator replayTime_;
    PhaseAccumulator decodeTime_;
    std::atomic<std::uint64_t> compiles_{0};
    std::atomic<std::uint64_t> prefixCompiles_{0};
    std::atomic<std::uint64_t> prefixCacheHits_{0};
    std::atomic<std::uint64_t> captures_{0};
    std::atomic<std::uint64_t> replays_{0};
    std::atomic<std::uint64_t> traceCacheHits_{0};
    std::atomic<std::uint64_t> resultCacheHits_{0};
    std::atomic<std::uint64_t> referenceCacheHits_{0};
    std::atomic<std::uint64_t> traceBytes_{0};
    std::atomic<std::uint64_t> tracePeakBytes_{0};
    std::atomic<std::uint64_t> capturedBytes_{0};
    std::atomic<std::uint64_t> capturedRecords_{0};
    std::atomic<std::uint64_t> replayedRecords_{0};
    std::atomic<std::uint64_t> decodes_{0};
    std::atomic<std::uint64_t> decodedCacheHits_{0};
    std::atomic<std::uint64_t> decodedBytes_{0};
    std::atomic<std::uint64_t> threadedRecords_{0};
    std::atomic<std::uint64_t> interpRecords_{0};

    /** Merged per-compile pass stats (internally synchronized). */
    StatsRegistry compileStats_;
};

} // namespace predilp

#endif // PREDILP_DRIVER_EVALUATOR_HH
