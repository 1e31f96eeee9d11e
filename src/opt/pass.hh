/**
 * @file
 * The compiler's uniform pass seam. Every transformation the driver
 * pipeline runs — scalar cleanups, region formation, lowering,
 * scheduling — implements Pass, and a PassManager executes a
 * declarative list of them, recording wall time, change counts, and
 * before/after IR size for each run into a StatsRegistry
 * (support/stats_registry.hh). The per-pass counter scope is the
 * pass's name: pass "opt.cse" owns `opt.cse.seconds`,
 * `opt.cse.changes`, ..., and may register extra counters of its own
 * (e.g. `opt.cse.removed`) through PassContext::stats.
 *
 * Scalar passes that iterate to a fixpoint are grouped with
 * addFixpoint(). The group runs in rounds over an active set of
 * functions: a function leaves the set once a round leaves its IR
 * exactly unchanged (or its members report no changes), up to an
 * iteration cap. Every member is a function-local, deterministic
 * FunctionPass, so a function at rest would repeat its last round
 * forever, and stopping it yields the IR the capped loop yields.
 */

#ifndef PREDILP_OPT_PASS_HH
#define PREDILP_OPT_PASS_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/profile.hh"
#include "ir/program.hh"
#include "support/stats_registry.hh"

namespace predilp
{

/** What one pass invocation did. */
struct PassResult
{
    /** Number of individual rewrites (0 = nothing changed). */
    std::uint64_t changes = 0;

    bool changed() const { return changes != 0; }
};

/**
 * Shared state threaded through a pass pipeline: the stats registry
 * every pass records into, plus the execution profiles
 * profile-guided passes consume. The driver's ProfilePass fills
 * these; `profile` is the pre-formation profile (used by region
 * selection and final layout), `regionProfile` is re-measured on the
 * formed code (used by branch combining and unrolling, whose
 * decisions depend on instruction ids created during formation).
 */
struct PassContext
{
    explicit PassContext(StatsRegistry &statsRegistry)
        : stats(statsRegistry)
    {}

    StatsRegistry &stats;

    /**
     * When set, the IR verifier runs after every pass invocation
     * (including fixpoint-group members) and a violation throws
     * VerifyError naming the offending pass and the first broken
     * invariant. Off by default — it is meant for the differential
     * fuzz oracle, debugging, and tests, not the benchmark hot path.
     */
    bool verifyAfterEach = false;

    /** Pre-formation profile; null until a ProfilePass runs. */
    std::unique_ptr<ProgramProfile> profile;

    /** Post-formation re-profile; null until refreshed. */
    std::unique_ptr<ProgramProfile> regionProfile;

    /** Input fed to profiling emulation runs. */
    std::string profileInput;

    /** Emulator fuel for profiling runs. */
    std::uint64_t profileFuel = 2'000'000'000ull;

    /**
     * @return the freshest profile available — the re-measured
     * region profile when present, else the pre-formation profile;
     * null before any profiling pass ran.
     */
    const ProgramProfile *
    freshestProfile() const
    {
        if (regionProfile)
            return regionProfile.get();
        return profile.get();
    }
};

/** One unit of program transformation behind the uniform seam. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /**
     * Dotted stats scope and display name, e.g. "opt.cse" or
     * "hyperblock.form". Must be stable across invocations.
     */
    virtual std::string name() const = 0;

    /** Transform @p prog; @return what changed. */
    virtual PassResult run(Program &prog, PassContext &ctx) = 0;
};

/**
 * A pass that operates function-at-a-time with no cross-function
 * effects. run() maps runOnFunction over the program in layout
 * order.
 */
class FunctionPass : public Pass
{
  public:
    PassResult run(Program &prog, PassContext &ctx) final;

    /** @return number of rewrites performed in @p fn. */
    virtual std::uint64_t runOnFunction(Function &fn,
                                        PassContext &ctx) = 0;
};

/** Iteration cap of a fixpoint group (see addFixpoint). */
constexpr int defaultFixpointCap = 10;

/**
 * Run @p group to a fixpoint over @p fns in rounds: each round runs
 * every member, behind the instrumentation seam of runInstrumented,
 * over the functions still active. A function leaves the active set
 * when the round leaves its exact encoding (registers, ids, layout,
 * blocks, every instruction field) unchanged or its members report
 * no changes; the loop ends when the set is empty or after
 * @p maxIters rounds. Records <groupName>.iterations (rounds run).
 * @p prog, when non-null, is passed to the post-member verifier.
 */
PassResult
runFixpoint(const std::string &groupName,
            std::vector<std::unique_ptr<FunctionPass>> &group,
            const std::vector<Function *> &fns, const Program *prog,
            PassContext &ctx, int maxIters = defaultFixpointCap);

/**
 * Runs a declarative list of passes in order, wrapping every
 * invocation in the uniform instrumentation seam. For a pass named
 * P, each run records into the registry:
 *   P.seconds        wall time (timer)
 *   P.runs           invocations
 *   P.changes        total rewrites reported
 *   P.changed_runs   invocations that changed anything
 *   P.instrs_removed / P.instrs_added   program-size delta
 * Fixpoint groups additionally record <group>.iterations; each of
 * their rounds is one run of every member.
 */
class PassManager
{
  public:
    PassManager() = default;

    /** Append one pass. */
    void add(std::unique_ptr<Pass> pass);

    /**
     * Append a group of function passes iterated to a per-function
     * fixpoint by runFixpoint, up to @p maxIters rounds.
     * @p groupName scopes the group's own counters
     * (<group>.iterations).
     */
    void addFixpoint(std::string groupName,
                     std::vector<std::unique_ptr<FunctionPass>> group,
                     int maxIters = defaultFixpointCap);

    /** Top-level pass names, in execution order. */
    std::vector<std::string> passNames() const;

    /** Run every pass on @p prog. @return aggregate changes. */
    PassResult run(Program &prog, PassContext &ctx);

    /**
     * Run only the pass at @p index in passNames() order, as run()
     * would — for drivers that inspect the IR between passes.
     */
    PassResult runPass(std::size_t index, Program &prog,
                       PassContext &ctx);

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

/** Total instruction count of @p prog (all functions, all blocks). */
std::uint64_t programInstrCount(const Program &prog);

/**
 * Run @p pass once behind the uniform instrumentation seam
 * (the same recording PassManager::run applies). Exposed for
 * fixpoint-style custom drivers.
 */
PassResult runInstrumented(Pass &pass, Program &prog,
                           PassContext &ctx);

} // namespace predilp

#endif // PREDILP_OPT_PASS_HH
