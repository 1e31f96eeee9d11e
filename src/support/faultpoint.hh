/**
 * @file
 * Named, deterministic fault points: failure as a first-class input.
 *
 * Every risky seam in the system — store publish/validate/mmap,
 * evaluator compile/capture/replay, threaded-emulator entry —
 * declares a FAULT_POINT("dotted.name"). In a normal run the macro
 * is a single relaxed atomic load (nothing is armed, nothing else
 * happens, unmeasurable against the bench floors). When the
 * PREDILP_FAULTS spec arms a point, reaching it fires a
 * deterministic failure, so crash-recovery paths that would
 * otherwise only run on rare hardware or kernel misbehaviour are
 * exercised on purpose, in tests and CI, every day.
 *
 * Spec grammar (the PREDILP_FAULTS environment variable; entries
 * separated by ',' or ';'):
 *
 *   <name>=<trigger>[:<action>]
 *
 *   trigger  once            fire on the first hit only
 *            nth:K           fire on the K-th hit only (1-based)
 *            prob:P[@seed]   fire each hit with probability P,
 *                            deterministically derived from the
 *                            seed and the hit index (P in [0,1])
 *   action   throw           throw FaultInjectedError    [default]
 *            crash           SIGKILL the calling process
 *            short-write     cooperative: the call site truncates
 *                            the write it was about to make
 *            delay[:MS]      sleep MS milliseconds (default 100)
 *
 * Example:
 *   PREDILP_FAULTS='store.publish.rename=once:crash,
 *                   eval.replay.batch=nth:3'
 *
 * Hit and fire counters are process-local atomics, reset on every
 * arm: "once" means once per process, so a run that hit an armed
 * fault converges when re-run disarmed (or in a fresh process).
 *
 * Points must be declared in knownPoints() (names are validated at
 * arm time, so a typo in a spec fails loudly instead of silently
 * never firing). Names starting with "test." are exempt, for tests
 * that exercise the registry itself.
 *
 * Thread-safety: arming is not concurrent with polling (arm at
 * process start or test setup); after arming, poll() is lock-free
 * and safe from any thread. Counters export as fault.<name>.hits /
 * fault.<name>.fired through stats().
 */

#ifndef PREDILP_SUPPORT_FAULTPOINT_HH
#define PREDILP_SUPPORT_FAULTPOINT_HH

#include <atomic>
#include <string>
#include <vector>

#include "support/diag.hh"
#include "support/stats_registry.hh"

namespace predilp
{

/**
 * The failure a fired fault point injects when its action is
 * "throw". Derives from Error, so every recoverable-failure path
 * (cell isolation, store quarantine) treats it exactly like the
 * organic failure it stands in for.
 */
class FaultInjectedError : public Error
{
  public:
    explicit FaultInjectedError(const std::string &point)
        : Error("injected fault at " + point), point_(point)
    {}

    /** The fault point that fired. */
    const std::string &point() const { return point_; }

  private:
    std::string point_;
};

namespace faultpoints
{

/** What a fired fault point asks the call site to do. */
enum class FaultAction : std::uint8_t
{
    None,       ///< not armed / trigger did not fire.
    Throw,      ///< caller should throw (trigger() does it).
    Crash,      ///< handled internally: SIGKILL, never returns.
    ShortWrite, ///< caller truncates the write it was about to do.
    Delay,      ///< handled internally: sleep, then None returned.
};

namespace detail
{
extern std::atomic<bool> anyArmed;
FaultAction pollSlow(const char *name);
} // namespace detail

/**
 * Evaluate @p name against the armed spec. Crash and Delay actions
 * are consumed internally (Crash never returns; Delay sleeps and
 * reports None); Throw and ShortWrite are returned for the caller
 * to apply. The not-armed fast path is one relaxed atomic load.
 */
inline FaultAction
poll(const char *name)
{
    if (!detail::anyArmed.load(std::memory_order_relaxed))
        return FaultAction::None;
    return detail::pollSlow(name);
}

/**
 * poll() and throw FaultInjectedError when the action is Throw.
 * ShortWrite at a site that cannot cooperate degrades to Throw too:
 * an armed fault must never be silently swallowed.
 */
void trigger(const char *name);

/**
 * Parse @p spec and arm it, replacing whatever was armed before
 * (an empty spec disarms everything). Throws FatalError on grammar
 * errors or unknown point names. Not concurrent with poll().
 */
void armFromSpec(const std::string &spec);

/**
 * Arm from the PREDILP_FAULTS environment variable, once per
 * process; later calls are no-ops. Returns true when a non-empty
 * spec is armed after the call.
 */
bool armFromEnv();

/** Disarm everything and forget the armFromEnv() latch (tests). */
void resetForTest();

/** True when any point is armed. */
inline bool
armed()
{
    return detail::anyArmed.load(std::memory_order_relaxed);
}

/**
 * Every instrumented fault-point name, the authoritative list the
 * kill matrix (scripts/fault_ci.sh) iterates and arm-time
 * validation checks against. Extend it when instrumenting a new
 * seam.
 */
const std::vector<std::string> &knownPoints();

/**
 * fault.<name>.hits (times the point was reached while armed) and
 * fault.<name>.fired (times it injected its action) for every
 * armed point.
 */
StatsSnapshot stats();

} // namespace faultpoints

/**
 * Declare a fault point. Free when nothing is armed; throws
 * FaultInjectedError / crashes / delays per the armed spec.
 */
#define FAULT_POINT(name) ::predilp::faultpoints::trigger(name)

} // namespace predilp

#endif // PREDILP_SUPPORT_FAULTPOINT_HH
