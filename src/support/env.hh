/**
 * @file
 * EnvConfig: the one documented place every PREDILP_* environment
 * variable is read. Callers used to scatter getenv() calls
 * (SuiteEvaluator for the store, ThreadPool for parallelism, the
 * emulator for backend selection); they all go through
 * EnvConfig::fromEnvironment() now, so the full environment surface
 * is this struct's field list:
 *
 *   PREDILP_STORE       artifact-store root directory ("" = store
 *                       tier off unless set programmatically).
 *   PREDILP_STORE_MODE  "rw" (default; also unset/empty) =
 *                       read-write, "ro" = read-only. Read raw
 *                       here; SuiteEvaluator's constructor, the
 *                       only store reader, throws FatalError on
 *                       any other value.
 *   PREDILP_THREADS     worker-thread override for auto-sized
 *                       ThreadPools; <= 0 or unparsable values are
 *                       warned about and ignored.
 *   PREDILP_EMU         emulator backend: "threaded" (default;
 *                       also unset/empty) = pre-decoded threaded
 *                       engine, "interp" = switch-dispatch
 *                       interpreter. Read raw here;
 *                       defaultEmuBackend() throws FatalError on
 *                       any other value.
 *   PREDILP_FAULTS      deterministic fault-injection spec (see
 *                       support/faultpoint.hh for the grammar);
 *                       unset/empty = no fault points armed.
 *
 * fromEnvironment() re-reads the environment on every call (tests
 * setenv() between constructions); callers that want one-time
 * resolution cache the result themselves, as defaultEmuBackend()
 * does.
 */

#ifndef PREDILP_SUPPORT_ENV_HH
#define PREDILP_SUPPORT_ENV_HH

#include <string>

namespace predilp
{

/** Snapshot of the PREDILP_* environment; see file comment. */
struct EnvConfig
{
    /** PREDILP_STORE ("" when unset). */
    std::string storeDir;

    /** Raw PREDILP_STORE_MODE value ("" when unset). */
    std::string storeMode;

    /** Validated PREDILP_THREADS (0 = unset/invalid = auto). */
    int threads = 0;

    /** Raw PREDILP_EMU value ("" when unset). */
    std::string emuBackend;

    /** Raw PREDILP_FAULTS spec ("" when unset). */
    std::string faultSpec;

    /** Read (and validate) the current environment. */
    static EnvConfig fromEnvironment();
};

} // namespace predilp

#endif // PREDILP_SUPPORT_ENV_HH
