/**
 * @file
 * Certified result records: the provenance identity of one priced
 * bench/sweep cell and its sealed, schema-tagged JSON record
 * (DESIGN.md §6k).
 *
 * The paper's headline claims are figure deltas, so the system of
 * record must make "did this number change, and why?" answerable
 * with evidence. Every cell the evaluator prices is published to the
 * store as a certified record: the cell's full provenance — source
 * hash, pass-pipeline digest, SimConfig digest, trace digest — plus
 * its deterministic figures, sealed with its own checksum
 * (store/store.hh sealRecord) and written through the staged
 * write→fsync→rename path. `predilp_diff` (driver/diff.hh) joins two
 * sets of these records by provenance identity and classifies every
 * figure delta as identical, explained by a named digest change, or
 * unexplained drift.
 *
 * The records are also the evaluator's second result tier: before
 * loading a trace, SuiteEvaluator looks a cell up by
 * certifiedResultKey and, when the record's schema and provenance
 * match, rebuilds the SimResult from it (certifiedResult) instead of
 * replaying. A warm store therefore serves whatever figures it
 * holds: a change to figure semantics *must* bump certSchemaTag, or
 * warm stores keep serving the old figures. CI's drift gate
 * re-prices every cell on the cached traces, so a forgotten bump
 * shows up there as unexplained drift.
 */

#ifndef PREDILP_DRIVER_CERTIFIED_HH
#define PREDILP_DRIVER_CERTIFIED_HH

#include <cstdint>
#include <optional>
#include <string>

#include "driver/pipeline.hh"
#include "support/json.hh"

namespace predilp
{

struct SimResult;

/**
 * Schema tag carried by every certified record and hashed into its
 * store key. Bump it on any intended change to record shape or
 * figure semantics (the cycle model, a counter's meaning): old and
 * new records then live under different keys, so the change
 * surfaces in predilp_diff as added/removed cells instead of
 * unexplained drift. The bump is mandatory, not cosmetic — warm
 * evaluators serve records straight from the store, so without it
 * they keep returning the old figures.
 *
 * v2 added the `run` member (exit value and output), which the
 * result tier needs to rebuild a complete SimResult.
 */
inline constexpr const char *certSchemaTag = "predilp-cert-v2";

/**
 * Everything that identifies one priced cell and everything that can
 * explain its figures changing. The identity members (workload,
 * model, scale, ablation, fuel, machine) say *which* cell; the
 * digest members say *why* its figures are what they are — a figure
 * change with all four digests equal is unexplained drift.
 */
struct CellProvenance
{
    std::string workload;       ///< workload name ("cmp").
    std::string model;          ///< modelKey() string.
    int scale = 1;              ///< input scale factor.
    std::string ablation;       ///< canonical AblationFlags::key().
    std::uint64_t fuel = 0;     ///< capture fuel (maxDynInstrs).
    std::string machine;        ///< machineIdentity() of the config.
    std::string sourceSha256;   ///< sha256 of the ILC source bytes.
    std::string pipelineDigest; ///< passPipelineDigest().
    std::string configDigest;   ///< SimConfig::configDigest().
    std::string traceDigest;    ///< ArtifactStore content key.

    /** Canonical JSON object (fixed member order). */
    JsonValue toJson() const;

    /** Join key for cross-run matching: the identity members only,
     * so two runs of the same cell compare even when digests moved. */
    std::string identityKey() const;
};

/**
 * Stable comma-joined rendering of the machine axes that key traces
 * and identify cells (the evaluator's cache keys use the same
 * string).
 */
std::string machineIdentity(const MachineConfig &machine);

/**
 * Digest of the exact pass list @p model compiles with under
 * @p ablation (canonicalized): "v1:" + truncated sha256 over the
 * ordered pass names. Changes whenever a pass is added, removed, or
 * reordered — the "compiler changed" leg of drift explanation.
 */
std::string passPipelineDigest(Model model,
                               const AblationFlags &ablation);

/** Store key of @p prov's certified record: sha256 over the schema
 * tag and the canonical provenance dump. */
std::string certifiedResultKey(const CellProvenance &prov);

/**
 * The deterministic figures of one priced cell: the replay's
 * headline counters plus every counter in its stats snapshot.
 * Timers are excluded — figures must be byte-identical across
 * identical runs or the drift gate could never hold.
 */
JsonValue certifiedFigures(const SimResult &sim);

/** The full (unsealed) certified record for one priced cell:
 * { schema, provenance, figures, run }, where run is the program's
 * { exit_value, output }. Seal and publish via
 * ArtifactStore::saveResult. */
JsonValue certifiedRecord(const CellProvenance &prov,
                          const SimResult &sim);

/**
 * Rebuild the SimResult that @p record certifies for the cell
 * @p prov: every headline counter, the exit value, the output and
 * the full stats counter snapshot, bit for bit. nullopt — a miss,
 * so the caller replays — unless the record's schema is
 * certSchemaTag, its provenance equals @p prov exactly, and every
 * member has the shape certifiedRecord writes.
 */
std::optional<SimResult> certifiedResult(const JsonValue &record,
                                         const CellProvenance &prov);

} // namespace predilp

#endif // PREDILP_DRIVER_CERTIFIED_HH
