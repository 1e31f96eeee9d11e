/**
 * @file
 * Persistent, content-addressed artifact store for captured traces.
 *
 * The keyed caches in SuiteEvaluator die with the process, so every
 * bench/CI/fuzz run repays the full emulation cost. This store makes
 * the packed trace the durable unit (the paper's own methodology:
 * emulate once, price many): a cell's TraceBuffer — interned
 * StaticOps, register pool, packed entry chunks, varint address side
 * stream, and the functional RunResult — is serialized once under a
 * SHA-256 content key and reloaded by later processes via mmap, so
 * ChunkCursor replays entry spans straight out of the page cache
 * with zero deserialization copies.
 *
 * Keys: sha256(source bytes ‖ cell key ‖ format version). The cell
 * key is the evaluator's canonical trace key and carries the model,
 * canonicalized AblationFlags, scale, machine, and fuel — machine
 * and fuel are included beyond the obvious axes because scheduling
 * latencies and the capture budget both change the dynamic stream.
 *
 * Robustness: every store file — artifact or certified record — is
 * published by one primitive: stage to a temp file, fsync, then an
 * atomic rename under an advisory flock. Readers validate magic,
 * version, declared length, and a 64-bit FNV-1a payload checksum
 * before trusting a single byte, bound every section against the
 * file size, and check every entry's static id against the ops
 * table (replay indexes rows by it unchecked). Any mismatch
 * quarantines the file (read-write mode) and reports a miss, so the
 * caller transparently recomputes and re-saves — corrupt artifacts
 * are repaired, never trusted.
 *
 * Provenance lives in one place: the certified result records
 * (saveResult / loadResult), sealed JSON under `results/`, one per
 * priced cell. Each names its trace by `trace_digest` (the
 * artifact's store key) and carries every digest that explains the
 * cell's figures. The evaluator serves a warm cell from its record
 * before touching any trace (driver/certified.hh), and
 * `predilp_diff` joins them across runs to classify figure drift.
 *
 * Counters (store.hit / store.miss / store.repair /
 * store.bytes_mapped / store.write / store.result_hit) export as a
 * StatsSnapshot through the same observability seam as everything
 * else. hit/miss count trace loads only; result_hit counts cells
 * served from certified records.
 */

#ifndef PREDILP_STORE_STORE_HH
#define PREDILP_STORE_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "support/json.hh"
#include "support/stats_registry.hh"
#include "trace/trace.hh"

namespace predilp
{

/** How (and whether) an evaluator uses the on-disk store. */
enum class StoreMode
{
    Off,       ///< no persistent caching.
    ReadOnly,  ///< load hits, never write or quarantine.
    ReadWrite, ///< load hits, save misses, quarantine corruption.
};

/**
 * Section map of one on-disk artifact, produced by inspectArtifact
 * after full validation. Lets tests and tooling target a specific
 * region (header, entry stream, varint stream, checksum) without
 * duplicating layout knowledge.
 */
struct ArtifactInfo
{
    std::uint32_t version = 0;
    std::uint64_t records = 0;
    std::size_t fileBytes = 0;
    /** Byte offset of the checksum field inside the header. */
    std::size_t checksumOffset = 0;
    /** Packed TraceEntry stream. */
    std::size_t entriesOffset = 0;
    std::size_t entriesBytes = 0;
    /** Zigzag-varint memory side stream. */
    std::size_t memOffset = 0;
    std::size_t memBytes = 0;
};

/** Persistent content-addressed trace store; see file comment. */
class ArtifactStore
{
  public:
    /**
     * Serialized trace format version. Part of every content key and
     * of the file header; bump on any layout or packing change (the
     * CI cache key in .github/workflows/ci.yml mirrors it).
     */
    static constexpr std::uint32_t formatVersion = 1;

    /**
     * Open (creating directories as needed) a store rooted at
     * @p dir. @p mode must not be Off.
     */
    ArtifactStore(std::string dir, StoreMode mode);

    StoreMode mode() const { return mode_; }
    const std::string &dir() const { return dir_; }

    /**
     * Content key for one trace cell: sha256 over the ILC source
     * bytes, the evaluator's canonical cell key (model, ablation,
     * scale, machine, fuel), and formatVersion.
     */
    static std::string keyFor(const std::string &sourceBytes,
                              const std::string &cellKey);

    /**
     * Load the artifact for @p key, or nullptr on miss. A present
     * but invalid file counts a repair, is quarantined (read-write
     * mode), and reports as a miss so the caller recomputes. On a
     * hit the returned buffer replays out of the file mapping.
     */
    std::shared_ptr<const TraceBuffer> load(const std::string &key);

    /**
     * Serialize @p buffer under @p key and publish it through the
     * store's one staged write→fsync→rename path. No-op (returning
     * false) in read-only mode; never throws — a filesystem refusal
     * degrades to a cold cache, not a failure.
     */
    bool save(const std::string &key, const TraceBuffer &buffer);

    /**
     * The retired sidecar signature, kept only for the benchmark
     * harness under perfbench/, which still passes a provenance JSON
     * string. Ignores the JSON and forwards to save(key, buffer).
     * Delete it when that harness moves to the two-argument form.
     */
    bool
    save(const std::string &key, const TraceBuffer &buffer,
         const std::string &)
    {
        return save(key, buffer);
    }

    /**
     * Publish @p record as a sealed certified-result record at
     * resultPath(key) via the same staged write→fsync→rename path.
     * Read-write mode only. Records are overwritten idempotently.
     * A torn record left by a crash fails its seal, so the evaluator
     * treats it as a miss, replays the cell and republishes it.
     */
    bool saveResult(const std::string &key, const JsonValue &record);

    /**
     * The sealed certified record at resultPath(key), or nullopt
     * when absent or failing seal validation. Whether the record
     * serves its cell is the caller's call (certifiedResult); a
     * served record is counted with countResultHit.
     */
    std::optional<JsonValue> loadResult(const std::string &key) const;

    /** Count one cell served from its certified record. */
    void countResultHit() { resultHits_.fetch_add(1); }

    /** Final on-disk path of @p key's artifact (for tests/GC). */
    std::string objectPath(const std::string &key) const;

    /** On-disk path of @p key's certified result record. */
    std::string resultPath(const std::string &key) const;

    /** store.* counters as a snapshot (the StatsRegistry seam). */
    StatsSnapshot stats() const;

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t repairs() const { return repairs_.load(); }
    std::uint64_t writes() const { return writes_.load(); }
    std::uint64_t bytesMapped() const { return bytesMapped_.load(); }
    std::uint64_t resultHits() const { return resultHits_.load(); }

  private:
    void quarantine(const std::string &path) const;

    std::string dir_;
    StoreMode mode_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> repairs_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> bytesMapped_{0};
    std::atomic<std::uint64_t> resultHits_{0};
};

/**
 * Validate the artifact at @p path (magic, version, length,
 * checksum, section bounds) and return its section map; nullopt when
 * the file is missing or fails any check.
 */
std::optional<ArtifactInfo>
inspectArtifact(const std::string &path);

/**
 * Seal a JSON object: return a copy with a `checksum` member equal
 * to "sha256:" + the hex digest of the record's canonical dump with
 * any existing `checksum` member removed. Sealed records are
 * self-validating — a reader needs no side channel to detect a torn
 * or tampered record.
 */
JsonValue sealRecord(const JsonValue &record);

/** True iff @p record is an object whose `checksum` member verifies
 * against the rest of the record (the sealRecord invariant). */
bool sealedRecordValid(const JsonValue &record);

/**
 * Read and parse @p path, returning the document only when it is a
 * valid sealed record; nullopt on missing file, parse error, or seal
 * mismatch. The one gate every sealed-record consumer goes through.
 */
std::optional<JsonValue> readSealedJson(const std::string &path);

} // namespace predilp

#endif // PREDILP_STORE_STORE_HH
