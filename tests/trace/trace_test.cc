/**
 * @file
 * Trace capture/replay tests. capture()'s buffer, walked with a
 * ChunkCursor, must yield exactly the interpreter's DynRecord stream
 * — interned in order into a fresh StaticIndex — as (id, flags,
 * memAddr) triples under both emulator backends, for every model.
 * Replaying one buffer twice must agree, and a buffer must replay
 * after its program is gone. The chunked storage must survive
 * chunk-boundary rollover in both streams. The packed 4-byte entry
 * format and the zigzag-varint memory side stream get direct
 * edge-case coverage: negative deltas, >32-bit addresses, and static
 * ids beyond the 29-bit packing limit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "driver/pipeline.hh"
#include "sim/timing.hh"
#include "support/logging.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace predilp
{
namespace
{

void
expectSimEq(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.nullified, b.nullified);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    EXPECT_EQ(a.exitValue, b.exitValue);
    EXPECT_EQ(a.output, b.output);
    // The detailed sim.* machine counters must agree leaf for leaf.
    EXPECT_EQ(a.stats.counters(), b.stats.counters());
}

std::unique_ptr<Program>
compiledWorkload(const Workload &workload, Model model,
                 const std::string &input)
{
    CompileOptions opts;
    opts.model = model;
    opts.machine = issue8Branch1();
    opts.profileInput = input;
    return compileForModel(workload.source, opts);
}

/** One dynamic record as the cycle model sees it. */
struct Rec
{
    std::uint32_t id = 0;
    std::uint32_t flags = 0;
    std::int64_t memAddr = 0; ///< 0 unless traceHasMemAddr.

    bool operator==(const Rec &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Rec &rec)
{
    return os << "{id " << rec.id << ", flags " << rec.flags
              << ", addr " << rec.memAddr << "}";
}

/** Every record of @p buffer, in order, through a ChunkCursor. */
std::vector<Rec>
walk(const TraceBuffer &buffer)
{
    std::vector<Rec> out;
    TraceBuffer::ChunkCursor cursor(buffer);
    const TraceEntry *entries = nullptr;
    std::size_t count = 0;
    const std::int64_t *addrs = nullptr;
    while (cursor.next(entries, count, addrs)) {
        for (std::size_t i = 0; i < count; ++i) {
            Rec rec{entries[i].staticId(), entries[i].flags(), 0};
            if ((rec.flags & traceHasMemAddr) != 0)
                rec.memAddr = *addrs++;
            out.push_back(rec);
        }
    }
    return out;
}

/** @p got must equal @p want; report the first record that differs. */
void
expectSameStream(const std::vector<Rec> &got,
                 const std::vector<Rec> &want)
{
    ASSERT_EQ(got.size(), want.size());
    auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin());
    if (g != got.end()) {
        ADD_FAILURE() << "record " << (g - got.begin()) << ": got "
                      << *g << ", want " << *w;
    }
}

/**
 * The reference stream: the interpreter's DynRecords, interned in
 * execution order into a fresh StaticIndex.
 */
class StreamRecorder : public TraceSink
{
  public:
    explicit StreamRecorder(const Program &prog) : index(prog) {}

    void
    onInstr(const DynRecord &record) override
    {
        records.push_back(
            {index.intern(record.fn, record.instr),
             traceFlagsOf(record),
             record.hasMemAddr ? record.memAddr : 0});
    }

    StaticIndex index;
    std::vector<Rec> records;
};

TEST(Capture, ChunkStreamMatchesInterpreterRecordsEveryModel)
{
    for (const char *name : {"cmp", "wc", "qsort"}) {
        const Workload *workload = findWorkload(name);
        ASSERT_NE(workload, nullptr);
        std::string input = workload->makeInput(1);
        for (Model model : {Model::Superblock, Model::CondMove,
                            Model::FullPred}) {
            auto prog = compiledWorkload(*workload, model, input);
            StreamRecorder recorder(*prog);
            EmuOptions opts;
            opts.sink = &recorder;
            opts.backend = EmuBackend::Interp;
            RunResult run = Emulator(*prog).run(input, opts);
            ASSERT_FALSE(recorder.records.empty());

            for (EmuBackend backend :
                 {EmuBackend::Interp, EmuBackend::Threaded}) {
                SCOPED_TRACE(workload->name + "/" + modelName(model) +
                             "/" + emuBackendName(backend));
                auto buffer =
                    capture(*prog, input, 2'000'000'000ull, backend);
                expectSameStream(walk(*buffer), recorder.records);
                EXPECT_EQ(buffer->run().exitValue, run.exitValue);
                EXPECT_EQ(buffer->run().output, run.output);

                // Same ids must name the same static instructions.
                const StaticIndex &got = buffer->index();
                ASSERT_EQ(got.size(), recorder.index.size());
                for (std::uint32_t id = 0; id < got.size(); ++id) {
                    const StaticOp &x = got.op(id);
                    const StaticOp &y = recorder.index.op(id);
                    EXPECT_EQ(x.addr, y.addr) << "id " << id;
                    EXPECT_EQ(x.op, y.op) << "id " << id;
                    EXPECT_EQ(x.kind, y.kind) << "id " << id;
                }
            }
        }
    }
}

TEST(Replay, SameBufferTwiceAgrees)
{
    const Workload *workload = findWorkload("qsort");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::FullPred, input);
    auto buffer = capture(*prog, input);
    SimConfig sim;
    sim.machine = issue8Branch1();
    expectSimEq(replay(*buffer, sim), replay(*buffer, sim));
}

TEST(Replay, BufferIsSelfContained)
{
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::Superblock, input);
    SimConfig sim;
    sim.machine = issue8Branch1();
    sim.perfectCaches = false;
    auto buffer = capture(*prog, input);
    SimResult before = replay(*buffer, sim);
    prog.reset(); // replay must not touch the IR.
    expectSimEq(before, replay(*buffer, sim));
}

TEST(TraceEntryPacking, RoundTripsIdAndFlags)
{
    const std::uint32_t allFlags =
        traceNullified | traceTaken | traceHasMemAddr;
    for (std::uint32_t id : {0u, 1u, 976u, traceMaxStaticId}) {
        for (std::uint32_t flags :
             {0u, traceNullified, traceTaken, traceHasMemAddr,
              allFlags}) {
            TraceEntry entry = makeTraceEntry(id, flags);
            EXPECT_EQ(entry.staticId(), id);
            EXPECT_EQ(entry.flags(), flags);
        }
    }
    EXPECT_EQ(sizeof(TraceEntry), 4u);
}

TEST(TraceEntryPacking, RejectsIdBeyond29Bits)
{
    // Ids at the 29-bit boundary must be rejected with a clear
    // error, never silently truncated into the flag bits.
    EXPECT_NO_THROW(makeTraceEntry(traceMaxStaticId, traceTaken));
    EXPECT_THROW(makeTraceEntry(traceMaxStaticId + 1, 0),
                 PanicError);
    EXPECT_THROW(makeTraceEntry(0xFFFFFFFFu, 0), PanicError);

    Program prog;
    TraceBuffer buffer(prog);
    EXPECT_THROW(buffer.append(traceMaxStaticId + 1, 0, 0),
                 PanicError);
}

TEST(Varint, ZigzagRoundTripsExtremes)
{
    const std::int64_t cases[] = {
        0,
        1,
        -1,
        63,
        -64,
        // Deltas beyond 32 bits in both directions.
        (std::int64_t{1} << 40) + 123,
        -((std::int64_t{1} << 40) + 123),
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
    };
    for (std::int64_t v : cases) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v) << v;
        std::vector<std::uint8_t> bytes;
        appendVarint(bytes, zigzagEncode(v));
        EXPECT_LE(bytes.size(), 10u);
        const std::uint8_t *p = bytes.data();
        EXPECT_EQ(zigzagDecode(
                      decodeVarint(p, bytes.data() + bytes.size())),
                  v)
            << v;
        EXPECT_EQ(p, bytes.data() + bytes.size());
    }
    // Small magnitudes must stay small on the wire.
    std::vector<std::uint8_t> small;
    appendVarint(small, zigzagEncode(-3));
    EXPECT_EQ(small.size(), 1u);
}

TEST(Varint, MalformedStreamsThrowInsteadOfOverrunning)
{
    // Every proper prefix of a valid encoding ends mid-value and
    // must throw, with the cursor never advanced past `end`.
    std::vector<std::uint8_t> bytes;
    appendVarint(bytes,
                 zigzagEncode((std::int64_t{1} << 40) + 12345));
    ASSERT_GT(bytes.size(), 1u);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::uint8_t *p = bytes.data();
        const std::uint8_t *end = bytes.data() + len;
        EXPECT_THROW(decodeVarint(p, end), TraceCorruptError)
            << "prefix length " << len;
        EXPECT_LE(p, end);
    }

    // A runaway stream of continuation bytes must be rejected once
    // its bits exceed the 64-bit range, not decoded forever.
    std::vector<std::uint8_t> runaway(16, 0x80);
    const std::uint8_t *p = runaway.data();
    EXPECT_THROW(
        decodeVarint(p, runaway.data() + runaway.size()),
        TraceCorruptError);
}

TEST(TraceBuffer, MemStreamHandlesNegativeAndWideDeltas)
{
    Program prog;
    TraceBuffer buffer(prog);
    // Address sequence exercising negative deltas, >32-bit jumps,
    // and a return to small addresses.
    const std::int64_t addrs[] = {
        0x1000,
        0x0008,                      // negative delta.
        (std::int64_t{1} << 41) + 5, // >32-bit address.
        (std::int64_t{1} << 41) - 3, // negative delta at altitude.
        16,                          // huge negative delta.
        16,                          // zero delta.
    };
    std::vector<Rec> appended;
    for (std::int64_t addr : addrs) {
        buffer.append(7, traceHasMemAddr, addr);
        appended.push_back({7, traceHasMemAddr, addr});
    }
    expectSameStream(walk(buffer), appended);
}

TEST(TraceBuffer, ChunkCursorSurvivesChunkRollover)
{
    Program prog;
    TraceBuffer buffer(prog);
    // Enough records to roll both streams over several chunks; every
    // third record carries a memory address.
    const std::uint64_t n = 3 * TraceBuffer::chunkEntries + 17;
    std::vector<Rec> appended;
    for (std::uint64_t i = 0; i < n; ++i) {
        Rec rec{static_cast<std::uint32_t>(i % 977),
                (i % 3 == 0) ? traceHasMemAddr : traceTaken, 0};
        if (i % 3 == 0)
            rec.memAddr = static_cast<std::int64_t>(i * 8);
        buffer.append(rec.id, rec.flags,
                      static_cast<std::int64_t>(i * 8));
        appended.push_back(rec);
    }
    EXPECT_EQ(buffer.size(), n);
    EXPECT_EQ(buffer.chunkCount(), 4u);
    EXPECT_EQ(buffer.chunk(3).entryCount, 17u);
    expectSameStream(walk(buffer), appended);
}

TEST(TraceBuffer, ChunkCursorMatchesAppendedSequence)
{
    Program prog;
    TraceBuffer buffer(prog);
    const std::uint64_t n = 2 * TraceBuffer::chunkEntries + 311;
    std::vector<Rec> appended;
    for (std::uint64_t i = 0; i < n; ++i) {
        Rec rec{static_cast<std::uint32_t>(i % 131),
                (i % 5 == 0) ? traceHasMemAddr : 0u, 0};
        // Alternate small and large strides so deltas change sign
        // and width across chunk boundaries.
        std::int64_t addr = (i % 2 == 0)
                                ? static_cast<std::int64_t>(i * 8)
                                : (std::int64_t{1} << 36) -
                                      static_cast<std::int64_t>(i);
        if (rec.flags != 0)
            rec.memAddr = addr;
        buffer.append(rec.id, rec.flags, addr);
        appended.push_back(rec);
    }
    expectSameStream(walk(buffer), appended);

    // Without address decode the entry spans are the same and no
    // address run is handed out.
    TraceBuffer::ChunkCursor entriesOnly(buffer, false);
    const TraceEntry *entries = nullptr;
    std::size_t count = 0;
    const std::int64_t *addrs = nullptr;
    std::uint64_t seen = 0;
    while (entriesOnly.next(entries, count, addrs)) {
        EXPECT_EQ(addrs, nullptr);
        for (std::size_t i = 0; i < count; ++i, ++seen) {
            EXPECT_EQ(entries[i].staticId(), appended[seen].id);
            EXPECT_EQ(entries[i].flags(), appended[seen].flags);
        }
    }
    EXPECT_EQ(seen, n);
}

TEST(TraceBuffer, PackedFormatShrinksFootprint)
{
    const Workload *workload = findWorkload("wc");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::Superblock, input);
    auto buffer = capture(*prog, input);
    ASSERT_GT(buffer->size(), 0u);
    // 4 bytes per entry plus the varint side stream: well under the
    // 8 bytes per entry + 8 bytes per address of the old format.
    EXPECT_LT(buffer->memoryBytes(), buffer->size() * 6);
}

TEST(TraceBuffer, RecordsFunctionalRun)
{
    const Workload *workload = findWorkload("wc");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::Superblock, input);
    auto buffer = capture(*prog, input);
    RunResult reference = runReference(workload->source, input);
    EXPECT_EQ(buffer->run().output, reference.output);
    EXPECT_EQ(buffer->run().exitValue, reference.exitValue);
    EXPECT_GT(buffer->size(), 0u);
    EXPECT_GT(buffer->memoryBytes(), 0u);
}

} // namespace
} // namespace predilp
