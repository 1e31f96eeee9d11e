#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.hh"
#include "ir/function.hh"
#include "opt/passes.hh"

namespace predilp
{

namespace
{

/** Most sources any value-numbered opcode takes (Select has 3). */
constexpr std::size_t maxKeySrcs = 4;

/** @return true when @p instr is eligible for value numbering. */
bool
cseEligible(const Instruction &instr)
{
    const auto &info = instr.info();
    if (!instr.dest().valid())
        return false;
    if (info.sideEffect || instr.isControlTransfer() ||
        instr.isCall() || instr.isPredDefine() || instr.isPredAll()) {
        return false;
    }
    if (instr.isStore())
        return false;
    if (instr.op() == Opcode::GetC)
        return false;
    // Conditional moves merge with the old destination value, so
    // their "result" is not a pure function of the sources.
    if (info.isCondMove)
        return false;
    return instr.srcs().size() <= maxKeySrcs;
}

/**
 * The value a pure instruction computes, as integers: opcode,
 * speculative flag, guard, each source's kind and payload (float
 * immediates by bit pattern) and, for loads, the memory epoch. Two
 * instructions compute the same value exactly when their keys are
 * equal.
 */
struct ExprKey
{
    /** Opcode, speculative flag, source count and source kinds. */
    std::uint64_t head = 0;
    std::uint64_t guard = 0;
    std::uint64_t memEpoch = 0;
    std::array<std::uint64_t, maxKeySrcs> payload{};

    bool operator==(const ExprKey &) const = default;
};

struct ExprKeyHash
{
    std::size_t
    operator()(const ExprKey &key) const noexcept
    {
        std::uint64_t h = key.head;
        auto mix = [&h](std::uint64_t word) {
            h ^= word + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        };
        mix(key.guard);
        mix(key.memEpoch);
        for (std::uint64_t word : key.payload)
            mix(word);
        return static_cast<std::size_t>(h);
    }
};

ExprKey
makeKey(const Instruction &instr, int memEpoch)
{
    ExprKey key;
    key.head = static_cast<std::uint64_t>(instr.op()) |
               (instr.speculative() ? 1ull : 0ull) << 8 |
               static_cast<std::uint64_t>(instr.srcs().size()) << 9;
    key.guard = instr.guard().packed();
    if (instr.isLoad())
        key.memEpoch = static_cast<std::uint64_t>(memEpoch);
    for (std::size_t i = 0; i < instr.srcs().size(); ++i) {
        const Operand &src = instr.src(i);
        key.head |= static_cast<std::uint64_t>(src.kind())
                    << (16 + 2 * i);
        switch (src.kind()) {
          case Operand::Kind::None:
            break;
          case Operand::Kind::Register:
            key.payload[i] = src.reg().packed();
            break;
          case Operand::Kind::Imm:
            key.payload[i] = static_cast<std::uint64_t>(src.immValue());
            break;
          case Operand::Kind::FImm:
            key.payload[i] =
                std::bit_cast<std::uint64_t>(src.fimmValue());
            break;
        }
    }
    return key;
}

/**
 * An available expression: its result register and every register it
 * mentions (result, guard, register sources).
 */
struct Available
{
    Reg dest;
    std::array<Reg, maxKeySrcs + 2> mentions;
    std::size_t numMentions = 0;

    explicit Available(const Instruction &instr) : dest(instr.dest())
    {
        mentions[numMentions++] = dest;
        if (instr.guarded())
            mentions[numMentions++] = instr.guard();
        for (const auto &src : instr.srcs()) {
            if (src.isReg())
                mentions[numMentions++] = src.reg();
        }
    }

    /** @return true when a register of the sorted @p regs is named. */
    bool
    mentionsAny(const std::vector<Reg> &regs) const
    {
        return std::any_of(
            mentions.begin(), mentions.begin() + numMentions,
            [&](Reg reg) {
                return std::binary_search(regs.begin(), regs.end(), reg);
            });
    }
};

} // namespace

int
localCSE(Function &fn)
{
    int changes = 0;
    std::vector<Reg> defs;
    std::unordered_map<ExprKey, Available, ExprKeyHash> available;

    for (BlockId id : fn.layout()) {
        available.clear();
        int memEpoch = 0;

        for (auto &instr : fn.block(id)->instrs()) {
            // A hit becomes a mov of the available value: not recorded.
            bool record = false;
            ExprKey key;
            if (cseEligible(instr)) {
                key = makeKey(instr, memEpoch);
                auto hit = available.find(key);
                if (hit != available.end()) {
                    bool isFloat =
                        instr.dest().cls() == RegClass::Float;
                    Reg guard = instr.guard();
                    Reg dest = instr.dest();
                    Operand src(hit->second.dest);
                    instr.setOp(isFloat ? Opcode::FMov
                                        : Opcode::Mov);
                    instr.srcs().clear();
                    instr.addSrc(src);
                    instr.setDest(dest);
                    instr.setGuard(guard);
                    instr.setSpeculative(false);
                    changes += 1;
                } else {
                    record = true;
                }
            }

            if (instr.isStore() || instr.isCall() ||
                instr.op() == Opcode::ReadBlock) {
                memEpoch += 1;
            }

            // Any definition invalidates expressions using or
            // producing the defined registers.
            defs.clear();
            collectDefs(instr, fn, defs);
            if (!defs.empty() && !available.empty()) {
                std::sort(defs.begin(), defs.end());
                std::erase_if(available, [&](const auto &entry) {
                    return entry.second.mentionsAny(defs);
                });
            }

            // Never record an instruction that reads its own
            // destination: the recorded key would describe the
            // pre-update value of the register.
            bool selfRef = false;
            for (const auto &src : instr.srcs()) {
                if (src.isReg() && src.reg() == instr.dest())
                    selfRef = true;
            }
            if (record && !instr.guarded() && !selfRef)
                available.emplace(key, Available(instr));
        }
    }
    return changes;
}

namespace
{

class CSEPass : public FunctionPass
{
  public:
    std::string name() const override { return "opt.cse"; }

    std::uint64_t
    runOnFunction(Function &fn, PassContext &ctx) override
    {
        auto removed = static_cast<std::uint64_t>(localCSE(fn));
        if (removed != 0)
            ctx.stats.counter("opt.cse.removed").add(removed);
        return removed;
    }
};

} // namespace

std::unique_ptr<FunctionPass>
createCSEPass()
{
    return std::make_unique<CSEPass>();
}

} // namespace predilp
