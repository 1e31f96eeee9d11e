#include <map>
#include <utility>

#include "analysis/cfg.hh"
#include "ir/function.hh"
#include "opt/passes.hh"

namespace predilp
{

namespace
{

/** Key for a statically known memory slot: (base, offset). */
using SlotKey = std::pair<std::int64_t, std::int64_t>;

/** A remembered value in a slot, with the operand that holds it. */
struct SlotValue
{
    Operand value;  ///< register or immediate last stored/loaded.
    bool isFloat = false;
};

bool
slotOf(const Instruction &instr, SlotKey &key)
{
    if (!instr.src(0).isImm() || !instr.src(1).isImm())
        return false;
    key = {instr.src(0).immValue(), instr.src(1).immValue()};
    return true;
}

} // namespace

int
forwardMemory(Function &fn)
{
    int forwarded = 0;
    std::vector<Reg> defs;

    for (BlockId id : fn.layout()) {
        std::map<SlotKey, SlotValue> slots;
        for (auto &instr : fn.block(id)->instrs()) {
            // Forward a whole-word load from a known slot.
            if ((instr.op() == Opcode::Ld ||
                 instr.op() == Opcode::FLd)) {
                SlotKey key;
                if (slotOf(instr, key)) {
                    auto it = slots.find(key);
                    bool isFloat = instr.op() == Opcode::FLd;
                    if (it != slots.end() &&
                        it->second.isFloat == isFloat) {
                        Reg dest = instr.dest();
                        Reg guard = instr.guard();
                        Operand value = it->second.value;
                        instr.setOp(isFloat ? Opcode::FMov
                                            : Opcode::Mov);
                        instr.srcs().clear();
                        instr.addSrc(value);
                        instr.setDest(dest);
                        instr.setGuard(guard);
                        instr.setSpeculative(false);
                        forwarded += 1;
                        // Fall through to def-invalidations below.
                    } else if (!instr.guarded()) {
                        // Remember the loaded value.
                        slots[key] =
                            SlotValue{Operand(instr.dest()),
                                      isFloat};
                    }
                }
            } else if (instr.op() == Opcode::St ||
                       instr.op() == Opcode::FSt) {
                SlotKey key;
                if (slotOf(instr, key) && !instr.guarded()) {
                    slots[key] = SlotValue{
                        instr.src(2), instr.op() == Opcode::FSt};
                } else {
                    // Unknown or conditional store: anything may
                    // have changed.
                    slots.clear();
                }
            } else if (instr.isStore() || instr.isCall() ||
                       instr.op() == Opcode::ReadBlock) {
                // Byte stores, calls, bulk input: be conservative.
                slots.clear();
            }

            // Invalidate slots whose value register is overwritten.
            defs.clear();
            collectDefs(instr, fn, defs);
            for (Reg reg : defs) {
                for (auto it = slots.begin(); it != slots.end();) {
                    if (it->second.value.isReg() &&
                        it->second.value.reg() == reg) {
                        it = slots.erase(it);
                    } else {
                        ++it;
                    }
                }
            }
        }
    }
    return forwarded;
}

namespace
{

class MemoryForwardPass : public FunctionPass
{
  public:
    std::string name() const override { return "opt.memfwd"; }

    std::uint64_t
    runOnFunction(Function &fn, PassContext &ctx) override
    {
        auto forwarded =
            static_cast<std::uint64_t>(forwardMemory(fn));
        if (forwarded != 0)
            ctx.stats.counter("opt.memfwd.forwarded").add(forwarded);
        return forwarded;
    }
};

} // namespace

std::unique_ptr<FunctionPass>
createMemoryForwardPass()
{
    return std::make_unique<MemoryForwardPass>();
}

} // namespace predilp
