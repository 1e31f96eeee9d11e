#include <algorithm>

#include "analysis/liveness.hh"
#include "ir/function.hh"
#include "opt/passes.hh"

namespace predilp
{

namespace
{

/** @return true when @p instr must be kept regardless of liveness. */
bool
hasObservableEffect(const Instruction &instr)
{
    const auto &info = instr.info();
    if (info.sideEffect)
        return true; // stores, putc/getc, jumps, calls, rets.
    if (instr.isCondBranch())
        return true;
    if (instr.isPredAll())
        return true; // rewrites the whole predicate file.
    // A trapping instruction in its excepting form is observable
    // (it may terminate the program).
    if (instr.mayTrap())
        return true;
    return false;
}

/** One backward sweep; @return number of instructions removed. */
int
sweepOnce(Function &fn)
{
    CfgInfo cfg(fn);
    Liveness liveness(fn, cfg);
    const RegIndexer &indexer = liveness.indexer();
    int removed = 0;
    std::vector<Reg> regs;

    for (BlockId id : fn.layout()) {
        BasicBlock *bb = fn.block(id);
        auto &instrs = bb->instrs();

        // Seed with the fallthrough path's live-in; side-exit
        // targets are folded in by backwardStep as the walk passes
        // each branch (a value dead at the block end can still be
        // live at an earlier exit).
        BitVector live(indexer.size());
        if (bb->fallthrough() != invalidBlock)
            live.unionWith(liveness.liveIn(bb->fallthrough()));

        for (std::size_t i = instrs.size(); i > 0; --i) {
            Instruction &instr = instrs[i - 1];
            bool removable = false;
            if (!hasObservableEffect(instr) &&
                instr.definesSomething()) {
                regs.clear();
                collectDefs(instr, fn, regs);
                removable = std::none_of(
                    regs.begin(), regs.end(), [&](Reg reg) {
                        return live.test(indexer.index(reg));
                    });
            } else if (instr.op() == Opcode::Nop) {
                removable = true;
            }

            if (removable) {
                instrs.erase(instrs.begin() +
                             static_cast<std::ptrdiff_t>(i - 1));
                removed += 1;
                continue;
            }

            liveness.backwardStep(instr, fn, live);
        }
    }
    return removed;
}

} // namespace

int
deadCodeElim(Function &fn)
{
    int total = 0;
    for (int iter = 0; iter < 20; ++iter) {
        int removed = sweepOnce(fn);
        if (removed == 0)
            break;
        total += removed;
    }
    return total;
}

namespace
{

class DCEPass : public FunctionPass
{
  public:
    std::string name() const override { return "opt.dce"; }

    std::uint64_t
    runOnFunction(Function &fn, PassContext &ctx) override
    {
        auto removed = static_cast<std::uint64_t>(deadCodeElim(fn));
        if (removed != 0)
            ctx.stats.counter("opt.dce.removed").add(removed);
        return removed;
    }
};

} // namespace

std::unique_ptr<FunctionPass>
createDCEPass()
{
    return std::make_unique<DCEPass>();
}

} // namespace predilp
