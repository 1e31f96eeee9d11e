#include "opt/pass.hh"

#include <bit>

#include "ir/verifier.hh"
#include "support/logging.hh"

namespace predilp
{

PassResult
FunctionPass::run(Program &prog, PassContext &ctx)
{
    PassResult result;
    for (auto &fn : prog.functions())
        result.changes += runOnFunction(*fn, ctx);
    return result;
}

namespace
{

/** Instructions in the laid-out blocks of @p fns (any pointer kind). */
template <typename Functions>
std::uint64_t
instrCount(const Functions &fns)
{
    std::uint64_t count = 0;
    for (const auto &fn : fns) {
        for (BlockId id : fn->layout())
            count += fn->block(id)->instrs().size();
    }
    return count;
}

/**
 * The uniform instrumentation seam: run @p body as one invocation of
 * the pass scoped @p scope, which may touch only @p fns, and record
 * its time, change count and size delta (see PassManager).
 */
template <typename Body>
PassResult
recordRun(const std::string &scope, const std::vector<Function *> &fns,
          const Program *prog, PassContext &ctx, Body &&body)
{
    const std::uint64_t before = instrCount(fns);
    PassResult result;
    {
        ScopedTimer timer(ctx.stats.timer(scope + ".seconds"));
        result = body();
    }
    const std::uint64_t after = instrCount(fns);
    if (ctx.verifyAfterEach) {
        for (const Function *fn : fns) {
            std::string err = verifyFunction(*fn, prog);
            if (!err.empty())
                throw VerifyError(scope, err);
        }
    }
    ctx.stats.counter(scope + ".runs").add();
    ctx.stats.counter(scope + ".changes").add(result.changes);
    if (result.changed())
        ctx.stats.counter(scope + ".changed_runs").add();
    if (after >= before)
        ctx.stats.counter(scope + ".instrs_added").add(after - before);
    else
        ctx.stats.counter(scope + ".instrs_removed")
            .add(before - after);
    return result;
}

std::vector<Function *>
allFunctions(Program &prog)
{
    std::vector<Function *> fns;
    fns.reserve(prog.functions().size());
    for (auto &fn : prog.functions())
        fns.push_back(fn.get());
    return fns;
}

std::int64_t
encodeReg(Reg reg)
{
    return static_cast<std::int64_t>(reg.packed());
}

/**
 * Append to @p out an exact encoding of everything a scalar pass
 * reads or writes in @p fn: the register counters and id bounds, the
 * layout, each laid-out block's kind, fallthrough and weight, and
 * every field of every instruction (float immediates by bit
 * pattern). Variable-length parts are length-prefixed, so equal
 * encodings mean equal IR.
 */
void
encodeFunction(const Function &fn, std::vector<std::int64_t> &out)
{
    out.push_back(fn.numIntRegs());
    out.push_back(fn.numFloatRegs());
    out.push_back(fn.numPredRegs());
    out.push_back(fn.instrIdBound());
    out.push_back(static_cast<std::int64_t>(fn.numBlockIds()));
    out.push_back(static_cast<std::int64_t>(fn.layout().size()));
    for (BlockId id : fn.layout()) {
        const BasicBlock *bb = fn.block(id);
        out.push_back(id);
        out.push_back(static_cast<std::int64_t>(bb->kind()));
        out.push_back(bb->fallthrough());
        out.push_back(static_cast<std::int64_t>(bb->weight()));
        out.push_back(static_cast<std::int64_t>(bb->instrs().size()));
        for (const Instruction &instr : bb->instrs()) {
            out.push_back(static_cast<std::int64_t>(instr.op()));
            out.push_back(instr.id());
            out.push_back(encodeReg(instr.dest()));
            out.push_back(encodeReg(instr.guard()));
            out.push_back(instr.target());
            out.push_back(instr.speculative() ? 1 : 0);
            out.push_back(instr.issueCycle());
            out.push_back(
                static_cast<std::int64_t>(instr.predDests().size()));
            for (const PredDest &pd : instr.predDests()) {
                out.push_back(encodeReg(pd.reg));
                out.push_back(static_cast<std::int64_t>(pd.type));
            }
            out.push_back(
                static_cast<std::int64_t>(instr.srcs().size()));
            for (const Operand &src : instr.srcs()) {
                out.push_back(static_cast<std::int64_t>(src.kind()));
                switch (src.kind()) {
                  case Operand::Kind::None:
                    break;
                  case Operand::Kind::Register:
                    out.push_back(encodeReg(src.reg()));
                    break;
                  case Operand::Kind::Imm:
                    out.push_back(src.immValue());
                    break;
                  case Operand::Kind::FImm:
                    out.push_back(
                        std::bit_cast<std::int64_t>(src.fimmValue()));
                    break;
                }
            }
            const std::string &callee = instr.callee();
            out.push_back(static_cast<std::int64_t>(callee.size()));
            out.insert(out.end(), callee.begin(), callee.end());
        }
    }
}

/** A PassManager entry running a group through runFixpoint. */
class FixpointPass : public Pass
{
  public:
    FixpointPass(std::string name,
                 std::vector<std::unique_ptr<FunctionPass>> group,
                 int maxIters)
        : name_(std::move(name)), group_(std::move(group)),
          maxIters_(maxIters)
    {}

    std::string name() const override { return name_; }

    PassResult
    run(Program &prog, PassContext &ctx) override
    {
        return runFixpoint(name_, group_, allFunctions(prog), &prog,
                           ctx, maxIters_);
    }

  private:
    std::string name_;
    std::vector<std::unique_ptr<FunctionPass>> group_;
    int maxIters_;
};

} // namespace

std::uint64_t
programInstrCount(const Program &prog)
{
    return instrCount(prog.functions());
}

PassResult
runInstrumented(Pass &pass, Program &prog, PassContext &ctx)
{
    return recordRun(pass.name(), allFunctions(prog), &prog, ctx,
                     [&] { return pass.run(prog, ctx); });
}

PassResult
runFixpoint(const std::string &groupName,
            std::vector<std::unique_ptr<FunctionPass>> &group,
            const std::vector<Function *> &fns, const Program *prog,
            PassContext &ctx, int maxIters)
{
    Counter &iterations = ctx.stats.counter(groupName + ".iterations");
    std::vector<Function *> active = fns;
    std::vector<std::vector<std::int64_t>> encodings(active.size());
    for (std::size_t i = 0; i < active.size(); ++i)
        encodeFunction(*active[i], encodings[i]);

    PassResult total;
    std::vector<std::uint64_t> changes;
    std::vector<std::int64_t> after;
    for (int iter = 0; iter < maxIters && !active.empty(); ++iter) {
        iterations.add();
        changes.assign(active.size(), 0);
        for (auto &pass : group) {
            total.changes +=
                recordRun(pass->name(), active, prog, ctx, [&] {
                    PassResult result;
                    for (std::size_t i = 0; i < active.size(); ++i) {
                        std::uint64_t n =
                            pass->runOnFunction(*active[i], ctx);
                        changes[i] += n;
                        result.changes += n;
                    }
                    return result;
                }).changes;
        }

        // A function at rest leaves the active set: its members
        // reported nothing, or its encoding did not move.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < active.size(); ++i) {
            if (changes[i] == 0)
                continue;
            after.clear();
            encodeFunction(*active[i], after);
            if (after == encodings[i])
                continue;
            active[kept] = active[i];
            encodings[kept].swap(after);
            ++kept;
        }
        active.resize(kept);
        encodings.resize(kept);
    }
    return total;
}

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    panicIf(pass == nullptr, "PassManager::add: null pass");
    passes_.push_back(std::move(pass));
}

void
PassManager::addFixpoint(std::string groupName,
                         std::vector<std::unique_ptr<FunctionPass>> group,
                         int maxIters)
{
    panicIf(group.empty(), "PassManager::addFixpoint: empty group");
    panicIf(maxIters <= 0,
            "PassManager::addFixpoint: nonpositive iteration cap");
    passes_.push_back(std::make_unique<FixpointPass>(
        std::move(groupName), std::move(group), maxIters));
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const auto &pass : passes_)
        names.push_back(pass->name());
    return names;
}

PassResult
PassManager::run(Program &prog, PassContext &ctx)
{
    PassResult total;
    for (std::size_t i = 0; i < passes_.size(); ++i)
        total.changes += runPass(i, prog, ctx).changes;
    return total;
}

PassResult
PassManager::runPass(std::size_t index, Program &prog, PassContext &ctx)
{
    panicIf(index >= passes_.size(), "PassManager::runPass: bad index");
    return runInstrumented(*passes_[index], prog, ctx);
}

} // namespace predilp
