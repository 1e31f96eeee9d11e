/**
 * @file
 * PassManager tests: deterministic execution order, fixpoint-group
 * rerun semantics (the iteration cap, the exact rest check, and
 * per-function settling), and the uniform
 * instrumentation counters checked against hand-computed values on
 * both scripted passes and a real DCE run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "driver/pipeline.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "opt/pass.hh"
#include "opt/passes.hh"
#include "support/diag.hh"

namespace predilp
{
namespace
{

/**
 * Logs each invocation and reports a scripted change count per run
 * (0 once the script is exhausted). Never touches the program, so it
 * belongs at top level only: a fixpoint group stops a round that
 * leaves the IR unchanged.
 */
class ScriptedPass : public Pass
{
  public:
    ScriptedPass(std::string name,
                 std::vector<std::uint64_t> changesPerRun,
                 std::vector<std::string> *log)
        : name_(std::move(name)),
          changesPerRun_(std::move(changesPerRun)), log_(log)
    {}

    std::string name() const override { return name_; }

    PassResult
    run(Program &, PassContext &) override
    {
        if (log_ != nullptr)
            log_->push_back(name_);
        PassResult result;
        if (next_ < changesPerRun_.size())
            result.changes = changesPerRun_[next_];
        next_ += 1;
        return result;
    }

  private:
    std::string name_;
    std::vector<std::uint64_t> changesPerRun_;
    std::vector<std::string> *log_;
    std::size_t next_ = 0;
};

/**
 * Fixpoint member with a scripted change count per run (0 once the
 * script is exhausted). A run that reports changes really makes them:
 * it allocates one integer register per change, so the IR moves.
 * Logs "name:function" per invocation.
 */
class ScriptedFunctionPass : public FunctionPass
{
  public:
    ScriptedFunctionPass(std::string name,
                         std::vector<std::uint64_t> changesPerRun,
                         std::vector<std::string> *log)
        : name_(std::move(name)),
          changesPerRun_(std::move(changesPerRun)), log_(log)
    {}

    std::string name() const override { return name_; }

    std::uint64_t
    runOnFunction(Function &fn, PassContext &) override
    {
        if (log_ != nullptr)
            log_->push_back(name_ + ":" + fn.name());
        std::uint64_t changes = 0;
        if (next_ < changesPerRun_.size())
            changes = changesPerRun_[next_];
        next_ += 1;
        for (std::uint64_t i = 0; i < changes; ++i)
            fn.newIntReg();
        return changes;
    }

  private:
    std::string name_;
    std::vector<std::uint64_t> changesPerRun_;
    std::vector<std::string> *log_;
    std::size_t next_ = 0;
};

/** Fixpoint member rewriting every `mov <from>` into `mov <to>`. */
class RewriteImmPass : public FunctionPass
{
  public:
    RewriteImmPass(std::string name, std::int64_t from,
                   std::int64_t to, std::vector<std::string> *log)
        : name_(std::move(name)), from_(from), to_(to), log_(log)
    {}

    std::string name() const override { return name_; }

    std::uint64_t
    runOnFunction(Function &fn, PassContext &) override
    {
        log_->push_back(name_ + ":" + fn.name());
        std::uint64_t changes = 0;
        for (BlockId id : fn.layout()) {
            for (Instruction &instr : fn.block(id)->instrs()) {
                if (instr.op() == Opcode::Mov &&
                    instr.src(0) == Operand::imm(from_)) {
                    instr.setSrc(0, Operand::imm(to_));
                    changes += 1;
                }
            }
        }
        return changes;
    }

  private:
    std::string name_;
    std::int64_t from_;
    std::int64_t to_;
    std::vector<std::string> *log_;
};

/**
 * Fixpoint member that changes each function a set number of times:
 * one register allocation per run until the function's budget is
 * spent.
 */
class BudgetPass : public FunctionPass
{
  public:
    BudgetPass(std::string name, std::map<std::string, int> budget,
               std::vector<std::string> *log)
        : name_(std::move(name)), budget_(std::move(budget)), log_(log)
    {}

    std::string name() const override { return name_; }

    std::uint64_t
    runOnFunction(Function &fn, PassContext &) override
    {
        log_->push_back(name_ + ":" + fn.name());
        int &left = budget_[fn.name()];
        if (left == 0)
            return 0;
        left -= 1;
        fn.newIntReg();
        return 1;
    }

  private:
    std::string name_;
    std::map<std::string, int> budget_;
    std::vector<std::string> *log_;
};

/** One function per name, each `r0 = mov 1; ret r0`. */
std::unique_ptr<Program>
makeMovProgram(const std::vector<std::string> &names)
{
    auto prog = std::make_unique<Program>();
    for (const std::string &name : names) {
        Function *fn = prog->newFunction(name);
        fn->setRetKind(RetKind::Int);
        IRBuilder b(fn);
        b.startBlock();
        Reg r = fn->newIntReg();
        b.mov(r, Operand::imm(1));
        b.ret(Operand(r));
    }
    return prog;
}

/** main() with two dead adds behind an opaque getc. */
std::unique_ptr<Program>
makeDeadCodeProgram()
{
    auto prog = std::make_unique<Program>();
    Function *fn = prog->newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg a = fn->newIntReg();
    Reg d = fn->newIntReg();
    Reg e = fn->newIntReg();
    b.getc(a); // side effect: must survive DCE.
    b.emit(Opcode::Add, d, Operand(a), Operand::imm(1)); // dead
    b.emit(Opcode::Add, e, Operand(d), Operand::imm(2)); // dead
    b.ret(Operand::imm(7));
    return prog;
}

TEST(PassManager, RunsPassesInDeclarationOrder)
{
    std::vector<std::string> log;
    PassManager pm;
    pm.add(std::make_unique<ScriptedPass>(
        "test.a", std::vector<std::uint64_t>{1}, &log));
    pm.add(std::make_unique<ScriptedPass>(
        "test.b", std::vector<std::uint64_t>{}, &log));
    pm.add(std::make_unique<ScriptedPass>(
        "test.c", std::vector<std::uint64_t>{2}, &log));
    EXPECT_EQ(pm.passNames(),
              (std::vector<std::string>{"test.a", "test.b",
                                        "test.c"}));

    Program prog;
    StatsRegistry stats;
    PassContext ctx(stats);
    PassResult total = pm.run(prog, ctx);
    EXPECT_EQ(log,
              (std::vector<std::string>{"test.a", "test.b",
                                        "test.c"}));
    EXPECT_EQ(total.changes, 3u);
}

TEST(PassManager, FixpointRerunsWhileAnyMemberChanges)
{
    // Member 1 changes the function on its first two runs, member 2
    // never does: iteration 1 (2 changes) -> rerun, iteration 2 (1)
    // -> rerun, iteration 3 (0) -> stop. Every member runs every
    // iteration.
    std::vector<std::string> log;
    std::vector<std::unique_ptr<FunctionPass>> group;
    group.push_back(std::make_unique<ScriptedFunctionPass>(
        "test.x", std::vector<std::uint64_t>{2, 1}, &log));
    group.push_back(std::make_unique<ScriptedFunctionPass>(
        "test.y", std::vector<std::uint64_t>{}, &log));
    PassManager pm;
    pm.addFixpoint("test.group", std::move(group));

    auto prog = makeMovProgram({"main"});
    StatsRegistry stats;
    PassContext ctx(stats);
    pm.run(*prog, ctx);

    EXPECT_EQ(log, (std::vector<std::string>{
                       "test.x:main", "test.y:main", "test.x:main",
                       "test.y:main", "test.x:main", "test.y:main"}));
    StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.counter("test.group.iterations"), 3u);
    EXPECT_EQ(snap.counter("test.x.runs"), 3u);
    EXPECT_EQ(snap.counter("test.x.changes"), 3u);
    EXPECT_EQ(snap.counter("test.x.changed_runs"), 2u);
    EXPECT_EQ(snap.counter("test.y.runs"), 3u);
    EXPECT_EQ(snap.counter("test.y.changes"), 0u);
    EXPECT_EQ(snap.counter("test.y.changed_runs"), 0u);
}

TEST(PassManager, FixpointHonorsIterationCap)
{
    std::vector<std::unique_ptr<FunctionPass>> group;
    group.push_back(std::make_unique<ScriptedFunctionPass>(
        "test.always",
        std::vector<std::uint64_t>(100, 1), nullptr));
    PassManager pm;
    pm.addFixpoint("test.cap", std::move(group), 4);

    auto prog = makeMovProgram({"main"});
    StatsRegistry stats;
    PassContext ctx(stats);
    pm.run(*prog, ctx);

    StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.counter("test.cap.iterations"), 4u);
    EXPECT_EQ(snap.counter("test.always.runs"), 4u);
}

TEST(PassManager, FixpointStopsWhenRoundLeavesIrUnchanged)
{
    // Two members that undo each other report changes forever, as
    // copy propagation and CSE do on a copy chain; the round leaves
    // the IR as it found it, so the group stops after one round.
    std::vector<std::string> log;
    std::vector<std::unique_ptr<FunctionPass>> group;
    group.push_back(std::make_unique<RewriteImmPass>(
        "test.up", 1, 2, &log));
    group.push_back(std::make_unique<RewriteImmPass>(
        "test.down", 2, 1, &log));
    PassManager pm;
    pm.addFixpoint("test.pingpong", std::move(group));

    auto prog = makeMovProgram({"main"});
    std::ostringstream before;
    printProgram(before, *prog);
    StatsRegistry stats;
    PassContext ctx(stats);
    PassResult result = pm.run(*prog, ctx);

    EXPECT_EQ(log, (std::vector<std::string>{"test.up:main",
                                             "test.down:main"}));
    EXPECT_EQ(result.changes, 2u);
    std::ostringstream after;
    printProgram(after, *prog);
    EXPECT_EQ(after.str(), before.str());
    StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.counter("test.pingpong.iterations"), 1u);
    EXPECT_EQ(snap.counter("test.up.runs"), 1u);
    EXPECT_EQ(snap.counter("test.up.changes"), 1u);
    EXPECT_EQ(snap.counter("test.down.changes"), 1u);
}

TEST(PassManager, FixpointSettlesFunctionsIndependently)
{
    // "a" changes in round 1 only, "b" in rounds 1-3. "a" leaves the
    // active set after round 2 reports nothing for it; "b" runs on
    // alone until its own quiet round 4.
    std::vector<std::string> log;
    std::vector<std::unique_ptr<FunctionPass>> group;
    group.push_back(std::make_unique<BudgetPass>(
        "test.settle",
        std::map<std::string, int>{{"a", 1}, {"b", 3}}, &log));
    PassManager pm;
    pm.addFixpoint("test.settle_group", std::move(group));

    auto prog = makeMovProgram({"a", "b"});
    StatsRegistry stats;
    PassContext ctx(stats);
    PassResult result = pm.run(*prog, ctx);

    EXPECT_EQ(log, (std::vector<std::string>{
                       "test.settle:a", "test.settle:b",
                       "test.settle:a", "test.settle:b",
                       "test.settle:b", "test.settle:b"}));
    EXPECT_EQ(result.changes, 4u);
    EXPECT_EQ(prog->function("a")->numIntRegs(), 2);
    EXPECT_EQ(prog->function("b")->numIntRegs(), 4);
    StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.counter("test.settle_group.iterations"), 4u);
    EXPECT_EQ(snap.counter("test.settle.runs"), 4u);
    EXPECT_EQ(snap.counter("test.settle.changed_runs"), 3u);
}

TEST(PassManager, CountersMatchHandComputedDCECase)
{
    auto prog = makeDeadCodeProgram();
    ASSERT_EQ(programInstrCount(*prog), 4u);

    PassManager pm;
    pm.add(createDCEPass());
    StatsRegistry stats;
    PassContext ctx(stats);
    pm.run(*prog, ctx);

    // Exactly the two dead adds go; getc and ret stay.
    EXPECT_EQ(programInstrCount(*prog), 2u);
    StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.counter("opt.dce.runs"), 1u);
    EXPECT_EQ(snap.counter("opt.dce.changes"), 2u);
    EXPECT_EQ(snap.counter("opt.dce.changed_runs"), 1u);
    EXPECT_EQ(snap.counter("opt.dce.removed"), 2u);
    EXPECT_EQ(snap.counter("opt.dce.instrs_removed"), 2u);
    EXPECT_EQ(snap.counter("opt.dce.instrs_added"), 0u);
    EXPECT_GE(snap.seconds("opt.dce.seconds"), 0.0);
}

TEST(PassManager, InstrumentationIsolatesNoChangeRuns)
{
    // A second run over the already-clean program records a run but
    // no changes and no size delta.
    auto prog = makeDeadCodeProgram();
    PassManager pm;
    pm.add(createDCEPass());
    StatsRegistry first;
    {
        PassContext ctx(first);
        pm.run(*prog, ctx);
    }
    StatsRegistry second;
    {
        PassContext ctx(second);
        pm.run(*prog, ctx);
    }
    StatsSnapshot snap = second.snapshot();
    EXPECT_EQ(snap.counter("opt.dce.runs"), 1u);
    EXPECT_EQ(snap.counter("opt.dce.changes"), 0u);
    EXPECT_EQ(snap.counter("opt.dce.changed_runs"), 0u);
    EXPECT_EQ(snap.counter("opt.dce.instrs_removed"), 0u);
}

/**
 * Test-only injected transform bug: writes a move whose destination
 * register was never allocated, breaking the verifier's
 * register-range invariant. Stands in for a real miscompiling pass.
 */
class CorruptingPass : public Pass
{
  public:
    std::string name() const override { return "test.corrupt"; }

    PassResult
    run(Program &prog, PassContext &) override
    {
        Function &fn = *prog.functions().front();
        BasicBlock *bb = fn.block(fn.layout().front());
        Instruction bad(Opcode::Mov);
        bad.setDest(intReg(fn.numIntRegs() + 7));
        bad.addSrc(Operand::imm(0));
        bad.setId(fn.nextInstrId());
        bb->instrs().insert(bb->instrs().begin(), std::move(bad));
        PassResult result;
        result.changes = 1;
        return result;
    }
};

TEST(PassManager, VerifyAfterEachNamesTheOffendingPass)
{
    auto prog = makeDeadCodeProgram();
    std::vector<std::string> log;
    PassManager pm;
    pm.add(createDCEPass());
    pm.add(std::make_unique<CorruptingPass>());
    pm.add(std::make_unique<ScriptedPass>(
        "test.after", std::vector<std::uint64_t>{}, &log));

    StatsRegistry stats;
    PassContext ctx(stats);
    ctx.verifyAfterEach = true;
    try {
        pm.run(*prog, ctx);
        FAIL() << "expected VerifyError";
    } catch (const VerifyError &e) {
        EXPECT_EQ(e.passName(), "test.corrupt");
        EXPECT_NE(std::string(e.what()).find("test.corrupt"),
                  std::string::npos);
        EXPECT_NE(e.invariant().find("out of range"),
                  std::string::npos);
    }
    // The pipeline stopped at the offending pass.
    EXPECT_TRUE(log.empty());
}

TEST(PassManager, VerifyAfterEachIsOffByDefault)
{
    // Without the opt-in flag the corruption sails through the
    // manager (the pipelines' final whole-program verify is the
    // backstop) — post-pass verification must cost nothing on the
    // benchmark hot path.
    auto prog = makeDeadCodeProgram();
    PassManager pm;
    pm.add(std::make_unique<CorruptingPass>());
    StatsRegistry stats;
    PassContext ctx(stats);
    EXPECT_NO_THROW(pm.run(*prog, ctx));
}

TEST(BuildPassPipeline, PassListIsDeterministicPerModel)
{
    for (Model model : {Model::Superblock, Model::CondMove,
                        Model::FullPred}) {
        CompileOptions opts;
        opts.model = model;
        std::vector<std::string> names =
            buildPassPipeline(opts).passNames();
        EXPECT_EQ(names, buildPassPipeline(opts).passNames());
        ASSERT_FALSE(names.empty());
        EXPECT_EQ(names.back(), "sched.schedule");
        auto has = [&](const std::string &name) {
            return std::find(names.begin(), names.end(), name) !=
                   names.end();
        };
        EXPECT_EQ(has("superblock.form"),
                  model == Model::Superblock);
        EXPECT_EQ(has("hyperblock.form"),
                  model != Model::Superblock);
        EXPECT_EQ(has("partial.lower"), model == Model::CondMove);
        EXPECT_EQ(has("hyperblock.combine"),
                  model == Model::FullPred);
    }
}

TEST(BuildPassPipeline, AblationFlagsPrunePasses)
{
    CompileOptions opts;
    opts.model = Model::FullPred;
    opts.ablation.promotion = false;
    opts.ablation.branchCombining = false;
    opts.ablation.unrolling = false;
    std::vector<std::string> names =
        buildPassPipeline(opts).passNames();
    auto has = [&](const std::string &name) {
        return std::find(names.begin(), names.end(), name) !=
               names.end();
    };
    EXPECT_FALSE(has("hyperblock.promote"));
    EXPECT_FALSE(has("hyperblock.combine"));
    EXPECT_FALSE(has("opt.unroll"));
    EXPECT_TRUE(has("hyperblock.height"));
}

} // namespace
} // namespace predilp
