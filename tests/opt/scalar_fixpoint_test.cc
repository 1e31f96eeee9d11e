/**
 * @file
 * The scalar fixpoint's rest check against the loop it replaced. For
 * every workload x model, and every ablation flip a model's pipeline
 * reads, each `opt.scalar` run of the real pipeline must:
 *  - print the same IR as ten plain rounds of its seven members;
 *  - end before its iteration cap;
 *  - be at rest on its own output: a second run takes one round and
 *    leaves the printed IR byte-identical.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "driver/pipeline.hh"
#include "frontend/irgen.hh"
#include "ir/printer.hh"
#include "opt/passes.hh"
#include "workloads/workloads.hh"

namespace predilp
{
namespace
{

std::string
printed(const Program &prog)
{
    std::ostringstream os;
    printProgram(os, prog);
    return os.str();
}

/** The deleted loop at its worst: ten unconditional rounds. */
void
runPlainRounds(Program &prog)
{
    std::vector<std::unique_ptr<FunctionPass>> group = scalarPassList();
    StatsRegistry stats;
    PassContext ctx(stats);
    for (int round = 0; round < defaultFixpointCap; ++round) {
        for (auto &pass : group)
            pass->run(prog, ctx);
    }
}

/** @return rounds one fresh `opt.scalar` fixpoint takes on @p prog. */
std::uint64_t
rerunRounds(Program &prog)
{
    PassManager pm;
    pm.addFixpoint("opt.scalar", scalarPassList());
    StatsRegistry stats;
    PassContext ctx(stats);
    pm.run(prog, ctx);
    return stats.counter("opt.scalar.iterations").value();
}

/**
 * Run @p pm on @p prog pass by pass, checking every `opt.scalar`
 * run as the file comment describes.
 */
void
checkScalarRuns(PassManager &pm, Program &prog, PassContext &ctx,
                const std::string &label)
{
    const std::vector<std::string> names = pm.passNames();
    Counter &iterations = ctx.stats.counter("opt.scalar.iterations");
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] != "opt.scalar") {
            pm.runPass(i, prog, ctx);
            continue;
        }
        std::unique_ptr<Program> reference = prog.clone();
        runPlainRounds(*reference);

        const std::uint64_t before = iterations.value();
        pm.runPass(i, prog, ctx);
        const std::uint64_t rounds = iterations.value() - before;
        const std::string where = label + " pass #" + std::to_string(i);
        EXPECT_LT(rounds, static_cast<std::uint64_t>(defaultFixpointCap))
            << where;

        const std::string settled = printed(prog);
        EXPECT_EQ(settled, printed(*reference)) << where;

        std::unique_ptr<Program> again = prog.clone();
        EXPECT_EQ(rerunRounds(*again), 1u) << where;
        EXPECT_EQ(printed(*again), settled) << where;
    }
}

/** Every ablation setting a model reads, default first. */
std::vector<AblationFlags>
ablationsFor(Model model)
{
    std::vector<AblationFlags> out{AblationFlags()};
    for (bool AblationFlags::*flag :
         {&AblationFlags::promotion, &AblationFlags::branchCombining,
          &AblationFlags::heightReduction, &AblationFlags::unrolling,
          &AblationFlags::orTree, &AblationFlags::useSelect}) {
        AblationFlags flipped;
        flipped.*flag = !(flipped.*flag);
        if (flipped.canonicalFor(model) != AblationFlags())
            out.push_back(flipped);
    }
    return out;
}

class ScalarFixpointOnWorkload
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ScalarFixpointOnWorkload, MatchesPlainRoundsAndSettles)
{
    const Workload *workload = findWorkload(GetParam());
    ASSERT_NE(workload, nullptr);
    const std::string input = workload->input();

    // The prefix is model-independent: check it once, then resume
    // every model compile from its output (as compileFromSnapshot
    // does).
    std::unique_ptr<Program> prefixed = compileSource(workload->source);
    StatsRegistry prefixStats;
    PassContext prefixCtx(prefixStats);
    prefixCtx.profileInput = input;
    PassManager prefix = buildPrefixPipeline();
    checkScalarRuns(prefix, *prefixed, prefixCtx,
                    workload->name + " prefix");
    ASSERT_NE(prefixCtx.profile, nullptr);

    for (Model model :
         {Model::Superblock, Model::CondMove, Model::FullPred}) {
        for (const AblationFlags &ablation : ablationsFor(model)) {
            CompileOptions opts;
            opts.model = model;
            opts.profileInput = input;
            opts.ablation = ablation;

            std::unique_ptr<Program> prog = prefixed->clone();
            StatsRegistry stats;
            PassContext ctx(stats);
            ctx.profileInput = input;
            ctx.profile =
                std::make_unique<ProgramProfile>(*prefixCtx.profile);
            PassManager suffix = buildModelPipeline(opts);
            checkScalarRuns(suffix, *prog, ctx,
                            workload->name + " " + modelKey(model) +
                                " ablation " + ablation.key());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ScalarFixpointOnWorkload,
    ::testing::Values("wc", "grep", "cmp", "qsort", "compress",
                      "eqntott", "espresso", "li", "lex", "yacc",
                      "cccp", "eqn", "sc", "alvinn", "ear"));

} // namespace
} // namespace predilp
