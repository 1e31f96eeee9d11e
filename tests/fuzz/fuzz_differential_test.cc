/**
 * @file
 * The acceptance gate for the differential fuzzer: 500 fixed seeds,
 * each compiled under all three models plus two seed-rotated
 * ablation flips with the post-pass verifier on, must produce zero
 * divergences, verifier failures, or traps. The seeds run on the
 * oracle's thread pool; failures print in seed order, each with its
 * full oracle record so the seed is reproducible offline via
 * `build/src/fuzz/fuzz_main --start <seed> --seeds 1`.
 */

#include <gtest/gtest.h>

#include "fuzz/oracle.hh"

namespace predilp
{
namespace
{

constexpr std::uint64_t kSeeds = 500;

TEST(FuzzDifferential, FiveHundredSeedsAgreeAcrossAllModels)
{
    OracleOptions opts; // ablations + per-pass verification on.
    std::uint64_t configs = 0;
    std::vector<OracleFailure> failures;
    for (const OracleResult &result :
         runDifferentialOracleSeeds(0, kSeeds, opts)) {
        configs += result.configsRun;
        failures.insert(failures.end(), result.failures.begin(),
                        result.failures.end());
    }
    for (const OracleFailure &f : failures) {
        ADD_FAILURE() << "seed " << f.seed << " [" << f.config
                      << "] " << f.kind << ": " << f.message;
    }
    EXPECT_TRUE(failures.empty());
    // 3 models + 2 ablation flips per seed.
    EXPECT_EQ(configs, kSeeds * 5);
}

} // namespace
} // namespace predilp
