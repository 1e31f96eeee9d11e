/**
 * @file
 * Standalone differential-fuzzing driver. Runs the oracle over a
 * seed range in parallel and reports every failure, in seed order,
 * with its reproducer path. Exit status 0 = every seed agreed, 1 =
 * at least one divergence/verifier failure/trap, 2 = bad usage.
 *
 * Usage:
 *   fuzz_main [--seeds N] [--start S] [--fuel N]
 *             [--repro-dir DIR] [--no-ablations] [--threads N]
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "fuzz/oracle.hh"

using namespace predilp;

namespace
{

bool
parseU64(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        return false;
    out = value;
    return true;
}

int
usage()
{
    std::cerr << "usage: fuzz_main [--seeds N] [--start S]"
                 " [--fuel N] [--repro-dir DIR] [--no-ablations]"
                 " [--threads N]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seeds = 200;
    std::uint64_t start = 0;
    std::uint64_t threads = 0;
    OracleOptions opts;
    opts.reproducerDir = "fuzz-reproducers";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto takeValue = [&](std::uint64_t &out) {
            return i + 1 < argc && parseU64(argv[++i], out);
        };
        if (arg == "--seeds") {
            if (!takeValue(seeds))
                return usage();
        } else if (arg == "--start") {
            if (!takeValue(start))
                return usage();
        } else if (arg == "--fuel") {
            if (!takeValue(opts.fuel))
                return usage();
        } else if (arg == "--threads") {
            if (!takeValue(threads))
                return usage();
        } else if (arg == "--repro-dir") {
            if (i + 1 >= argc)
                return usage();
            opts.reproducerDir = argv[++i];
        } else if (arg == "--no-ablations") {
            opts.checkAblations = false;
        } else {
            return usage();
        }
    }

    std::uint64_t configsRun = 0;
    std::uint64_t failures = 0;
    for (const OracleResult &result : runDifferentialOracleSeeds(
             start, seeds, opts, static_cast<int>(threads))) {
        configsRun += result.configsRun;
        for (const OracleFailure &failure : result.failures) {
            std::cerr << "FAIL seed=" << failure.seed << " config="
                      << failure.config << " kind=" << failure.kind
                      << "\n  " << failure.message << "\n";
            if (!failure.reproducerPath.empty())
                std::cerr << "  reproducer: "
                          << failure.reproducerPath << "\n";
            failures += 1;
        }
    }
    std::cout << "fuzz: " << seeds << " seeds, " << configsRun
              << " configs compared, " << failures
              << " failure(s)\n";
    return failures == 0 ? 0 : 1;
}
