#include "fuzz/oracle.hh"

#include <array>
#include <memory>

#include "driver/pipeline.hh"
#include "driver/reproducer.hh"
#include "support/diag.hh"
#include "support/thread_pool.hh"
#include "trace/replay.hh"

namespace predilp
{

namespace
{

/** One compile configuration the oracle compares. */
struct OracleConfig
{
    std::string name;
    Model model = Model::FullPred;
    AblationFlags ablation;
};

/** Flip ablation flag @p index (order matches AblationFlags::key). */
AblationFlags
flipFlag(AblationFlags flags, int index)
{
    switch (index) {
      case 0: flags.promotion = !flags.promotion; break;
      case 1: flags.branchCombining = !flags.branchCombining; break;
      case 2: flags.heightReduction = !flags.heightReduction; break;
      case 3: flags.unrolling = !flags.unrolling; break;
      case 4: flags.orTree = !flags.orTree; break;
      default: flags.useSelect = !flags.useSelect; break;
    }
    return flags;
}

const char *
flagName(int index)
{
    static const char *const names[] = {
        "promotion",  "branchCombining", "heightReduction",
        "unrolling",  "orTree",          "useSelect"};
    return names[index];
}

/**
 * The configurations compared for @p seed: the three models under
 * default flags, plus (optionally) two single-flag flips rotated by
 * the seed. Each flip targets the model whose pipeline actually
 * reads the flag (orTree/useSelect only exist under CondMove), so
 * no compile is a cache-key duplicate of a default-flag model.
 */
std::vector<OracleConfig>
makeConfigs(std::uint64_t seed, bool checkAblations)
{
    std::vector<OracleConfig> configs;
    configs.push_back({"Superblock", Model::Superblock, {}});
    configs.push_back({"CondMove", Model::CondMove, {}});
    configs.push_back({"FullPred", Model::FullPred, {}});
    if (!checkAblations)
        return configs;
    for (std::uint64_t i = 0; i < 2; ++i) {
        const int flag = static_cast<int>((seed + i * 3) % 6);
        // Route the flip to a model whose pipeline reads the flag
        // (AblationFlags::canonicalFor): branchCombining only
        // matters under FullPred, orTree/useSelect only under
        // CondMove; the shared flags alternate by seed.
        Model model;
        switch (flag) {
          case 1:
            model = Model::FullPred;
            break;
          case 4:
          case 5:
            model = Model::CondMove;
            break;
          default:
            model = (seed + i) % 2 == 0 ? Model::FullPred
                                        : Model::CondMove;
            break;
        }
        OracleConfig config;
        config.model = model;
        config.ablation = flipFlag({}, flag);
        config.name = modelName(model) + "/flip-" + flagName(flag);
        configs.push_back(config);
    }
    return configs;
}

} // namespace

OracleResult
runDifferentialOracle(std::uint64_t seed, const OracleOptions &opts)
{
    OracleResult result;
    result.seed = seed;

    GeneratedProgram gen = generateProgram(seed, opts.generator);

    auto recordFailure = [&](const std::string &configName) {
        std::exception_ptr ep = std::current_exception();
        OracleFailure failure;
        failure.seed = seed;
        failure.config = configName;
        failure.kind = classifyException(ep);
        try {
            std::rethrow_exception(ep);
        } catch (const std::exception &e) {
            failure.message = e.what();
        } catch (...) {
            failure.message = "non-standard exception";
        }
        if (!opts.reproducerDir.empty()) {
            ReproducerSpec spec;
            spec.title = "fuzz-seed-" + std::to_string(seed) + "-" +
                         configName;
            spec.seed = seed;
            spec.hasSeed = true;
            spec.model = configName;
            spec.kind = failure.kind;
            spec.message = failure.message;
            spec.input = gen.input;
            spec.source = gen.source;
            failure.reproducerPath =
                writeReproducer(opts.reproducerDir, spec);
        }
        result.failures.push_back(std::move(failure));
    };

    // The reference: frontend + classical optimization, emulated
    // functionally. Every model must reproduce it bit-for-bit.
    RunResult reference;
    try {
        reference = runReference(gen.source, gen.input, opts.fuel);
    } catch (...) {
        // A generated program must never fail its reference run —
        // this is a generator bug (or a frontend/emulator bug the
        // generator exposed), worth a reproducer either way.
        recordFailure("reference");
        return result;
    }

    for (const OracleConfig &config :
         makeConfigs(seed, opts.checkAblations)) {
        try {
            CompileOptions compileOpts;
            compileOpts.model = config.model;
            compileOpts.ablation = config.ablation;
            compileOpts.profileInput = gen.input;
            compileOpts.maxProfileInstrs = opts.fuel;
            compileOpts.verifyEachPass = opts.verifyEachPass;
            std::unique_ptr<Program> prog =
                compileForModel(gen.source, compileOpts);

            // One emulation captures both the architectural result
            // and the trace the replay check prices.
            std::unique_ptr<TraceBuffer> buffer =
                capture(*prog, gen.input, opts.fuel);
            const RunResult &run = buffer->run();
            if (run.exitValue != reference.exitValue ||
                run.output != reference.output ||
                run.memHash != reference.memHash) {
                throw DivergenceError(detail::formatMessage(
                    config.name,
                    " diverged from reference: exit ",
                    run.exitValue, " vs ", reference.exitValue,
                    ", output ", run.output.size(), " vs ",
                    reference.output.size(), " bytes",
                    run.output == reference.output ? " (equal)"
                                                   : " (differ)",
                    ", memHash ", run.memHash, " vs ",
                    reference.memHash));
            }

            // Replay agreement: pricing the captured trace must
            // reproduce the emulation's architectural result.
            SimConfig sim;
            SimResult priced = replay(*buffer, sim);
            if (priced.exitValue != run.exitValue ||
                priced.output != run.output) {
                throw DivergenceError(detail::formatMessage(
                    config.name,
                    " replay disagreed with its own capture: "
                    "exit ",
                    priced.exitValue, " vs ", run.exitValue,
                    ", output ", priced.output.size(), " vs ",
                    run.output.size(), " bytes"));
            }
            ++result.configsRun;
        } catch (...) {
            recordFailure(config.name);
        }
    }
    return result;
}

std::vector<OracleResult>
runDifferentialOracleSeeds(std::uint64_t start, std::uint64_t count,
                           const OracleOptions &opts, int threads)
{
    std::vector<OracleResult> results(count);
    ThreadPool pool(threads);
    pool.parallelFor(count, [&](std::size_t i) {
        results[i] = runDifferentialOracle(start + i, opts);
    });
    return results;
}

} // namespace predilp
