/**
 * @file
 * predilp_sweep: the scenario-sweep grid driver CLI.
 *
 * Usage:
 *   predilp_sweep --spec grid.json [--out FILE]
 *   predilp_sweep --print-spec          # example grid spec
 *
 * Reads a declarative grid spec (see src/driver/sweep.hh and
 * DESIGN.md §6h), expands it into the cross product of cells, prices
 * them all in-process with one batched evaluation on the thread pool
 * (PREDILP_THREADS sizes it), and writes one consolidated
 * BENCH_sweep.json. Point PREDILP_STORE at a directory to keep
 * captured traces across runs — a warm re-run of the same grid then
 * performs zero compiles and captures.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "driver/bench_io.hh"
#include "driver/sweep.hh"
#include "support/diag.hh"
#include "support/faultpoint.hh"

namespace
{

const char *const exampleSpec = R"({
  "workloads": ["cmp", "wc"],
  "models": ["superblock", "cond_move", "full_pred"],
  "scale": 1,
  "base": {"perfect_caches": true},
  "axes": {
    "issue_width": [2, 4, 8],
    "btb_entries": [256, 1024],
    "perfect_caches": [true, false]
  }
})";

int
usage(std::ostream &os, int code)
{
    os << "usage: predilp_sweep --spec FILE [--out FILE]\n"
          "       predilp_sweep --print-spec | "
          "--list-fault-points\n"
          "\n"
          "  --spec FILE    grid spec (JSON; see --print-spec)\n"
          "  --out FILE     consolidated report path (default "
          "BENCH_sweep.json)\n"
          "  --print-spec   print an example grid spec and exit\n"
          "  --list-fault-points  print every PREDILP_FAULTS point "
          "name and exit\n"
          "\n"
          "Environment: PREDILP_STORE, PREDILP_STORE_MODE, "
          "PREDILP_THREADS, PREDILP_EMU,\n"
          "PREDILP_FAULTS (see EnvConfig in src/support/env.hh).\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace predilp;

    std::string specPath;
    std::string outPath = "BENCH_sweep.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-spec") {
            std::cout << exampleSpec << "\n";
            return 0;
        }
        if (arg == "--list-fault-points") {
            for (const std::string &name :
                 faultpoints::knownPoints()) {
                std::cout << name << "\n";
            }
            return 0;
        }
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        if (arg == "--spec" && i + 1 < argc) {
            specPath = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else {
            std::cerr << "unknown argument '" << arg << "'\n";
            return usage(std::cerr, 2);
        }
    }
    if (specPath.empty()) {
        std::cerr << "missing --spec\n";
        return usage(std::cerr, 2);
    }

    return benchMain("predilp_sweep", [&] {
        WallTimer wall;
        std::ifstream in(specPath, std::ios::binary);
        if (!in) {
            std::cerr << "cannot read spec " << specPath << "\n";
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        SweepSpec spec =
            SweepSpec::fromJson(JsonValue::parse(text.str()));

        SweepOutcome outcome = runSweep(spec, outPath);
        std::cout << "-- sweep: " << outcome.cells << " cells, "
                  << outcome.threads << " threads -> "
                  << outcome.path << "\n";
        printPhaseTiming(std::cout, outcome.timing, wall.seconds(),
                         outcome.threads);
        return 0;
    });
}
