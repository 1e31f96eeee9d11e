#include "plan.hh"

#include <fstream>
#include <sstream>

#include "frontend/irgen.hh"
#include "opt/passes.hh"
#include "support/diag.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

const Model allModels[] = {Model::Superblock, Model::CondMove,
                           Model::FullPred};

/** Value pools the sweep_cache seed draws from, and how many of each. */
const std::int64_t btbPool[] = {256, 512, 1024, 2048, 4096};
constexpr std::size_t btbDrawn = 3;
const char *const predictorPool[] = {"twobit", "onebit", "taken"};
constexpr std::size_t predictorDrawn = 2;
const std::int64_t cachePool[] = {8192, 16384, 32768, 65536};
constexpr std::size_t cacheDrawn = 2;

/** Fisher-Yates shuffle driven by the repository's splitmix64. */
template <typename T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBelow(i)]);
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const Workload &workload : allWorkloads())
        names.push_back(workload.name);
    return names;
}

std::vector<std::string>
shuffledSuite(Rng &rng)
{
    std::vector<std::string> names = suiteNames();
    shuffle(names, rng);
    return names;
}

/** The first @p count values of a seeded permutation of @p pool. */
template <typename T, std::size_t N>
std::vector<JsonValue>
draw(const T (&pool)[N], std::size_t count, Rng &rng,
     JsonValue (*make)(T))
{
    std::vector<T> values(pool, pool + N);
    shuffle(values, rng);
    std::vector<JsonValue> drawn;
    for (std::size_t i = 0; i < count; ++i)
        drawn.push_back(make(values[i]));
    return drawn;
}

JsonValue
makeInt(std::int64_t v)
{
    return JsonValue::makeInt(v);
}

JsonValue
makeName(const char *v)
{
    return JsonValue::makeString(v);
}

/** The sweep's base request: real caches at 8 issue / 1 branch. */
EvalRequest
sweepBase()
{
    EvalRequest base;
    base.sim = SimConfig::paperMachine();
    base.sim.machine = issue8Branch1();
    base.sim.perfectCaches = false;
    return base;
}

std::string
workloadOf(const std::string &key)
{
    std::size_t first = key.find('/');
    std::size_t second = key.find('/', first + 1);
    return key.substr(first + 1, second - first - 1);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "figures_cold", "figures_warm", "sweep_cache"};
    return names;
}

Plan
makePlan(const std::string &workload, std::uint64_t seed)
{
    Plan plan;
    Rng rng(seed);
    if (workload == "figures_cold" || workload == "figures_warm") {
        plan.warm = workload == "figures_warm";
        EvalRequest fig08;
        fig08.sim = SimConfig::paperMachine();
        EvalRequest fig09 = fig08;
        fig09.sim.machine = issue8Branch2();
        EvalRequest fig10 = fig08;
        fig10.sim.machine = issue4Branch1();
        EvalRequest fig11 = fig08;
        fig11.sim.perfectCaches = false;
        fig08.workloads = shuffledSuite(rng);
        fig11.workloads = shuffledSuite(rng);
        fig09.workloads = shuffledSuite(rng);
        fig10.workloads = shuffledSuite(rng);
        // bench_figures_all's order: Figure 11 replays Figure 8's
        // traces, and traces are released before each other machine.
        plan.phases = {{{"fig08", fig08}, {"fig11", fig11}},
                       {{"fig09", fig09}},
                       {{"fig10", fig10}}};
    } else if (workload == "sweep_cache") {
        plan.sweep = true;
        plan.threads = resolveThreadCount(0);
        plan.spec.base = sweepBase();
        plan.spec.base.workloads = shuffledSuite(rng);
        plan.spec.axes = {
            {"btb_entries", draw(btbPool, btbDrawn, rng, makeInt)},
            {"predictor",
             draw(predictorPool, predictorDrawn, rng, makeName)},
            {"cache_size_bytes", draw(cachePool, cacheDrawn, rng, makeInt)},
        };
        std::vector<NamedRequest> cells;
        for (const SweepCell &cell : plan.spec.expandGrid())
            cells.push_back({configLabel(cell.request.sim), cell.request});
        plan.phases = {std::move(cells)};
    } else {
        throw FatalError("unknown workload '" + workload + "'");
    }
    for (const Workload &w : allWorkloads())
        plan.inputs[w.name] = w.makeInput(w.defaultScale);
    return plan;
}

SweepSpec
fullSweepSpec()
{
    SweepSpec spec;
    spec.base = sweepBase();
    std::vector<JsonValue> btb, predictors, caches;
    for (std::int64_t v : btbPool)
        btb.push_back(JsonValue::makeInt(v));
    for (const char *v : predictorPool)
        predictors.push_back(JsonValue::makeString(v));
    for (std::int64_t v : cachePool)
        caches.push_back(JsonValue::makeInt(v));
    spec.axes = {{"btb_entries", btb},
                 {"predictor", predictors},
                 {"cache_size_bytes", caches}};
    return spec;
}

std::string
configLabel(const SimConfig &sim)
{
    std::ostringstream os;
    os << "btb" << sim.btbEntries << '-' << predictorName(sim.predictor)
       << "-cache" << sim.cacheSizeBytes;
    return os.str();
}

std::string
cellKey(const std::string &group, const std::string &workload,
        Model model)
{
    return group + "/" + workload + "/" + modelKey(model);
}

void
addCells(Cells &cells, const std::string &group,
         const EvalResponse &response)
{
    for (const BenchmarkResult &result : response.results) {
        for (const auto &[model, sim] : result.models) {
            Cell &cell = cells[cellKey(group, result.name, model)];
            cell.baseCycles = result.baseCycles;
            cell.cycles = sim.cycles;
            cell.dynInstrs = sim.dynInstrs;
            cell.speedup = result.speedup(model);
            cell.hasRun = true;
            cell.exitValue = sim.exitValue;
            cell.output = sim.output;
        }
        // A failed cell stays in the set with zero figures, so it
        // mismatches its golden value and counts as failed.
        for (const CellError &error : result.errors) {
            for (Model model : allModels) {
                if (error.baseline || modelName(model) == error.model)
                    cells[cellKey(group, result.name, model)] = Cell{};
            }
        }
    }
}

Cells
sweepCells(const SweepSpec &spec, const std::string &cellsJson)
{
    const std::vector<SweepCell> grid = spec.expandGrid();
    Cells cells;
    const JsonValue parsed = JsonValue::parse(cellsJson);
    for (const JsonValue &cell : parsed.items()) {
        const SweepCell &gridCell =
            grid.at(static_cast<std::size_t>(cell.find("index")->asInt()));
        const std::string group = configLabel(gridCell.request.sim);
        const JsonValue *benchmarks = cell.find("benchmarks");
        if (benchmarks == nullptr) {
            // A degraded record: every cell of the request failed.
            for (const std::string &name : suiteNames()) {
                for (Model model : allModels)
                    cells[cellKey(group, name, model)] = Cell{};
            }
            continue;
        }
        for (const JsonValue &bench : benchmarks->items()) {
            const std::string name = bench.find("name")->asString();
            const auto base = static_cast<std::uint64_t>(
                bench.find("base_cycles")->asInt());
            for (const auto &[model, figures] :
                 bench.find("models")->members()) {
                Cell &out = cells[cellKey(group, name,
                                          modelFromKey(model))];
                out.baseCycles = base;
                out.cycles = static_cast<std::uint64_t>(
                    figures.find("cycles")->asInt());
                out.dynInstrs = static_cast<std::uint64_t>(
                    figures.find("dyn_instrs")->asInt());
                out.speedup = figures.find("speedup")->asDouble();
            }
        }
    }
    return cells;
}

std::map<std::string, RunResult>
referenceRuns(const std::map<std::string, std::string> &inputs)
{
    std::map<std::string, RunResult> runs;
    for (const Workload &workload : allWorkloads()) {
        std::unique_ptr<Program> prog = compileSource(workload.source);
        optimizeProgram(*prog);
        EmuOptions opts;
        opts.backend = EmuBackend::Interp;
        runs[workload.name] =
            Emulator(*prog).run(inputs.at(workload.name), opts);
    }
    return runs;
}

Golden
readGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw FatalError("cannot read golden file " + path);
    std::stringstream text;
    text << in.rdbuf();
    Golden golden;
    const JsonValue parsed = JsonValue::parse(text.str());
    for (const auto &[group, workloads] : parsed.members()) {
        for (const auto &[name, row] : workloads.members()) {
            const auto base = static_cast<std::uint64_t>(
                row.find("base_cycles")->asInt());
            for (Model model : allModels) {
                const JsonValue *figures = row.find(modelKey(model));
                if (figures == nullptr)
                    continue;
                Cell &cell = golden[cellKey(group, name, model)];
                cell.baseCycles = base;
                cell.cycles = static_cast<std::uint64_t>(
                    figures->items().at(0).asInt());
                cell.dynInstrs = static_cast<std::uint64_t>(
                    figures->items().at(1).asInt());
                cell.speedup = figures->items().at(2).asDouble();
            }
        }
    }
    return golden;
}

void
writeGolden(const std::string &path, const Cells &cells)
{
    // group -> workload -> {base_cycles, model: [cycles, dyn, speedup]}
    std::map<std::string,
             std::map<std::string,
                      std::vector<std::pair<std::string, JsonValue>>>>
        rows;
    for (const auto &[key, cell] : cells) {
        std::size_t slash = key.find('/');
        const std::string group = key.substr(0, slash);
        const std::string name = workloadOf(key);
        const std::string model = key.substr(key.rfind('/') + 1);
        auto &row = rows[group][name];
        if (row.empty()) {
            row.emplace_back("base_cycles",
                             JsonValue::makeInt(static_cast<std::int64_t>(
                                 cell.baseCycles)));
        }
        row.emplace_back(
            model,
            JsonValue::makeArray(
                {JsonValue::makeInt(static_cast<std::int64_t>(cell.cycles)),
                 JsonValue::makeInt(
                     static_cast<std::int64_t>(cell.dynInstrs)),
                 JsonValue::makeDouble(cell.speedup)}));
    }
    std::vector<std::pair<std::string, JsonValue>> groups;
    for (auto &[group, workloads] : rows) {
        std::vector<std::pair<std::string, JsonValue>> members;
        for (auto &[name, row] : workloads)
            members.emplace_back(name, JsonValue::makeObject(row));
        groups.emplace_back(group, JsonValue::makeObject(members));
    }
    std::ofstream out(path);
    out << JsonValue::makeObject(groups).dump() << "\n";
    if (!out)
        throw FatalError("cannot write golden file " + path);
}

void
Check::fail(const std::string &message)
{
    ++failed;
    if (errors.size() < 8)
        errors.push_back(message);
}

void
Check::merge(const Check &other)
{
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string &error : other.errors) {
        if (errors.size() < 8)
            errors.push_back(error);
    }
}

Check
checkCells(const Cells &cells, const Golden &golden,
           const std::map<std::string, RunResult> &references)
{
    Check check;
    for (const auto &[key, cell] : cells) {
        ++check.attempted;
        auto it = golden.find(key);
        if (it == golden.end()) {
            check.fail(key + ": no golden value");
            continue;
        }
        const Cell &want = it->second;
        if (cell.baseCycles != want.baseCycles ||
            cell.cycles != want.cycles ||
            cell.dynInstrs != want.dynInstrs ||
            cell.speedup != want.speedup) {
            std::ostringstream os;
            os << key << ": cycles " << cell.cycles << " (golden "
               << want.cycles << "), base " << cell.baseCycles
               << " (golden " << want.baseCycles << "), dyn_instrs "
               << cell.dynInstrs << " (golden " << want.dynInstrs << ")";
            check.fail(os.str());
            continue;
        }
        if (cell.hasRun) {
            const RunResult &ref = references.at(workloadOf(key));
            if (cell.exitValue != ref.exitValue ||
                cell.output != ref.output)
                check.fail(key + ": program output differs from the "
                                 "interpreter reference run");
        }
    }
    return check;
}

Check
compareCells(const Cells &expected, const Cells &actual)
{
    Check check;
    if (expected.size() != actual.size()) {
        check.fail("traced walk priced " + std::to_string(actual.size()) +
                   " cells, untraced pass " +
                   std::to_string(expected.size()));
    }
    for (const auto &[key, want] : expected) {
        ++check.attempted;
        auto it = actual.find(key);
        if (it == actual.end()) {
            check.fail(key + ": missing from the traced walk");
        } else if (it->second.cycles != want.cycles ||
                   it->second.baseCycles != want.baseCycles ||
                   it->second.dynInstrs != want.dynInstrs) {
            check.fail(key + ": traced walk cycles " +
                       std::to_string(it->second.cycles) +
                       " != untraced " + std::to_string(want.cycles));
        }
    }
    return check;
}

} // namespace perfbench
