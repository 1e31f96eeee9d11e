#include "driver/certified.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "sim/timing.hh"
#include "store/sha256.hh"

namespace predilp
{

namespace
{

/** The headline SimResult counters, under their figure names. */
constexpr std::pair<const char *, std::uint64_t SimResult::*>
    headlineFigures[] = {
        {"cycles", &SimResult::cycles},
        {"dyn_instrs", &SimResult::dynInstrs},
        {"nullified", &SimResult::nullified},
        {"branches", &SimResult::branches},
        {"cond_branches", &SimResult::condBranches},
        {"mispredicts", &SimResult::mispredicts},
        {"loads", &SimResult::loads},
        {"stores", &SimResult::stores},
        {"icache_misses", &SimResult::icacheMisses},
        {"dcache_misses", &SimResult::dcacheMisses},
};

} // namespace

JsonValue
CellProvenance::toJson() const
{
    return JsonValue::makeObject({
        {"workload", JsonValue::makeString(workload)},
        {"model", JsonValue::makeString(model)},
        {"scale", JsonValue::makeInt(scale)},
        {"ablation", JsonValue::makeString(ablation)},
        {"fuel",
         JsonValue::makeInt(static_cast<std::int64_t>(fuel))},
        {"machine", JsonValue::makeString(machine)},
        {"source_sha256", JsonValue::makeString(sourceSha256)},
        {"pipeline_digest", JsonValue::makeString(pipelineDigest)},
        {"config_digest", JsonValue::makeString(configDigest)},
        {"trace_digest", JsonValue::makeString(traceDigest)},
    });
}

std::string
CellProvenance::identityKey() const
{
    std::ostringstream os;
    os << workload << '|' << model << "|s" << scale << "|a"
       << ablation << "|f" << fuel << "|m" << machine;
    return os.str();
}

std::string
machineIdentity(const MachineConfig &m)
{
    std::ostringstream os;
    os << m.issueWidth << ',' << m.branchesPerCycle << ','
       << m.mispredictPenalty << ',' << m.latIntAlu << ','
       << m.latIntMul << ',' << m.latIntDiv << ',' << m.latFpAlu
       << ',' << m.latFpDiv << ',' << m.latLoad << ',' << m.latStore
       << ',' << m.latBranch << ',' << m.latPredDefine;
    return os.str();
}

std::string
passPipelineDigest(Model model, const AblationFlags &ablation)
{
    CompileOptions opts;
    opts.model = model;
    opts.ablation = ablation.canonicalFor(model);
    std::ostringstream text;
    text << "predilp-pipeline-v1\n" << modelKey(model) << '|'
         << opts.ablation.key() << '\n';
    for (const std::string &name :
         buildPassPipeline(opts).passNames())
        text << name << '\n';
    return "v1:" + sha256Hex(text.str()).substr(0, 32);
}

std::string
certifiedResultKey(const CellProvenance &prov)
{
    return sha256Hex(std::string(certSchemaTag) + "\n" +
                     prov.toJson().dump());
}

JsonValue
certifiedFigures(const SimResult &sim)
{
    // std::map ordering makes the member order — and therefore the
    // record bytes — independent of insertion order.
    std::map<std::string, std::uint64_t> figures(
        sim.stats.counters());
    for (const auto &[name, field] : headlineFigures)
        figures[name] = sim.*field;
    std::vector<std::pair<std::string, JsonValue>> members;
    members.reserve(figures.size());
    for (const auto &[name, value] : figures)
        members.emplace_back(
            name,
            JsonValue::makeInt(static_cast<std::int64_t>(value)));
    return JsonValue::makeObject(std::move(members));
}

JsonValue
certifiedRecord(const CellProvenance &prov, const SimResult &sim)
{
    return JsonValue::makeObject({
        {"schema", JsonValue::makeString(certSchemaTag)},
        {"provenance", prov.toJson()},
        {"figures", certifiedFigures(sim)},
        {"run", JsonValue::makeObject({
                    {"exit_value", JsonValue::makeInt(sim.exitValue)},
                    {"output", JsonValue::makeString(sim.output)},
                })},
    });
}

std::optional<SimResult>
certifiedResult(const JsonValue &record, const CellProvenance &prov)
{
    using Kind = JsonValue::Kind;
    if (!record.isObject())
        return std::nullopt;
    const JsonValue *schema = record.find("schema");
    const JsonValue *provenance = record.find("provenance");
    const JsonValue *figures = record.find("figures");
    const JsonValue *run = record.find("run");
    if (schema == nullptr || schema->kind() != Kind::String ||
        schema->asString() != certSchemaTag ||
        provenance == nullptr ||
        provenance->dump() != prov.toJson().dump() ||
        figures == nullptr || !figures->isObject() ||
        run == nullptr || !run->isObject())
        return std::nullopt;
    const JsonValue *exitValue = run->find("exit_value");
    const JsonValue *output = run->find("output");
    if (exitValue == nullptr || exitValue->kind() != Kind::Int ||
        output == nullptr || output->kind() != Kind::String)
        return std::nullopt;

    SimResult sim;
    sim.exitValue = exitValue->asInt();
    sim.output = output->asString();
    // certifiedFigures merged the headline counters into the stats
    // counters (the sim.* scope never uses a headline name), so
    // every other figure is a stats counter.
    std::size_t headlines = 0;
    for (const auto &[name, value] : figures->members()) {
        if (value.kind() != Kind::Int || value.asInt() < 0)
            return std::nullopt;
        const auto count = static_cast<std::uint64_t>(value.asInt());
        auto headline = std::find_if(
            std::begin(headlineFigures), std::end(headlineFigures),
            [&](const auto &entry) { return name == entry.first; });
        if (headline == std::end(headlineFigures)) {
            sim.stats.setCounter(name, count);
        } else {
            sim.*(headline->second) = count;
            ++headlines;
        }
    }
    if (headlines != std::size(headlineFigures))
        return std::nullopt;
    return sim;
}

} // namespace predilp
