#include "driver/report.hh"

#include "support/logging.hh"
#include "support/stats.hh"
#include "support/string_utils.hh"

namespace predilp
{

void
printSpeedupFigure(std::ostream &os, const std::string &title,
                   const std::vector<BenchmarkResult> &results)
{
    os << title << "\n";
    TextTable table;
    table.setHeader(
        {"Benchmark", "Superblock", "Cond. Move", "Full Pred."});
    std::vector<double> sb;
    std::vector<double> cm;
    std::vector<double> fp;
    for (const auto &r : results) {
        table.addRow({r.name,
                      formatFixed(r.speedup(Model::Superblock), 2),
                      formatFixed(r.speedup(Model::CondMove), 2),
                      formatFixed(r.speedup(Model::FullPred), 2)});
        sb.push_back(r.speedup(Model::Superblock));
        cm.push_back(r.speedup(Model::CondMove));
        fp.push_back(r.speedup(Model::FullPred));
    }
    table.addRow({"(mean)", formatFixed(arithmeticMean(sb), 2),
                  formatFixed(arithmeticMean(cm), 2),
                  formatFixed(arithmeticMean(fp), 2)});
    table.print(os);

    double sbMean = arithmeticMean(sb);
    double cmMean = arithmeticMean(cm);
    double fpMean = arithmeticMean(fp);
    if (sbMean > 0 && cmMean > 0) {
        os << "Cond. Move vs Superblock: "
           << formatFixed((cmMean / sbMean - 1.0) * 100.0, 1)
           << "%  |  Full Pred. vs Cond. Move: "
           << formatFixed((fpMean / cmMean - 1.0) * 100.0, 1)
           << "%  |  Full Pred. vs Superblock: "
           << formatFixed((fpMean / sbMean - 1.0) * 100.0, 1)
           << "%\n";
    }
    os << "\n";
}

void
printInstructionTable(std::ostream &os,
                      const std::vector<BenchmarkResult> &results)
{
    os << "Table 2: dynamic instruction count comparison\n";
    TextTable table;
    table.setHeader(
        {"Benchmark", "Superblk", "Cond. Move", "Full Pred."});
    double cmSum = 0.0;
    double fpSum = 0.0;
    for (const auto &r : results) {
        auto sb = r.models.at(Model::Superblock).dynInstrs;
        auto cm = r.models.at(Model::CondMove).dynInstrs;
        auto fp = r.models.at(Model::FullPred).dynInstrs;
        double cmRatio = static_cast<double>(cm) /
                         static_cast<double>(sb);
        double fpRatio = static_cast<double>(fp) /
                         static_cast<double>(sb);
        cmSum += cmRatio;
        fpSum += fpRatio;
        table.addRow({r.name, formatCount(sb),
                      formatCount(cm) + " (" +
                          formatFixed(cmRatio, 2) + ")",
                      formatCount(fp) + " (" +
                          formatFixed(fpRatio, 2) + ")"});
    }
    auto n = static_cast<double>(results.size());
    table.addRow({"(mean ratio)", "",
                  formatFixed(cmSum / n, 2),
                  formatFixed(fpSum / n, 2)});
    table.print(os);
    os << "\n";
}

void
printBranchTable(std::ostream &os,
                 const std::vector<BenchmarkResult> &results)
{
    os << "Table 3: branches (BR), mispredictions (MP), "
          "misprediction rate (MPR)\n";
    TextTable table;
    table.setHeader({"Benchmark", "BR", "MP", "MPR", "BR", "MP",
                     "MPR", "BR", "MP", "MPR"});
    table.addRow({"", "Superblock", "", "", "Cond. Move", "", "",
                  "Full Pred.", "", ""});
    for (const auto &r : results) {
        std::vector<std::string> row{r.name};
        for (Model model : {Model::Superblock, Model::CondMove,
                            Model::FullPred}) {
            const SimResult &s = r.models.at(model);
            row.push_back(formatCount(s.branches));
            row.push_back(formatCount(s.mispredicts));
            row.push_back(
                formatFixed(s.mispredictRate() * 100.0, 2) + "%");
        }
        table.addRow(std::move(row));
    }
    table.print(os);
    os << "\n";
}

} // namespace predilp
