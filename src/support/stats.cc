#include "support/stats.hh"

#include "support/string_utils.hh"

namespace predilp
{

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths;
    auto account = [&](const std::vector<std::string> &row) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    account(header_);
    for (const auto &row : rows_)
        account(row);

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i > 0)
                os << "  ";
            // First column is left-justified (names); the rest are
            // right-justified (numbers), matching the paper's tables.
            os << (i == 0 ? padRight(row[i], widths[i])
                          : padLeft(row[i], widths[i]));
        }
        os << "\n";
    };

    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t i = 0; i < widths.size(); ++i)
            total += widths[i] + (i > 0 ? 2 : 0);
        os << std::string(total, '-') << "\n";
    }
    for (const auto &row : rows_)
        emit(row);
}

double
arithmeticMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace predilp
