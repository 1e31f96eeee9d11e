/**
 * @file
 * Plain-text report helpers: the table printer and mean used by the
 * benchmark harness to render the paper's tables and figure data.
 * Counters live in support/stats_registry.hh.
 */

#ifndef PREDILP_SUPPORT_STATS_HH
#define PREDILP_SUPPORT_STATS_HH

#include <ostream>
#include <string>
#include <vector>

namespace predilp
{

/**
 * Monospace table printer. Collects rows of strings and renders them
 * with column alignment, which is how every bench binary prints the
 * paper's tables and figure series.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Append one data row. */
    void addRow(std::vector<std::string> row);

    /** Render the table to @p os. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Arithmetic mean of @p values; 0 when empty. */
double arithmeticMean(const std::vector<double> &values);

} // namespace predilp

#endif // PREDILP_SUPPORT_STATS_HH
