#ifndef FINGRAV_SUPPORT_TABLE_HPP_
#define FINGRAV_SUPPORT_TABLE_HPP_

/**
 * @file
 * ASCII table and CSV emitters for benchmark/experiment output.
 *
 * Every bench binary prints the rows/series of the paper table or figure it
 * regenerates; TableWriter renders aligned console tables and CsvWriter
 * dumps the same data machine-readably (for replotting).
 */

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace fingrav::support {

/**
 * Append `v` as a stream with default flags prints it: printf's %g at
 * precision 6 in the C locale (std::to_chars' general format).
 */
void appendGeneral(std::string& out, double v);

/**
 * Append `v` as `os << std::fixed << std::setprecision(precision) << v`
 * prints it: printf's %.*f in the C locale, a negative precision meaning
 * 6.  Never truncates (DBL_MAX has 309 integer digits).
 */
void appendFixed(std::string& out, double v, int precision);

/** Column-aligned console table. */
class TableWriter {
  public:
    /** @param headers Column headings (defines the column count). */
    explicit TableWriter(std::vector<std::string> headers);

    /** Append a row; must match the column count (fatal otherwise). */
    void addRow(std::vector<std::string> row);

    /** Format a double with the given precision (helper for row building). */
    static std::string num(double v, int precision = 2);

    /**
     * Append the table to `out`: each cell left-aligned in its column's
     * width plus two, and a dash rule under the headers.
     */
    void render(std::string& out) const;

    /** Write render()'s text to a stream; its flags are left alone. */
    void print(std::ostream& os) const;

    /** Number of data rows so far. */
    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Comma-separated emitter with the same row-oriented interface. */
class CsvWriter {
  public:
    explicit CsvWriter(std::vector<std::string> headers);

    /** Append a row; must match the column count (fatal otherwise). */
    void addRow(std::vector<std::string> row);

    /** Append a row of numbers. */
    void addNumericRow(const std::vector<double>& row, int precision = 6);

    /** Render the full CSV (header + rows). */
    void print(std::ostream& os) const;

    /** Write to a file; warns and returns false on I/O failure. */
    bool writeFile(const std::string& path) const;

  private:
    std::size_t columns_;
    std::vector<std::string> lines_;
};

}  // namespace fingrav::support

#endif  // FINGRAV_SUPPORT_TABLE_HPP_
