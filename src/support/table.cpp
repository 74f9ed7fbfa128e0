#include "support/table.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "support/logging.hpp"

namespace fingrav::support {

void
appendGeneral(std::string& out, double v)
{
    // "-2.22507e-308" and "-nan" are the longest %g outputs.
    char buf[32];
    const auto r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
    out.append(buf, r.ptr);
}

void
appendFixed(std::string& out, double v, int precision)
{
    // A sign, up to 309 integer digits (DBL_MAX), the point and the
    // fraction: the buffer is sized from the precision, so nothing is
    // ever truncated.
    const int digits = precision < 0 ? 6 : precision;
    const std::size_t need = 2 + 309 + static_cast<std::size_t>(digits);
    char stack[352];
    std::string heap;
    char* buf = stack;
    if (need > sizeof stack) {
        heap.resize(need);
        buf = heap.data();
    }
    const auto r =
        std::to_chars(buf, buf + need, v, std::chars_format::fixed, digits);
    out.append(buf, r.ptr);
}

TableWriter::TableWriter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        fatal("TableWriter: need at least one column");
}

void
TableWriter::addRow(std::vector<std::string> row)
{
    if (row.size() != headers_.size())
        fatal("TableWriter: row has ", row.size(), " cells, expected ",
              headers_.size());
    rows_.push_back(std::move(row));
}

std::string
TableWriter::num(double v, int precision)
{
    std::string out;
    appendFixed(out, v, precision);
    return out;
}

void
TableWriter::render(std::string& out) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;

    out.reserve(out.size() + (rows_.size() + 2) * (total + 1));
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out += row[c];
            out.append(widths[c] + 2 - row[c].size(), ' ');
        }
        out += '\n';
    };
    emit_row(headers_);
    out.append(total, '-');
    out += '\n';
    for (const auto& row : rows_)
        emit_row(row);
}

void
TableWriter::print(std::ostream& os) const
{
    std::string out;
    render(out);
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : columns_(headers.size())
{
    if (columns_ == 0)
        fatal("CsvWriter: need at least one column");
    std::ostringstream oss;
    for (std::size_t i = 0; i < headers.size(); ++i)
        oss << (i ? "," : "") << headers[i];
    lines_.push_back(oss.str());
}

void
CsvWriter::addRow(std::vector<std::string> row)
{
    if (row.size() != columns_)
        fatal("CsvWriter: row has ", row.size(), " cells, expected ",
              columns_);
    std::ostringstream oss;
    for (std::size_t i = 0; i < row.size(); ++i)
        oss << (i ? "," : "") << row[i];
    lines_.push_back(oss.str());
}

void
CsvWriter::addNumericRow(const std::vector<double>& row, int precision)
{
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (double v : row) {
        std::ostringstream oss;
        oss << std::setprecision(precision) << v;
        cells.push_back(oss.str());
    }
    addRow(std::move(cells));
}

void
CsvWriter::print(std::ostream& os) const
{
    for (const auto& line : lines_)
        os << line << "\n";
}

bool
CsvWriter::writeFile(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("CsvWriter: cannot open ", path, " for writing");
        return false;
    }
    print(out);
    return static_cast<bool>(out);
}

}  // namespace fingrav::support
