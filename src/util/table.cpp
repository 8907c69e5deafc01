#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/require.hpp"
#include "util/strings.hpp"

namespace resched {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  RESCHED_REQUIRE(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  RESCHED_REQUIRE_MSG(cells.size() == headers_.size(),
                      "row width does not match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::cell_to_string(double v) { return format_double(v, 4); }

// resched-lint: hot-path-alloc-audited(diagnostic rendering, cold) [function]
std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << ' ' << row[c] << std::string(widths[c] - row[c].size(), ' ')
          << " |";
    }
    out << '\n';
  };
  emit_row(headers_);
  out << "|";
  for (const std::size_t w : widths) out << std::string(w + 2, '-') << "|";
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::print(std::ostream& os) const { os << to_string(); }

std::string Table::to_csv() const {
  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      if (row[c].find_first_of(",\"") == std::string::npos) {
        out += row[c];
        continue;
      }
      out += '"';
      for (const char ch : row[c]) {
        if (ch == '"') out += '"';
        out += ch;
      }
      out += '"';
    }
    out += '\n';
  };
  emit_row(headers_);
  for (const auto& row : rows_) emit_row(row);
  return out;
}

}  // namespace resched
