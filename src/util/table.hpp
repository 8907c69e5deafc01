// Aligned console tables.
//
// The benchmark binaries print each paper table/figure as a plain-text table
// on stdout before running google-benchmark timings; this keeps the
// reproduction output greppable and diffable. to_csv() renders the same
// table for examples/campaign.
#pragma once

#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

namespace resched {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Row length must match the header length.
  void add_row(std::vector<std::string> cells);

  // Convenience: converts each cell with to_string-like formatting.
  template <typename... Cells>
  void add(const Cells&... cells) {
    add_row({cell_to_string(cells)...});
  }

  [[nodiscard]] std::string to_string() const;
  void print(std::ostream& os) const;
  // Header line then one line per row, comma-separated; a cell holding a
  // comma or a double quote is quoted (RFC 4180).
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  static std::string cell_to_string(const std::string& s) { return s; }
  static std::string cell_to_string(const char* s) { return s; }
  static std::string cell_to_string(double v);
  template <typename T>
  static std::string cell_to_string(const T& v) {
    if constexpr (std::is_integral_v<T>) {
      return std::to_string(v);
    } else {
      return to_string_adl(v);
    }
  }
  template <typename T>
  static std::string to_string_adl(const T& v) {
    return v.to_string();
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace resched
