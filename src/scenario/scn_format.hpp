// Text format for scenario programs (.scn files).
//
// Canonical form, round-trip exact (parse -> serialize -> parse is the
// identity, and serialize(parse(file)) reproduces a canonical file byte for
// byte):
//
//   # comment
//   scenario daily_cycle
//   initial 32
//   repeat 3
//     soak_at 32 480
//     ramp_to 24 120
//     soak_at 24 600
//     ramp_to 32 120
//     soak_at 32 120
//   end
//
// `repeat` is omitted when 1. Step lines are indented two spaces. Blank
// lines and `#` comments are allowed anywhere and dropped by the parser
// (canonical serialization emits none). Errors carry the 1-based line and
// column of the offending token.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "scenario/scenario.hpp"

namespace resched {

class ScnParseError : public std::runtime_error {
 public:
  ScnParseError(std::string message, std::size_t line, std::size_t column)
      : std::runtime_error(std::to_string(line) + ":" +
                           std::to_string(column) + ": " + message),
        line_(line),
        column_(column) {}

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] std::size_t column() const { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

// Parses one scenario program from text. Throws ScnParseError on malformed
// input (unknown directive, bad integer, missing end, trailing garbage).
[[nodiscard]] ScenarioProgram parse_scn(std::string_view text);

// File front end for parse_scn; throws std::runtime_error when the file
// cannot be opened.
[[nodiscard]] ScenarioProgram load_scn(const std::string& path);

// Canonical text for the program (validates first). parse_scn(serialize_scn
// (p)) == p for every valid program.
[[nodiscard]] std::string serialize_scn(const ScenarioProgram& program);

}  // namespace resched
