#include "scenario/scn_format.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

namespace resched {

namespace {

struct Token {
  std::string_view text;
  std::size_t column;  // 1-based
};

// Splits a line into whitespace-separated tokens, recording where each one
// starts. A `#` outside a token ends the line (comments).
[[nodiscard]] std::vector<Token> tokenize(std::string_view line) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    if (line[i] == '#') break;
    const std::size_t begin = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    tokens.push_back(Token{line.substr(begin, i - begin), begin + 1});
  }
  return tokens;
}

[[nodiscard]] std::int64_t parse_int(const Token& token, std::size_t line_no,
                                     const char* what) {
  std::int64_t value = 0;
  const char* begin = token.text.data();
  const char* end = begin + token.text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end)
    throw ScnParseError(std::string("expected an integer ") + what +
                            ", got '" + std::string(token.text) + "'",
                        line_no, token.column);
  return value;
}

void expect_arity(const std::vector<Token>& tokens, std::size_t line_no,
                  std::size_t want) {
  if (tokens.size() > want)
    throw ScnParseError("unexpected trailing token '" +
                            std::string(tokens[want].text) + "'",
                        line_no, tokens[want].column);
  if (tokens.size() < want)
    throw ScnParseError("'" + std::string(tokens[0].text) + "' needs " +
                            std::to_string(want - 1) + " argument(s), got " +
                            std::to_string(tokens.size() - 1),
                        line_no, tokens[0].column);
}

}  // namespace

ScenarioProgram parse_scn(std::string_view text) {
  ScenarioProgram program;
  enum class State { kBeforeScenario, kHeader, kDone };
  State state = State::kBeforeScenario;
  bool saw_initial = false;
  bool saw_repeat = false;
  std::size_t line_no = 0;
  std::size_t end_line = 0;

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::vector<Token> tokens = tokenize(line);
    if (tokens.empty()) continue;
    const Token& head = tokens[0];

    if (state == State::kDone)
      throw ScnParseError("content after 'end'", line_no, head.column);

    if (head.text == "scenario") {
      if (state != State::kBeforeScenario)
        throw ScnParseError("duplicate 'scenario' directive", line_no,
                            head.column);
      expect_arity(tokens, line_no, 2);
      program.name = std::string(tokens[1].text);
      state = State::kHeader;
      continue;
    }
    if (state == State::kBeforeScenario)
      throw ScnParseError("expected 'scenario <name>' first, got '" +
                              std::string(head.text) + "'",
                          line_no, head.column);

    if (head.text == "initial") {
      if (saw_initial)
        throw ScnParseError("duplicate 'initial'", line_no, head.column);
      if (!program.steps.empty())
        throw ScnParseError("'initial' must come before the steps", line_no,
                            head.column);
      expect_arity(tokens, line_no, 2);
      program.initial = parse_int(tokens[1], line_no, "level");
      saw_initial = true;
    } else if (head.text == "repeat") {
      if (saw_repeat)
        throw ScnParseError("duplicate 'repeat'", line_no, head.column);
      if (!program.steps.empty())
        throw ScnParseError("'repeat' must come before the steps", line_no,
                            head.column);
      expect_arity(tokens, line_no, 2);
      program.repeat = parse_int(tokens[1], line_no, "count");
      saw_repeat = true;
    } else if (head.text == "ramp_to") {
      expect_arity(tokens, line_no, 3);
      program.steps.push_back(
          ramp_to(parse_int(tokens[1], line_no, "level"),
                  parse_int(tokens[2], line_no, "duration")));
    } else if (head.text == "soak_at") {
      expect_arity(tokens, line_no, 3);
      program.steps.push_back(
          soak_at(parse_int(tokens[1], line_no, "level"),
                  parse_int(tokens[2], line_no, "duration")));
    } else if (head.text == "jump_to") {
      expect_arity(tokens, line_no, 2);
      program.steps.push_back(jump_to(parse_int(tokens[1], line_no, "level")));
    } else if (head.text == "wait_to_cross") {
      expect_arity(tokens, line_no, 2);
      program.steps.push_back(
          wait_to_cross(parse_int(tokens[1], line_no, "threshold")));
    } else if (head.text == "end") {
      expect_arity(tokens, line_no, 1);
      state = State::kDone;
      end_line = line_no;
    } else {
      throw ScnParseError("unknown directive '" + std::string(head.text) + "'",
                          line_no, head.column);
    }
  }

  if (state == State::kBeforeScenario)
    throw ScnParseError("missing 'scenario <name>' header", line_no, 1);
  if (state != State::kDone)
    throw ScnParseError("missing 'end'", line_no, 1);
  try {
    validate_program(program);
  } catch (const std::invalid_argument& ex) {
    throw ScnParseError(ex.what(), end_line, 1);
  }
  return program;
}

ScenarioProgram load_scn(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scn(buffer.str());
}

std::string serialize_scn(const ScenarioProgram& program) {
  validate_program(program);
  std::ostringstream out;
  out << "scenario " << program.name << "\n";
  out << "initial " << program.initial << "\n";
  if (program.repeat != 1) out << "repeat " << program.repeat << "\n";
  for (const ScenarioStep& step : program.steps) {
    out << "  " << to_string(step.kind) << " " << step.level;
    if (step.kind == ScenarioStepKind::kRampTo ||
        step.kind == ScenarioStepKind::kSoakAt)
      out << " " << step.duration;
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

}  // namespace resched
