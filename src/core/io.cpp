
#include "core/io.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"
#include <istream>
#include <ostream>
#include <sstream>

namespace resched {

namespace {

// Quotes a name for the native format (names may contain spaces).
std::string quote(const std::string& name) {
  std::string out = "\"";
  for (const char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string unquote(std::string_view text) {
  std::string out;
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"')
    text = text.substr(1, text.size() - 2);
  bool escape = false;
  for (const char c : text) {
    if (escape) {
      out += c;
      escape = false;
    } else if (c == '\\') {
      escape = true;
    } else {
      out += c;
    }
  }
  return out;
}

std::int64_t parse_int(const std::string& token, const std::string& context) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("malformed integer '" + token + "' in " +
                                context);
  }
}

}  // namespace

void save_instance(const Instance& instance, std::ostream& os) {
  os << "# resched instance v1\n";
  os << "m " << instance.m() << "\n";
  for (const Job& job : instance.jobs()) {
    os << "job " << job.id << ' ' << job.q << ' ' << job.p << ' '
       << job.release;
    if (!job.name.empty()) os << ' ' << quote(job.name);
    os << "\n";
  }
  for (const Reservation& resa : instance.reservations()) {
    os << "resa " << resa.id << ' ' << resa.q << ' ' << resa.p << ' '
       << resa.start;
    if (!resa.name.empty()) os << ' ' << quote(resa.name);
    os << "\n";
  }
}

Instance load_instance(std::istream& is) {
  ProcCount m = 0;
  bool saw_m = false;
  std::vector<Job> jobs;
  std::vector<Reservation> reservations;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::string context = "line " + std::to_string(line_no);
    // Split into at most 5 leading fields; the 6th (name) may contain spaces.
    const auto fields = split_ws(trimmed);
    RESCHED_REQUIRE_MSG(!fields.empty(), "empty record at " + context);
    if (fields[0] == "m") {
      RESCHED_REQUIRE_MSG(fields.size() == 2, "bad m record at " + context);
      m = parse_int(fields[1], context);
      saw_m = true;
    } else if (fields[0] == "job" || fields[0] == "resa") {
      RESCHED_REQUIRE_MSG(fields.size() >= 5,
                          "record needs id q p time at " + context);
      const auto id = parse_int(fields[1], context);
      const auto q = parse_int(fields[2], context);
      const auto p = parse_int(fields[3], context);
      const auto t = parse_int(fields[4], context);
      std::string name;
      if (fields.size() > 5) {
        // Recover the raw tail after the fifth whitespace-separated token
        // (preserves embedded spaces in quoted names).
        std::size_t pos = 0;
        for (int token = 0; token < 5; ++token) {
          while (pos < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[pos])))
            ++pos;
          while (pos < line.size() &&
                 !std::isspace(static_cast<unsigned char>(line[pos])))
            ++pos;
        }
        name = unquote(trim(std::string_view(line).substr(pos)));
      }
      if (fields[0] == "job") {
        jobs.push_back(
            Job{static_cast<JobId>(id), q, p, t, std::move(name)});
      } else {
        reservations.push_back(Reservation{static_cast<ReservationId>(id), q,
                                           p, t, std::move(name)});
      }
    } else {
      throw std::invalid_argument("unknown record '" + fields[0] + "' at " +
                                  context);
    }
  }
  RESCHED_REQUIRE_MSG(saw_m, "instance file lacks an 'm' record");
  return Instance(m, std::move(jobs), std::move(reservations));
}

void save_schedule_csv(const Instance& instance, const Schedule& schedule,
                       std::ostream& os) {
  os << "job,start,end\n";
  for (const Job& job : instance.jobs()) {
    if (!schedule.is_scheduled(job.id)) continue;
    const Time start = schedule.start(job.id);
    os << job.id << ',' << start << ',' << checked_add(start, job.p) << "\n";
  }
}

Schedule load_schedule_csv(const Instance& instance, std::istream& is) {
  Schedule schedule(instance.n());
  std::string line;
  bool header_seen = false;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (!header_seen) {
      RESCHED_REQUIRE_MSG(trimmed == "job,start,end",
                          "schedule CSV lacks expected header");
      header_seen = true;
      continue;
    }
    const std::string context = "line " + std::to_string(line_no);
    const auto fields = split(trimmed, ',');
    RESCHED_REQUIRE_MSG(fields.size() == 3, "bad CSV row at " + context);
    const auto job = parse_int(fields[0], context);
    const auto start = parse_int(fields[1], context);
    schedule.set_start(static_cast<JobId>(job), start);
  }
  return schedule;
}

}  // namespace resched
