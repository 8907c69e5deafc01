#include "core/swf.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace resched {

namespace {

// Times beyond ~2^40 ticks are archive noise (34 years at 1-second
// resolution); clamp instead of overflowing downstream arithmetic.
constexpr Time kTimeCap = Time{1} << 40;

[[nodiscard]] std::optional<std::int64_t> parse_exact(std::string_view text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end) return value;
  return std::nullopt;
}

// SWF fields are integers, but archives occasionally carry "123.0" or
// scientific notation; accept anything that round-trips through a double.
[[nodiscard]] std::optional<std::int64_t> parse_field(std::string_view text) {
  if (const auto exact = parse_exact(text)) return exact;
  try {
    std::size_t consumed = 0;
    const double real = std::stod(std::string(text), &consumed);
    if (consumed != text.size() || !std::isfinite(real)) return std::nullopt;
    if (real >= 9.2e18 || real <= -9.2e18) return std::nullopt;
    return std::llround(real);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

struct TimeClamp {
  Time value;
  bool clamped;
};

[[nodiscard]] TimeClamp clamp_time(std::int64_t raw) {
  if (raw < 0) return {0, true};
  if (raw > kTimeCap) return {kTimeCap, true};
  return {raw, false};
}

// ";RESERVATION id q p start": four exact integers with q, p >= 1 and
// 0 <= start, and p and start within the time cap jobs clamp to; else
// std::invalid_argument naming the line.
[[nodiscard]] Reservation parse_reservation(std::string_view line,
                                            std::size_t line_no) {
  const std::vector<std::string> fields = split_ws(line.substr(1));
  std::optional<std::int64_t> id, q, p, start;
  if (fields.size() == 5) {
    id = parse_exact(fields[1]);
    q = parse_exact(fields[2]);
    p = parse_exact(fields[3]);
    start = parse_exact(fields[4]);
  }
  if (!id || !q || !p || !start || *q < 1 || *p < 1 || *p > kTimeCap ||
      *start < 0 || *start > kTimeCap)
    throw std::invalid_argument(
        "malformed ;RESERVATION at line " + std::to_string(line_no) +
        " (want id q p start, q and p >= 1, 0 <= start, p and start <= "
        "2^40): '" + std::string(line) + "'");
  return Reservation{static_cast<ReservationId>(*id), *q, *p, *start, ""};
}

}  // namespace

void write_swf(const Instance& instance, std::ostream& os) {
  os << "; SWF trace written by resched\n";
  os << "; MaxProcs: " << instance.m() << "\n";
  for (const Reservation& resa : instance.reservations())
    os << ";RESERVATION " << resa.id << ' ' << resa.q << ' ' << resa.p << ' '
       << resa.start << "\n";
  // 18 standard SWF fields; unknown values are -1. We use:
  //  1 job number (1-based per SWF convention), 2 submit, 4 run time,
  //  5 allocated processors, 8 requested processors, 9 requested time.
  for (const Job& job : instance.jobs()) {
    os << (job.id + 1) << ' ' << job.release << " -1 " << job.p << ' '
       << job.q << " -1 -1 " << job.q << ' ' << job.p
       << " -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
  }
}

std::string to_string(SwfSkipReason reason) {
  switch (reason) {
    case SwfSkipReason::kTruncated: return "truncated";
    case SwfSkipReason::kBadInteger: return "bad-integer";
    case SwfSkipReason::kNonPositiveRuntime: return "nonpositive-runtime";
    case SwfSkipReason::kNonPositiveProcs: return "nonpositive-procs";
    case SwfSkipReason::kCancelled: return "cancelled";
  }
  return "?";
}

SwfTrace parse_swf(std::string_view text) {
  SwfTrace trace;
  ProcCount header_max_procs = 0;

  const auto skip = [&trace](SwfSkipReason reason) {
    ++trace.skipped;
    ++trace.skipped_by_reason[static_cast<std::size_t>(reason)];
  };

  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == ';') {
      // ;RESERVATION lines, then `; Key: Value` directives; other comment
      // lines (e.g. the archive's free-form notes) are ignored.
      const std::string_view body = trim(line.substr(1));
      if (body.substr(0, body.find_first_of(" \t")) == "RESERVATION") {
        trace.reservations.push_back(parse_reservation(line, line_no));
        continue;
      }
      const std::size_t colon = body.find(':');
      if (colon == std::string_view::npos) continue;
      const std::string key{trim(body.substr(0, colon))};
      const std::string value{trim(body.substr(colon + 1))};
      if (key.empty()) continue;
      trace.directives[key] = value;
      if (key == "MaxProcs")
        if (const auto parsed = parse_field(value); parsed && *parsed > 0)
          header_max_procs = *parsed;
      continue;
    }

    const std::vector<std::string> fields = split_ws(line);
    if (fields.size() < 11) {
      skip(SwfSkipReason::kTruncated);
      continue;
    }

    const auto job_number = parse_field(fields[0]);
    const auto submit = parse_field(fields[1]);
    const auto run_time = parse_field(fields[3]);
    const auto alloc_procs = parse_field(fields[4]);
    const auto req_procs = parse_field(fields[7]);
    const auto req_time = parse_field(fields[8]);
    const auto status = parse_field(fields[10]);
    if (!job_number || !submit || !run_time || !alloc_procs || !req_procs ||
        !req_time || !status) {
      skip(SwfSkipReason::kBadInteger);
      continue;
    }

    if (*status == 0 || *status == 5) {
      skip(SwfSkipReason::kCancelled);
      continue;
    }

    std::int64_t p_raw = *run_time > 0 ? *run_time : *req_time;
    if (p_raw <= 0) {
      skip(SwfSkipReason::kNonPositiveRuntime);
      continue;
    }
    std::int64_t q_raw = *alloc_procs > 0 ? *alloc_procs : *req_procs;
    if (q_raw <= 0) {
      skip(SwfSkipReason::kNonPositiveProcs);
      continue;
    }

    const TimeClamp release = clamp_time(*submit);
    if (release.clamped) ++trace.clamped_times;
    if (p_raw > kTimeCap) {
      p_raw = kTimeCap;
      ++trace.clamped_times;
    }

    Job job;
    job.id = static_cast<JobId>(trace.jobs.size());
    job.q = q_raw;
    job.p = p_raw;
    job.release = release.value;
    job.name = "swf" + std::to_string(*job_number);
    trace.jobs.push_back(std::move(job));
    ++trace.parsed;
  }

  trace.max_procs = header_max_procs;
  if (trace.max_procs == 0) {
    for (const Job& job : trace.jobs)
      trace.max_procs = std::max(trace.max_procs, job.q);
    for (const Reservation& resa : trace.reservations)
      trace.max_procs = std::max(trace.max_procs, resa.q);
  }
  if (trace.max_procs == 0) trace.max_procs = 1;

  for (Job& job : trace.jobs)
    if (job.q > trace.max_procs) {
      job.q = trace.max_procs;
      ++trace.clamped_procs;
    }
  return trace;
}

SwfTrace load_swf(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open SWF trace: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_swf(buffer.str());
}

Instance SwfTrace::to_instance() const {
  return Instance(max_procs, jobs, reservations);
}

std::string SwfTrace::skip_summary() const {
  std::ostringstream out;
  out << "parsed=" << parsed << " skipped=" << skipped;
  if (skipped > 0) {
    out << " (";
    bool first = true;
    for (std::size_t i = 0; i < kSwfSkipReasonCount; ++i) {
      if (skipped_by_reason[i] == 0) continue;
      if (!first) out << " ";
      out << to_string(static_cast<SwfSkipReason>(i)) << "="
          << skipped_by_reason[i];
      first = false;
    }
    out << ")";
  }
  return out.str();
}

}  // namespace resched
