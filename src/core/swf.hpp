// The Standard Workload Format (SWF) of Feitelson's Parallel Workloads
// Archive: one writer for resched instances and one reader for any SWF file,
// from resched's own dumps to messy archive logs.
//
// An SWF file is `; Key: Value` header directives followed by one job per
// line, 18 whitespace-separated integer fields (missing values are -1).
// Reservations, which SWF has no record type for, travel in header comment
// lines of the form ";RESERVATION id q p start", so a resched SWF file is
// still readable by any stock SWF consumer (comments are skipped).
//
// Field mapping into the repo's Instance model:
//
//   field  1 (job number)      -> Job::name "swf<number>"
//   field  2 (submit time)     -> Job::release   (clamped to >= 0)
//   field  4 (run time)        -> Job::p         (fallback: field 9,
//                                 requested time; both <= 0 skips the line)
//   field  5 (allocated procs) -> Job::q         (fallback: field 8,
//                                 requested procs; both <= 0 skips; values
//                                 above MaxProcs are clamped down)
//   field 11 (status)          -> 0 (failed) / 5 (cancelled) skip the line
//                                 unless options.include_cancelled
//
// Real archive files are messy: lines with fewer than 11 fields,
// unparsable numbers, zero/negative runtimes, jobs wider than the machine.
// The reader never throws on job-record content -- each dropped line is
// accounted for in skipped_by_reason, and out-of-range values saturate
// (counted in clamped_procs / clamped_times). A malformed ;RESERVATION line
// does throw: dropping a reservation would silently loosen every schedule.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"

namespace resched {

// Writes the instance as 18-field SWF records plus a `; MaxProcs:` header
// and one ;RESERVATION line per reservation.
void write_swf(const Instance& instance, std::ostream& os);

enum class SwfSkipReason {
  kTruncated,           // fewer than 11 fields
  kBadInteger,          // a needed field did not parse as a number
  kNonPositiveRuntime,  // run time and requested time both <= 0
  kNonPositiveProcs,    // allocated and requested processors both <= 0
  kCancelled,           // status 0 (failed) or 5 (cancelled)
};
inline constexpr std::size_t kSwfSkipReasonCount = 5;

[[nodiscard]] std::string to_string(SwfSkipReason reason);

struct SwfReadOptions {
  // Machine size when the trace has no `; MaxProcs:` header (0 = infer
  // from the widest parsed job or reservation).
  ProcCount default_max_procs = 0;
  // Keep failed/cancelled records (status 0 or 5) instead of skipping.
  bool include_cancelled = false;
  // Stop after this many parsed jobs (0 = no limit).
  std::size_t max_jobs = 0;

  friend bool operator==(const SwfReadOptions&, const SwfReadOptions&) =
      default;
};

struct SwfTrace {
  // Machine size: header MaxProcs, else options.default_max_procs, else
  // the widest parsed job or reservation.
  ProcCount max_procs = 0;
  // Kept jobs, ids dense in file order.
  std::vector<Job> jobs;
  // ;RESERVATION lines, in file order with their ids as written.
  std::vector<Reservation> reservations;
  // Data lines kept / dropped (parsed + skipped = data lines seen).
  std::uint64_t parsed = 0;
  std::uint64_t skipped = 0;
  std::array<std::uint64_t, kSwfSkipReasonCount> skipped_by_reason{};
  // Saturating-clamp counters: q clamped down to max_procs, negative
  // submit times clamped up to 0 (plus any time clamped to the 2^40 cap).
  std::uint64_t clamped_procs = 0;
  std::uint64_t clamped_times = 0;
  // `; Key: Value` header directives, in the order-independent map form.
  std::map<std::string, std::string> directives;

  // The trace as a schedulable instance: max_procs, jobs, reservations.
  [[nodiscard]] Instance to_instance() const;

  // "parsed=5 skipped=5 (truncated=1 bad-integer=1 ...)" for logs/tools.
  [[nodiscard]] std::string skip_summary() const;
};

// parse_swf consumes a string; load_swf reads a file and throws
// std::runtime_error when it cannot be opened. Job-record problems never
// throw (see skipped_by_reason); a ;RESERVATION line that is not four
// integers id q p start with q, p >= 1, 0 <= start and p, start <= 2^40
// throws std::invalid_argument naming its line.
[[nodiscard]] SwfTrace parse_swf(std::string_view text,
                                 const SwfReadOptions& options = {});
[[nodiscard]] SwfTrace load_swf(const std::string& path,
                                const SwfReadOptions& options = {});

}  // namespace resched
