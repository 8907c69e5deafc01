// SWF writer and reader: the write_swf round trip with reservations, field
// mapping, every skip reason with exact counts, saturating clamps, header
// directives, ;RESERVATION lines, options, and the committed
// tests/data/tiny.swf fixture (one record per skip reason by design).
#include "core/swf.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "algorithms/scheduler.hpp"
#include "scenario/scenario.hpp"

namespace resched {
namespace {

[[nodiscard]] std::string fixture_path(const std::string& name) {
  return std::string(RESCHED_TEST_DATA_DIR) + "/" + name;
}

Instance sample_instance() {
  return Instance(8,
                  {Job{0, 2, 10, 0, "alpha"}, Job{1, 4, 5, 3, "two words"},
                   Job{2, 1, 7, 0, ""}},
                  {Reservation{0, 3, 6, 2, "maint window"},
                   Reservation{1, 5, 4, 20, ""}});
}

[[nodiscard]] std::string swf_text(const Instance& instance) {
  std::ostringstream os;
  write_swf(instance, os);
  return os.str();
}

TEST(Swf, RoundTripKeepsJobsAndReservations) {
  const Instance original = sample_instance();
  const SwfTrace trace = parse_swf(swf_text(original));
  EXPECT_EQ(trace.parsed, original.n());
  EXPECT_EQ(trace.skipped, 0u);
  const Instance loaded = trace.to_instance();
  EXPECT_EQ(loaded.m(), original.m());
  ASSERT_EQ(loaded.n(), original.n());
  for (std::size_t i = 0; i < original.n(); ++i) {
    EXPECT_EQ(loaded.jobs()[i].q, original.jobs()[i].q);
    EXPECT_EQ(loaded.jobs()[i].p, original.jobs()[i].p);
    EXPECT_EQ(loaded.jobs()[i].release, original.jobs()[i].release);
  }
  ASSERT_EQ(loaded.n_reservations(), original.n_reservations());
  for (std::size_t i = 0; i < original.n_reservations(); ++i) {
    const Reservation& want = original.reservations()[i];
    const Reservation& got = loaded.reservations()[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.q, want.q);
    EXPECT_EQ(got.p, want.p);
    EXPECT_EQ(got.start, want.start);
  }
}

TEST(Swf, ReadableByPlainSwfConsumers) {
  // The ;RESERVATION extension lives in comments: job lines alone must parse
  // as standard 18-column SWF.
  std::istringstream stream(swf_text(sample_instance()));
  std::string line;
  int job_lines = 0;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == ';') continue;
    std::istringstream fields(line);
    int count = 0;
    std::string field;
    while (fields >> field) ++count;
    EXPECT_EQ(count, 18);
    ++job_lines;
  }
  EXPECT_EQ(job_lines, 3);
}

TEST(Swf, MissingMaxProcsInfersTheMachineSize) {
  // No header: the widest job (q = 2) or reservation (q = 5) sets m.
  const std::string job = "1 0 -1 5 2 -1 -1 2 5 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
  EXPECT_EQ(parse_swf(job).max_procs, 2);
  const SwfTrace trace = parse_swf(";RESERVATION 0 5 3 1\n" + job);
  EXPECT_EQ(trace.max_procs, 5);
  EXPECT_EQ(trace.to_instance().m(), 5);
}

TEST(Swf, ReservationLinesParseWithOrWithoutASpace) {
  const SwfTrace trace = parse_swf(
      "; MaxProcs: 16\n"
      ";RESERVATION 0 4 5 10\n"
      "; RESERVATION 1 2 3 0\n");
  ASSERT_EQ(trace.reservations.size(), 2u);
  EXPECT_EQ(trace.reservations[0], (Reservation{0, 4, 5, 10, ""}));
  EXPECT_EQ(trace.reservations[1], (Reservation{1, 2, 3, 0, ""}));
  // Reservation lines are neither directives nor data lines.
  EXPECT_EQ(trace.directives.size(), 1u);
  EXPECT_EQ(trace.parsed + trace.skipped, 0u);
}

TEST(Swf, MalformedReservationThrowsNamingItsLine) {
  for (const char* bad : {";RESERVATION 0 4 5", ";RESERVATION 0 4 5 10 7",
                          ";RESERVATION 0 four 5 10", ";RESERVATION 0 4 5 1.5",
                          ";RESERVATION 0 0 5 10", ";RESERVATION 0 4 0 10",
                          ";RESERVATION 0 4 5 -1",
                          ";RESERVATION 0 4 5 9223372036854775807",
                          ";RESERVATION 0 4 99999999999999999999 10"}) {
    const std::string text = std::string("; MaxProcs: 16\n\n") + bad + "\n";
    try {
      (void)parse_swf(text);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
          << error.what();
    }
  }
}

// One clean 18-field record: job 1, submit 10, run 30, 4 procs, status 1.
constexpr const char* kCleanRecord =
    "1 10 0 30 4 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n";

TEST(SwfReader, MapsTheCleanRecordFields) {
  const SwfTrace trace =
      parse_swf(std::string("; MaxProcs: 64\n") + kCleanRecord);
  EXPECT_EQ(trace.max_procs, 64);
  ASSERT_EQ(trace.jobs.size(), 1u);
  const Job& job = trace.jobs.front();
  EXPECT_EQ(job.name, "swf1");
  EXPECT_EQ(job.release, 10);
  EXPECT_EQ(job.p, 30);
  EXPECT_EQ(job.q, 4);
  EXPECT_EQ(trace.parsed, 1u);
  EXPECT_EQ(trace.skipped, 0u);
}

TEST(SwfReader, EachSkipReasonIsCountedExactly) {
  const std::string text =
      "; MaxProcs: 16\n"
      "1 0 0 5\n"                                             // truncated
      "2 0 0 oops 4 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n"   // bad integer
      "3 0 0 -5 4 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n"     // runtime <= 0
      "4 0 0 5 0 -1 -1 0 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n"       // procs <= 0
      "5 0 0 5 4 -1 -1 -1 -1 -1 5 1 -1 -1 -1 -1 -1 -1\n"      // cancelled
      "6 0 0 5 4 -1 -1 -1 -1 -1 0 1 -1 -1 -1 -1 -1 -1\n"      // failed
      "7 0 0 5 4 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n";     // kept
  const SwfTrace trace = parse_swf(text);
  EXPECT_EQ(trace.parsed, 1u);
  EXPECT_EQ(trace.skipped, 6u);
  using enum SwfSkipReason;
  EXPECT_EQ(trace.skipped_by_reason[static_cast<std::size_t>(kTruncated)], 1u);
  EXPECT_EQ(trace.skipped_by_reason[static_cast<std::size_t>(kBadInteger)], 1u);
  EXPECT_EQ(
      trace.skipped_by_reason[static_cast<std::size_t>(kNonPositiveRuntime)],
      1u);
  EXPECT_EQ(
      trace.skipped_by_reason[static_cast<std::size_t>(kNonPositiveProcs)], 1u);
  EXPECT_EQ(trace.skipped_by_reason[static_cast<std::size_t>(kCancelled)], 2u);
  EXPECT_EQ(trace.parsed + trace.skipped, 7u);
}

TEST(SwfReader, FallbackFieldsRescueMissingRuntimeAndProcs) {
  // Run time -1 but requested time 42; allocated procs -1 but requested 3.
  const SwfTrace trace = parse_swf(
      "; MaxProcs: 8\n"
      "1 0 0 -1 -1 -1 -1 3 42 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(trace.parsed, 1u);
  EXPECT_EQ(trace.jobs.front().p, 42);
  EXPECT_EQ(trace.jobs.front().q, 3);
}

TEST(SwfReader, ClampsWideJobsAndNegativeSubmitTimes) {
  const SwfTrace trace = parse_swf(
      "; MaxProcs: 8\n"
      "1 -20 0 5 32 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  ASSERT_EQ(trace.parsed, 1u);
  EXPECT_EQ(trace.jobs.front().q, 8);       // clamped to MaxProcs
  EXPECT_EQ(trace.jobs.front().release, 0); // clamped up to 0
  EXPECT_EQ(trace.clamped_procs, 1u);
  EXPECT_EQ(trace.clamped_times, 1u);
}

TEST(SwfReader, MaxProcsFallsBackToOptionsThenWidestJob) {
  const std::string record =
      "1 0 0 5 6 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n";
  // No header: options win.
  SwfReadOptions options;
  options.default_max_procs = 12;
  EXPECT_EQ(parse_swf(record, options).max_procs, 12);
  // No header, no option: the widest parsed job.
  EXPECT_EQ(parse_swf(record).max_procs, 6);
  // The header beats both.
  EXPECT_EQ(parse_swf("; MaxProcs: 64\n" + record, options).max_procs,
            64);
}

TEST(SwfReader, HeaderOnlyFileParsesToZeroJobs) {
  const SwfTrace trace = parse_swf(
      "; Version: 2.2\n"
      "; MaxProcs: 128\n"
      "; Note: no data lines at all\n");
  EXPECT_EQ(trace.parsed, 0u);
  EXPECT_EQ(trace.skipped, 0u);
  EXPECT_EQ(trace.max_procs, 128);
  EXPECT_EQ(trace.directives.size(), 3u);
  EXPECT_EQ(trace.directives.at("Version"), "2.2");
  // Empty input is also fine (max_procs falls back to 1).
  EXPECT_EQ(parse_swf("").parsed, 0u);
}

TEST(SwfReader, IncludeCancelledAndMaxJobsOptions) {
  const std::string text =
      "1 0 0 5 2 -1 -1 -1 -1 -1 5 1 -1 -1 -1 -1 -1 -1\n"  // cancelled
      "2 0 0 5 2 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n"
      "3 0 0 5 2 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n";
  SwfReadOptions keep;
  keep.include_cancelled = true;
  EXPECT_EQ(parse_swf(text, keep).parsed, 3u);
  SwfReadOptions capped;
  capped.include_cancelled = true;
  capped.max_jobs = 2;
  const SwfTrace trace = parse_swf(text, capped);
  EXPECT_EQ(trace.parsed, 2u);
  EXPECT_EQ(trace.jobs.size(), 2u);
}

TEST(SwfReader, ParsingIsDeterministicAndInstanceIsSchedulable) {
  const SwfTrace trace = load_swf(fixture_path("tiny.swf"));
  const SwfTrace again = load_swf(fixture_path("tiny.swf"));
  EXPECT_EQ(trace.jobs, again.jobs);
  const Instance instance = trace.to_instance();
  EXPECT_EQ(instance.m(), 16);
  EXPECT_EQ(instance.n(), trace.jobs.size());
  const Schedule a = make_scheduler("easy")->schedule(instance).value();
  const Schedule b = make_scheduler("easy")->schedule(instance).value();
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.validate(instance).ok);
}

TEST(SwfReader, TinyFixtureHasThePinnedCounts) {
  // tiny.swf is authored to exercise every path once: 10 data lines, five
  // kept, one skip per reason, one proc clamp, one time clamp, and one
  // ;RESERVATION line.
  const SwfTrace trace = load_swf(fixture_path("tiny.swf"));
  EXPECT_EQ(trace.max_procs, 16);
  EXPECT_EQ(trace.parsed, 5u);
  EXPECT_EQ(trace.skipped, 5u);
  for (std::size_t reason = 0; reason < kSwfSkipReasonCount; ++reason)
    EXPECT_EQ(trace.skipped_by_reason[reason], 1u) << "reason " << reason;
  EXPECT_EQ(trace.clamped_procs, 1u);
  EXPECT_EQ(trace.clamped_times, 1u);
  EXPECT_EQ(trace.directives.size(), 3u);
  ASSERT_EQ(trace.reservations.size(), 1u);
  EXPECT_EQ(trace.reservations.front(), (Reservation{0, 4, 5, 10, ""}));
  EXPECT_EQ(trace.to_instance().n_reservations(), 1u);
  EXPECT_EQ(
      trace.skip_summary(),
      "parsed=5 skipped=5 (truncated=1 bad-integer=1 nonpositive-runtime=1 "
      "nonpositive-procs=1 cancelled=1)");
}

}  // namespace
}  // namespace resched
