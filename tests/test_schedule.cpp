#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/load_sweep.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

Instance two_job_instance() {
  return Instance(3, {Job{0, 2, 4, 0, ""}, Job{1, 2, 2, 0, ""}});
}

TEST(Schedule, StartsUnscheduled) {
  const Schedule schedule(3);
  EXPECT_EQ(schedule.size(), 3u);
  EXPECT_FALSE(schedule.is_scheduled(0));
  EXPECT_FALSE(schedule.all_scheduled());
}

TEST(Schedule, SetAndQueryStart) {
  Schedule schedule(2);
  schedule.set_start(0, 5);
  EXPECT_TRUE(schedule.is_scheduled(0));
  EXPECT_EQ(schedule.start(0), 5);
  EXPECT_THROW((void)schedule.start(1), std::invalid_argument);
  EXPECT_THROW(schedule.set_start(2, 0), std::invalid_argument);
  EXPECT_THROW(schedule.set_start(0, -1), std::invalid_argument);
}

TEST(Schedule, MakespanAndCompletion) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.set_start(0, 0);  // ends 4
  schedule.set_start(1, 4);  // ends 6
  EXPECT_EQ(schedule.completion(instance, 0), 4);
  EXPECT_EQ(schedule.completion(instance, 1), 6);
  EXPECT_EQ(schedule.makespan(instance), 6);
}

TEST(Schedule, MakespanIgnoresReservations) {
  // A reservation ending later than every job does not extend C_max.
  const Instance instance(3, {Job{0, 1, 2, 0, ""}},
                          {Reservation{0, 1, 50, 10, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 0);
  EXPECT_EQ(schedule.makespan(instance), 2);
}

TEST(Schedule, LoadSteps) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 1);
  // Both jobs run on [1, 3).
  EXPECT_EQ(load_steps(instance, sweep_events(instance, schedule)),
            (std::vector<LoadStep>{{0, 2}, {1, 4}, {3, 2}, {4, 0}}));
}

TEST(Schedule, ValidateAcceptsFeasible) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 4);
  EXPECT_TRUE(schedule.validate(instance).ok);
}

TEST(Schedule, ValidateRejectsOverload) {
  const Instance instance = two_job_instance();  // m = 3, both jobs q = 2
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 0);  // 4 > 3 processors on [0,2)
  const ValidationResult result = schedule.validate(instance);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("capacity exceeded"), std::string::npos);
}

TEST(Schedule, ValidateRejectsReservationConflict) {
  const Instance instance(3, {Job{0, 2, 4, 0, ""}},
                          {Reservation{0, 2, 4, 2, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 0);  // runs [0,4) but [2,4) has only 1 free
  EXPECT_FALSE(schedule.validate(instance).ok);
}

TEST(Schedule, ValidateRejectsUnscheduled) {
  const Instance instance = two_job_instance();
  Schedule schedule(2);
  schedule.set_start(0, 0);
  const ValidationResult result = schedule.validate(instance);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("not scheduled"), std::string::npos);
}

TEST(Schedule, ValidateRejectsEarlyStart) {
  const Instance instance(2, {Job{0, 1, 1, 5, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 3);  // before release 5
  EXPECT_FALSE(schedule.validate(instance).ok);
}

TEST(Schedule, ValidateRejectsSizeMismatch) {
  const Instance instance = two_job_instance();
  const Schedule schedule(1);
  EXPECT_FALSE(schedule.validate(instance).ok);
}

TEST(Schedule, IdleAreaZeroWhenPacked) {
  // Two q=2 jobs back to back on m=2: no idle area.
  const Instance instance(2, {Job{0, 2, 3, 0, ""}, Job{1, 2, 2, 0, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 3);
  EXPECT_EQ(schedule.idle_area(instance), 0);
  EXPECT_DOUBLE_EQ(schedule.utilization(instance), 1.0);
}

TEST(Schedule, IdleAreaCountsHoles) {
  const Instance instance(2, {Job{0, 1, 4, 0, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 0);
  // Available 2*4 = 8, work 4 -> idle 4, utilization 0.5.
  EXPECT_EQ(schedule.idle_area(instance), 4);
  EXPECT_DOUBLE_EQ(schedule.utilization(instance), 0.5);
}

TEST(Schedule, IdleAreaExcludesReservedArea) {
  // Reservation blocks 1 machine over the whole horizon [0,4): available
  // area is (2-1)*4 = 4 = work -> idle 0.
  const Instance instance(2, {Job{0, 1, 4, 0, ""}},
                          {Reservation{0, 1, 4, 0, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 0);
  EXPECT_EQ(schedule.idle_area(instance), 0);
}

TEST(Schedule, EqualityIsStructural) {
  Schedule a(2);
  Schedule b(2);
  EXPECT_EQ(a, b);
  a.set_start(0, 1);
  EXPECT_NE(a, b);
  b.set_start(0, 1);
  EXPECT_EQ(a, b);
}

// --- Differential test of validate against a dense tick-by-tick reference.

// The reference: the checks validate documents, in its order, with the
// load kept as one integer per tick. Its capacity message names the first
// overloaded tick and extends it while the load stays the same, i.e. the
// maximal constant-load segment.
ValidationResult dense_validate(const Instance& instance,
                                const std::vector<std::optional<Time>>& starts) {
  if (starts.size() != instance.n())
    return {false, "schedule covers " + std::to_string(starts.size()) +
                       " jobs but instance has " + std::to_string(instance.n())};
  for (std::size_t i = 0; i < starts.size(); ++i) {
    if (!starts[i].has_value())
      return {false, "job " + std::to_string(i) + " is not scheduled"};
    if (*starts[i] < instance.jobs()[i].release)
      return {false, "job " + std::to_string(i) + " starts at " +
                         std::to_string(*starts[i]) + " before its release " +
                         std::to_string(instance.jobs()[i].release)};
  }
  std::vector<std::int64_t> load;
  const auto place = [&load](Time from, Time to, std::int64_t q) {
    if (load.size() < static_cast<std::size_t>(to))
      load.resize(static_cast<std::size_t>(to), 0);
    for (Time t = from; t < to; ++t) load[static_cast<std::size_t>(t)] += q;
  };
  for (std::size_t i = 0; i < starts.size(); ++i)
    place(*starts[i], *starts[i] + instance.jobs()[i].p, instance.jobs()[i].q);
  for (const Reservation& r : instance.reservations())
    place(r.start, r.start + r.p, r.q);
  for (std::size_t t = 0; t < load.size(); ++t) {
    if (load[t] <= instance.m()) continue;
    std::size_t end = t;
    while (end < load.size() && load[end] == load[t]) ++end;
    return {false, "capacity exceeded: " + std::to_string(load[t]) +
                       " > m = " + std::to_string(instance.m()) +
                       " during [" + std::to_string(t) + ", " +
                       std::to_string(end) + ")"};
  }
  return {true, ""};
}

// n <= 12 jobs and a few reservations on m <= 8 within a horizon of 40.
// Reservations are drawn against a dense U so the instance is valid.
Instance random_small_instance(Prng& rng) {
  constexpr Time kHorizon = 40;
  const ProcCount m = rng.uniform_int(1, 8);
  std::vector<Job> jobs;
  const auto n = rng.uniform_int(0, 12);
  for (std::int64_t i = 0; i < n; ++i)
    jobs.push_back(Job{static_cast<JobId>(i), rng.uniform_int(1, m),
                       rng.uniform_int(1, 12),
                       rng.chance(0.3) ? rng.uniform_int(0, 20) : 0, ""});
  std::vector<ProcCount> reserved(kHorizon, 0);
  std::vector<Reservation> reservations;
  const auto tries = rng.uniform_int(0, 5);
  for (std::int64_t k = 0; k < tries; ++k) {
    const ProcCount q = rng.uniform_int(1, m);
    const Time p = rng.uniform_int(1, 15);
    const Time start = rng.uniform_int(0, kHorizon - p);
    bool fits = true;
    for (Time t = start; t < start + p; ++t)
      fits = fits && reserved[static_cast<std::size_t>(t)] + q <= m;
    if (!fits) continue;
    for (Time t = start; t < start + p; ++t)
      reserved[static_cast<std::size_t>(t)] += q;
    reservations.push_back(Reservation{
        static_cast<ReservationId>(reservations.size()), q, p, start, ""});
  }
  return Instance(m, std::move(jobs), std::move(reservations));
}

// Random starts, often infeasible: uniform draws overload small machines,
// a greedy earliest-fit placement (sometimes nudged by a tick) lands near
// the feasibility boundary, and rare holes and early starts exercise the
// checks that come before capacity.
std::vector<std::optional<Time>> random_starts(const Instance& instance,
                                               Prng& rng) {
  std::vector<std::optional<Time>> starts(instance.n());
  const bool greedy = rng.chance(0.5);
  std::vector<std::int64_t> load(200, 0);
  for (const Reservation& r : instance.reservations())
    for (Time t = r.start; t < r.start + r.p; ++t)
      load[static_cast<std::size_t>(t)] += r.q;
  for (const Job& job : instance.jobs()) {
    Time start = rng.uniform_int(job.release, 40);
    if (greedy) {
      start = job.release;
      const auto fits = [&](Time s) {
        for (Time t = s; t < s + job.p; ++t)
          if (load[static_cast<std::size_t>(t)] + job.q > instance.m())
            return false;
        return true;
      };
      while (!fits(start)) ++start;
      if (rng.chance(0.1)) start = std::max<Time>(0, start - 1);
      for (Time t = start; t < start + job.p; ++t)
        load[static_cast<std::size_t>(t)] += job.q;
    }
    if (rng.chance(0.02)) start = rng.uniform_int(0, job.release);
    if (!rng.chance(0.02))
      starts[static_cast<std::size_t>(job.id)] = start;
  }
  return starts;
}

Schedule schedule_of(const std::vector<std::optional<Time>>& starts) {
  Schedule schedule(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i)
    if (starts[i].has_value())
      schedule.set_start(static_cast<JobId>(i), *starts[i]);
  return schedule;
}

TEST(ScheduleValidateDifferential, MatchesDenseReferenceOnRandomSchedules) {
  Prng rng(20071);
  int feasible = 0;
  int overloaded = 0;
  for (int round = 0; round < 4000; ++round) {
    const Instance instance = random_small_instance(rng);
    const std::vector<std::optional<Time>> starts =
        random_starts(instance, rng);
    const ValidationResult expected = dense_validate(instance, starts);
    const ValidationResult actual = schedule_of(starts).validate(instance);
    ASSERT_EQ(actual.ok, expected.ok) << "round " << round;
    ASSERT_EQ(actual.error, expected.error) << "round " << round;
    feasible += expected.ok ? 1 : 0;
    overloaded += expected.error.starts_with("capacity") ? 1 : 0;
  }
  // Both outcomes are well represented.
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(overloaded, 1000);
}

TEST(ScheduleValidateDifferential, TouchingWindowsAreFeasible) {
  // Each window ends exactly where the next begins, job to job and job to
  // reservation, on a machine that holds only one of them at a time.
  const Instance instance(2, {Job{0, 2, 3, 0, ""}, Job{1, 2, 2, 0, ""}},
                          {Reservation{0, 2, 4, 5, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);  // [0, 3)
  schedule.set_start(1, 3);  // [3, 5), then the reservation on [5, 9)
  const ValidationResult result = schedule.validate(instance);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST(ScheduleValidateDifferential, EndAndStartAtOneTickKeepTheOverloadWhole) {
  // Job 0 holds 2 of 3 processors over [0, 4); job 1 ([0, 2)) hands over
  // to job 2 ([2, 4)) at tick 2, so the load is 4 throughout.
  const Instance instance(
      3, {Job{0, 2, 4, 0, ""}, Job{1, 2, 2, 0, ""}, Job{2, 2, 2, 0, ""}});
  Schedule schedule(3);
  schedule.set_start(0, 0);
  schedule.set_start(1, 0);
  schedule.set_start(2, 2);
  EXPECT_EQ(schedule.validate(instance).error,
            "capacity exceeded: 4 > m = 3 during [0, 4)");
}

TEST(ScheduleValidateDifferential, UnscheduledJobIsReportedBeforeOverload) {
  const Instance instance(
      3, {Job{0, 2, 4, 0, ""}, Job{1, 2, 4, 0, ""}, Job{2, 1, 1, 0, ""}});
  Schedule schedule(3);
  schedule.set_start(0, 0);
  schedule.set_start(1, 0);  // 4 > 3 on [0, 4)
  EXPECT_EQ(schedule.validate(instance).error, "job 2 is not scheduled");
}

TEST(ScheduleValidateDifferential, EmptyInstancePasses) {
  const Instance instance;
  const ValidationResult result = Schedule(0).validate(instance);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.error.empty());
}

TEST(ScheduleValidateDifferential, StartNearInt64MaxThrowsOverflow) {
  const Instance instance(2, {Job{0, 1, 10, 0, ""}});
  Schedule schedule(1);
  schedule.set_start(0, std::numeric_limits<Time>::max() - 5);
  EXPECT_THROW((void)schedule.validate(instance), std::overflow_error);
}

}  // namespace
}  // namespace resched
