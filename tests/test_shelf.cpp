#include "algorithms/shelf.hpp"

#include <gtest/gtest.h>

#include "bounds/lower_bounds.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

TEST(Shelf, SingleShelfWhenAllFit) {
  const Instance instance(
      4, {Job{0, 2, 5, 0, ""}, Job{1, 1, 3, 0, ""}, Job{2, 1, 2, 0, ""}});
  const Schedule schedule = ShelfScheduler().schedule(instance).value();
  for (JobId id = 0; id < 3; ++id) EXPECT_EQ(schedule.start(id), 0);
  EXPECT_EQ(schedule.makespan(instance), 5);
}

TEST(Shelf, OpensNewShelfWhenFull) {
  const Instance instance(
      2, {Job{0, 2, 5, 0, ""}, Job{1, 2, 3, 0, ""}});
  const Schedule schedule = ShelfScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(1), 5);  // second shelf after the first's height
}

TEST(Shelf, ShelfHeightIsTallestJob) {
  // Sorted by decreasing p: job1 (p=6) opens shelf 0; job0 (p=4) joins it;
  // job2 (p=3, q=2) needs shelf 1 at t=6.
  const Instance instance(
      2, {Job{0, 1, 4, 0, ""}, Job{1, 1, 6, 0, ""}, Job{2, 2, 3, 0, ""}});
  const Schedule schedule = ShelfScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(1), 0);
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(2), 6);
}

TEST(Shelf, FirstFitReusesEarlierShelves) {
  // FFDH can tuck a narrow job into shelf 0 after shelf 1 opened; NFDH
  // cannot.
  const Instance instance(4, {
                                 Job{0, 3, 10, 0, ""},  // shelf 0
                                 Job{1, 3, 8, 0, ""},   // shelf 1 (3+3 > 4)
                                 Job{2, 1, 5, 0, ""},   // FF: shelf 0; NF: shelf 1
                             });
  const Schedule ff =
      ShelfScheduler(ShelfPolicy::kFirstFit).schedule(instance).value();
  EXPECT_EQ(ff.start(2), 0);
  const Schedule nf =
      ShelfScheduler(ShelfPolicy::kNextFit).schedule(instance).value();
  EXPECT_EQ(nf.start(2), 10);
}

TEST(Shelf, RejectsReservationsWithTypedDomainError) {
  const Instance instance(2, {Job{0, 1, 1, 0, ""}},
                          {Reservation{0, 1, 1, 0, ""}});
  const ScheduleOutcome outcome = ShelfScheduler().schedule(instance);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().reason, DomainReason::kReservations);
  EXPECT_NE(outcome.error().message.find("reservations"), std::string::npos);
  // supports() agrees with the outcome up front.
  EXPECT_FALSE(ShelfScheduler().supports(instance));
}

TEST(Shelf, RejectsReleaseTimesWithTypedDomainError) {
  const Instance instance(2, {Job{0, 1, 1, 5, ""}});
  const ScheduleOutcome outcome = ShelfScheduler().schedule(instance);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().reason, DomainReason::kReleaseTimes);
  EXPECT_FALSE(ShelfScheduler().supports(instance));
}

TEST(Shelf, CapabilitiesDeclareTheRestrictedDomain) {
  const Capabilities caps = ShelfScheduler().capabilities();
  EXPECT_FALSE(caps.release_times);
  EXPECT_FALSE(caps.reservations);
}

TEST(Shelf, NfdhGuaranteeHolds) {
  // NFDH <= 2 OPT + p_max on strip packing; against the certified lower
  // bound: C_shelf <= 2 LB + p_max.
  for (const std::uint64_t seed : {41u, 42u, 43u, 44u, 45u}) {
    WorkloadConfig config;
    config.n = 60;
    config.m = 16;
    const Instance instance = random_workload(config, seed);
    const Schedule schedule =
        ShelfScheduler(ShelfPolicy::kNextFit).schedule(instance).value();
    ASSERT_TRUE(schedule.validate(instance).ok);
    const Time lb = makespan_lower_bound(instance);
    EXPECT_LE(schedule.makespan(instance), 2 * lb + instance.p_max())
        << "seed " << seed;
  }
}

TEST(Shelf, FirstFitNeverWorseThanNextFit) {
  for (const std::uint64_t seed : {51u, 52u, 53u, 54u}) {
    WorkloadConfig config;
    config.n = 50;
    config.m = 12;
    const Instance instance = random_workload(config, seed);
    const Time ff = ShelfScheduler(ShelfPolicy::kFirstFit)
                        .schedule(instance)
                        .value()
                        .makespan(instance);
    const Time nf = ShelfScheduler(ShelfPolicy::kNextFit)
                        .schedule(instance)
                        .value()
                        .makespan(instance);
    EXPECT_LE(ff, nf) << "seed " << seed;
  }
}

TEST(Shelf, Names) {
  EXPECT_EQ(ShelfScheduler(ShelfPolicy::kFirstFit).name(), "shelf-ff");
  EXPECT_EQ(ShelfScheduler(ShelfPolicy::kNextFit).name(), "shelf-nf");
}

}  // namespace
}  // namespace resched
