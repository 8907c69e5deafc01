#include "algorithms/easy_bf.hpp"

#include <gtest/gtest.h>

#include "algorithms/conservative_bf.hpp"
#include "algorithms/fcfs.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

TEST(EasyBf, BackfillsWhenHeadUnharmed) {
  // Head (job 1, q=2) reserved at t=10; job 2 (p <= 10) backfills at 0.
  const Instance instance(
      2, {Job{0, 1, 10, 0, ""}, Job{1, 2, 5, 0, ""}, Job{2, 1, 10, 0, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(2), 0);   // ends at 10 = head's reservation
  EXPECT_EQ(schedule.start(1), 10);  // head unharmed
}

TEST(EasyBf, RefusesBackfillThatDelaysHead) {
  // Job 2 (p = 11) would push the head's start from 10 to 11: denied.
  const Instance instance(
      2, {Job{0, 1, 10, 0, ""}, Job{1, 2, 5, 0, ""}, Job{2, 1, 11, 0, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(1), 10);
  EXPECT_GE(schedule.start(2), 10);  // had to wait
}

TEST(EasyBf, HeadChainsStartImmediately) {
  const Instance instance(
      4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 3, 0, ""}, Job{2, 4, 2, 0, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  // Jobs 0 and 1 start at 0 (heads in succession); job 2 needs all 4.
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(1), 0);
  EXPECT_EQ(schedule.start(2), 3);
}

TEST(EasyBf, HeadWaitsAcrossPassesWhileBackfillsLand) {
  // m = 4. Job 0 (q=3) runs [0, 10); the head, job 1 (q=4), is reserved at
  // 10 and stays blocked through the passes at 0, 2, 3, 4, 5 and 7 while
  // narrow jobs backfill into the one free processor:
  //   t=0  job 2 (p=3) backfills, ends 3;
  //   t=2  job 3 arrives, no room;
  //   t=3  job 3 (p=4) backfills, ends 7;
  //   t=4  job 4 arrives, t=5 job 5 arrives, no room;
  //   t=7  job 4 (p=5) would end at 12 inside the head's window: refused;
  //        job 5 (p=3) ends exactly at 10 = head start: backfills;
  //   t=10 the head starts; job 4 becomes the head and waits for 15.
  const Instance instance(4, {Job{0, 3, 10, 0, ""}, Job{1, 4, 5, 0, ""},
                              Job{2, 1, 3, 0, ""}, Job{3, 1, 4, 2, ""},
                              Job{4, 1, 5, 4, ""}, Job{5, 1, 3, 5, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  ASSERT_TRUE(schedule.validate(instance).ok);
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(1), 10);
  EXPECT_EQ(schedule.start(2), 0);
  EXPECT_EQ(schedule.start(3), 3);
  EXPECT_EQ(schedule.start(4), 15);
  EXPECT_EQ(schedule.start(5), 7);
}

TEST(EasyBf, RespectsReservations) {
  const Instance instance(2, {Job{0, 2, 4, 0, ""}, Job{1, 1, 2, 0, ""}},
                          {Reservation{0, 2, 2, 3, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  ASSERT_TRUE(schedule.validate(instance).ok);
  EXPECT_EQ(schedule.start(0), 5);  // q=2 for 4 ticks only fits after [3,5)
  EXPECT_EQ(schedule.start(1), 0);  // narrow short one backfills before
}

TEST(EasyBf, RespectsReleases) {
  const Instance instance(2, {Job{0, 1, 3, 4, ""}, Job{1, 1, 3, 0, ""}});
  const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(1), 0);
  EXPECT_EQ(schedule.start(0), 4);
}

TEST(EasyBf, MoreAggressiveThanConservativeOnStarvationFamily) {
  // A stream of narrow jobs behind a wide head: EASY backfills them all,
  // conservative does too here; both must beat strict FCFS.
  std::vector<Job> jobs;
  jobs.push_back(Job{0, 1, 10, 0, "runner"});
  jobs.push_back(Job{1, 4, 2, 0, "wide-head"});
  for (int i = 0; i < 6; ++i)
    jobs.push_back(Job{static_cast<JobId>(2 + i), 1, 10, 0, ""});
  const Instance instance(4, std::move(jobs));
  const Time easy = EasyBackfillScheduler().schedule(instance).value()
                        .makespan(instance);
  const Time fcfs = FcfsScheduler().schedule(instance).value().makespan(instance);
  EXPECT_LT(easy, fcfs);
}

TEST(EasyBf, FeasibleAcrossRandomInstances) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    WorkloadConfig config;
    config.n = 40;
    config.m = 16;
    config.mean_interarrival = 3.0;  // online arrivals
    const Instance instance = random_workload(config, seed);
    const Schedule schedule = EasyBackfillScheduler().schedule(instance).value();
    const ValidationResult result = schedule.validate(instance);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.error;
  }
}

TEST(EasyBf, EmptyInstance) {
  const Instance instance(2, {});
  EXPECT_EQ(EasyBackfillScheduler().schedule(instance).value().makespan(instance), 0);
}

}  // namespace
}  // namespace resched
