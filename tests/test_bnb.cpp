#include "exact/bnb.hpp"

#include <gtest/gtest.h>

#include "algorithms/lsrc.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

TEST(Bnb, EmptyInstance) {
  const BnbResult result = branch_and_bound(Instance(4, {}));
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.optimal, 0);
}

TEST(Bnb, SingleJob) {
  const Instance instance(4, {Job{0, 2, 7, 0, ""}});
  EXPECT_EQ(optimal_makespan(instance), 7);
}

TEST(Bnb, PartitionLikeInstance) {
  // Two machines, sequential durations {3,3,2,2,2}: optimum splits 3+3 / 2+2+2
  // for makespan 6.
  const Instance instance(2, {Job{0, 1, 3, 0, ""}, Job{1, 1, 3, 0, ""},
                              Job{2, 1, 2, 0, ""}, Job{3, 1, 2, 0, ""},
                              Job{4, 1, 2, 0, ""}});
  EXPECT_EQ(optimal_makespan(instance), 6);
}

TEST(Bnb, RigidPackingNeedsInterleaving) {
  // m=4: jobs (q=3,p=2), (q=1,p=2), (q=2,p=2), (q=2,p=2). Optimum 4 packs
  // (3,2)||(1,2) on [0,2) and the two (2,2) jobs on [2,4): the area bound
  // 16/4 = 4 is met with zero idle, so 4 is optimal.
  const Instance instance(4, {Job{0, 3, 2, 0, ""}, Job{1, 1, 2, 0, ""},
                              Job{2, 2, 2, 0, ""}, Job{3, 2, 2, 0, ""}});
  EXPECT_EQ(optimal_makespan(instance), 4);
}

TEST(Bnb, RespectsReservations) {
  // m=2, full reservation [2,4): a (q=2,p=2) job fits [0,2); a second one
  // must wait -> 6.
  const Instance instance(2, {Job{0, 2, 2, 0, ""}, Job{1, 2, 2, 0, ""}},
                          {Reservation{0, 2, 2, 2, ""}});
  const BnbResult result = branch_and_bound(instance);
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.optimal, 6);
  EXPECT_TRUE(result.schedule.validate(instance).ok);
}

TEST(Bnb, GapInstanceForcesExactPacking) {
  // m=1, jobs {2,1,3} and reservations leaving gaps of exactly 3 at [0,3)
  // and [4,7): only a perfect split (2+1 | 3) achieves 7.
  const Instance instance(1,
                          {Job{0, 1, 2, 0, ""}, Job{1, 1, 1, 0, ""},
                           Job{2, 1, 3, 0, ""}},
                          {Reservation{0, 1, 1, 3, ""}});
  EXPECT_EQ(optimal_makespan(instance), 7);
}

TEST(Bnb, ReleaseTimesRespected) {
  const Instance instance(1, {Job{0, 1, 2, 5, ""}, Job{1, 1, 2, 0, ""}});
  const BnbResult result = branch_and_bound(instance);
  EXPECT_EQ(result.optimal, 7);
  EXPECT_GE(result.schedule.start(0), 5);
}

TEST(Bnb, ScheduleAchievesReportedOptimum) {
  WorkloadConfig config;
  config.n = 6;
  config.m = 3;
  config.p_max = 9;
  const Instance instance = random_workload(config, 7);
  const BnbResult result = branch_and_bound(instance);
  ASSERT_TRUE(result.proven);
  ASSERT_TRUE(result.schedule.validate(instance).ok);
  EXPECT_EQ(result.schedule.makespan(instance), result.optimal);
}

TEST(Bnb, SearchOrderIsPinned) {
  // Node count and optimum of one mid-sized search. Any change to the
  // branching order, the pruning or the backtracking undo shows up here as
  // a different count, not only as a different running time.
  WorkloadConfig config;
  config.n = 9;
  config.m = 4;
  config.p_max = 9;
  const Instance instance = random_workload(config, 6);
  const BnbResult result = branch_and_bound(instance);
  EXPECT_TRUE(result.proven);
  EXPECT_EQ(result.nodes, 5993u);
  EXPECT_EQ(result.optimal, 32);
}

TEST(Bnb, NodeLimitReportsUnproven) {
  WorkloadConfig config;
  config.n = 10;
  config.m = 4;
  const Instance instance = random_workload(config, 9);
  BnbOptions options;
  options.node_limit = 3;
  const BnbResult result = branch_and_bound(instance, options);
  EXPECT_FALSE(result.proven);
  EXPECT_THROW((void)optimal_makespan(instance, options),
               std::invalid_argument);
}

TEST(Bnb, UpperBoundHintDoesNotChangeResult) {
  WorkloadConfig config;
  config.n = 6;
  config.m = 3;
  const Instance instance = random_workload(config, 11);
  const Time plain = optimal_makespan(instance);
  BnbOptions options;
  options.upper_bound_hint =
      LsrcScheduler().schedule(instance).value().makespan(instance);
  EXPECT_EQ(optimal_makespan(instance, options), plain);
}

// Exactness cross-check: on tiny instances, compare against exhaustive
// enumeration of all start-time combinations up to a safe horizon.
class BnbExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

Time exhaustive_optimum(const Instance& instance) {
  // All jobs start in [0, H]; H = sum of durations + max reservation end
  // is always enough.
  Time horizon = instance.reservation_horizon();
  for (const Job& job : instance.jobs()) horizon += job.p;
  std::vector<Time> starts(instance.n(), 0);
  Time best = kTimeInfinity;
  while (true) {
    Schedule schedule(instance.n());
    for (std::size_t i = 0; i < instance.n(); ++i)
      schedule.set_start(static_cast<JobId>(i), starts[i]);
    if (schedule.validate(instance).ok)
      best = std::min(best, schedule.makespan(instance));
    // Odometer increment.
    std::size_t pos = 0;
    while (pos < starts.size()) {
      if (++starts[pos] <= horizon) break;
      starts[pos] = 0;
      ++pos;
    }
    if (pos == starts.size()) break;
  }
  return best;
}

TEST_P(BnbExhaustive, MatchesBruteForce) {
  WorkloadConfig config;
  config.n = 3;
  config.m = 2;
  config.p_max = 3;
  const Instance base = random_workload(config, GetParam());
  const Instance with_resa(base.m(), base.jobs(),
                           {Reservation{0, 1, 2, 1, ""}});
  for (const Instance& instance : {base, with_resa}) {
    const Time expected = exhaustive_optimum(instance);
    EXPECT_EQ(optimal_makespan(instance), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbExhaustive,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

}  // namespace
}  // namespace resched
