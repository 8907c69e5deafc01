#include "algorithms/lsrc.hpp"

#include <gtest/gtest.h>

#include "bounds/checker.hpp"
#include "core/load_sweep.hpp"
#include "core/step_profile.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

TEST(Lsrc, EmptyInstance) {
  const Instance instance(4, {});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.makespan(instance), 0);
}

TEST(Lsrc, SingleJobStartsImmediately) {
  const Instance instance(4, {Job{0, 2, 5, 0, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.makespan(instance), 5);
}

TEST(Lsrc, PacksParallelJobs) {
  // Three q=1 jobs on m=3: all at t=0.
  const Instance instance(
      3, {Job{0, 1, 4, 0, ""}, Job{1, 1, 4, 0, ""}, Job{2, 1, 4, 0, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  for (JobId id = 0; id < 3; ++id) EXPECT_EQ(schedule.start(id), 0);
}

TEST(Lsrc, GreedyStartsLowerPriorityJobWhenHeadBlocked) {
  // Head job needs the whole machine after a running job; the narrow job
  // overtakes (the "most aggressive backfilling" behaviour).
  const Instance instance(
      2, {Job{0, 2, 2, 0, "first"}, Job{1, 2, 2, 0, "wide"},
          Job{2, 1, 2, 0, "narrow"}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  // At t=0 job0 (q=2) starts; job1 (q=2) does not fit, job2 (q=1) does not
  // fit either (0 free). At t=2 all free: job1 starts, then job2 cannot
  // (2+1 > 2). At t=4 job2 starts.
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(1), 2);
  EXPECT_EQ(schedule.start(2), 4);
}

TEST(Lsrc, BackfillsAroundWideJob) {
  // m=3: job0 q=2 runs [0,4); job1 q=2 can't fit at 0, but job2 q=1 can.
  const Instance instance(
      3, {Job{0, 2, 4, 0, ""}, Job{1, 2, 4, 0, ""}, Job{2, 1, 2, 0, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(2), 0);  // overtakes job1
  EXPECT_EQ(schedule.start(1), 4);
}

TEST(Lsrc, RespectsReservationWithLookahead) {
  // m=2, full reservation on [3,5). A p=4 job cannot start at 0 (would
  // overlap), must wait until 5.
  const Instance instance(2, {Job{0, 2, 4, 0, ""}},
                          {Reservation{0, 2, 2, 3, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 5);
  EXPECT_TRUE(schedule.validate(instance).ok);
}

TEST(Lsrc, SlipsShortJobBeforeReservation) {
  // Same reservation, but a p=3 job fits exactly in [0,3).
  const Instance instance(2, {Job{0, 2, 3, 0, ""}},
                          {Reservation{0, 2, 2, 3, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 0);
}

TEST(Lsrc, StartsAtReservationEndEvent) {
  // Partial reservation: 1 of 2 machines on [0,10). q=2 job must wait for
  // the reservation end even though nothing else runs.
  const Instance instance(2, {Job{0, 2, 1, 0, ""}},
                          {Reservation{0, 1, 10, 0, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 10);
}

TEST(Lsrc, HonoursReleaseTimes) {
  const Instance instance(2, {Job{0, 1, 2, 5, ""}, Job{1, 1, 2, 0, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(1), 0);
  EXPECT_EQ(schedule.start(0), 5);
}

TEST(Lsrc, ExplicitListOrderIsRespected) {
  // Two jobs both fit at 0 only one at a time; explicit order decides.
  const Instance instance(2, {Job{0, 2, 2, 0, ""}, Job{1, 2, 1, 0, ""}});
  const Schedule a = LsrcScheduler(std::vector<JobId>{0, 1}).schedule(instance).value();
  EXPECT_EQ(a.start(0), 0);
  EXPECT_EQ(a.start(1), 2);
  const Schedule b = LsrcScheduler(std::vector<JobId>{1, 0}).schedule(instance).value();
  EXPECT_EQ(b.start(1), 0);
  EXPECT_EQ(b.start(0), 1);
}

TEST(Lsrc, ExplicitListValidated) {
  const Instance instance(2, {Job{0, 1, 1, 0, ""}, Job{1, 1, 1, 0, ""}});
  EXPECT_THROW(LsrcScheduler(std::vector<JobId>{0, 0}).schedule(instance).value(),
               std::invalid_argument);
  EXPECT_THROW(LsrcScheduler(std::vector<JobId>{0}).schedule(instance).value(),
               std::invalid_argument);
  EXPECT_THROW(LsrcScheduler(std::vector<JobId>{0, 5}).schedule(instance).value(),
               std::invalid_argument);
}

TEST(Lsrc, NameReflectsOrder) {
  EXPECT_EQ(LsrcScheduler().name(), "lsrc[submission]");
  EXPECT_EQ(LsrcScheduler(ListOrder::kLpt).name(), "lsrc[lpt]");
  EXPECT_EQ(LsrcScheduler(std::vector<JobId>{}).name(), "lsrc[explicit]");
}

// The defining greedy property of a list schedule (used in Lemma 1's proof):
// at any time t < sigma_i, job i does not fit together with the jobs then
// running. Checked directly on random instances: for every job i and every
// load-step breakpoint t in [0, sigma_i), the job must not fit at t
// against availability minus the usage of jobs with sigma_j <= t < C_j.
class LsrcGreedyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LsrcGreedyProperty, NoFeasibleEarlierStartAtAnyEvent) {
  WorkloadConfig config;
  config.n = 25;
  config.m = 12;
  config.p_max = 30;
  const Instance instance = random_workload(config, GetParam());
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  ASSERT_TRUE(schedule.validate(instance).ok);

  // Free processors m - U(t) - r(t), from the load sweep's steps.
  const std::vector<LoadStep> steps =
      load_steps(instance, sweep_events(instance, schedule));
  StepProfile free(instance.m());
  for (std::size_t k = 0; k + 1 < steps.size(); ++k)
    free.add(steps[k].tick, steps[k + 1].tick, -steps[k].load);

  for (const Job& job : instance.jobs()) {
    const Time sigma = schedule.start(job.id);
    // Candidate earlier starts: 0 and every capacity-change breakpoint.
    Time t = 0;
    while (t < sigma) {
      // The job would need q free processors during [t, t+p) *excluding its
      // own usage* -- but its own usage only exists from sigma onwards, and
      // [t, t+p) may overlap it for t > sigma - p. Add its own usage back in
      // the overlap.
      StepProfile hypothetical = free;
      const Time own_end = sigma + job.p;
      const Time overlap_from = std::max(t, sigma);
      const Time overlap_to = std::min(t + job.p, own_end);
      if (overlap_from < overlap_to)
        hypothetical.add(overlap_from, overlap_to, job.q);
      EXPECT_LT(hypothetical.min_in(t, t + job.p), job.q)
          << "job " << job.id << " could have started at " << t
          << " but LSRC chose " << sigma;
      const Time next = free.next_change_after(t);
      if (next >= sigma) break;
      t = next;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsrcGreedyProperty,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

// Feasibility on instances with reservations, across all priority orders.
class LsrcFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(LsrcFeasibility, AllOrdersFeasible) {
  const auto order = all_list_orders()[static_cast<std::size_t>(GetParam())];
  WorkloadConfig config;
  config.n = 30;
  config.m = 16;
  config.alpha = Rational(1, 2);
  Instance base = random_workload(config, 99);
  // Put a hefty (but alpha-legal) reservation in the middle.
  std::vector<Reservation> reservations{Reservation{0, 8, 40, 20, ""}};
  const Instance instance(base.m(), base.jobs(), reservations);

  const Schedule schedule = LsrcScheduler(order, 5).schedule(instance).value();
  const ValidationResult result = schedule.validate(instance);
  EXPECT_TRUE(result.ok) << to_string(order) << ": " << result.error;
}

INSTANTIATE_TEST_SUITE_P(AllOrders, LsrcFeasibility,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace resched
