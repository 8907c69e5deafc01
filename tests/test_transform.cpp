#include "generators/transform.hpp"

#include <gtest/gtest.h>

#include "algorithms/lsrc.hpp"
#include "core/availability.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

Instance staircase_instance(std::uint64_t seed = 1) {
  WorkloadConfig config;
  config.n = 12;
  config.m = 10;
  config.alpha = Rational(1, 2);
  const Instance base = random_workload(config, seed);
  StaircaseConfig stairs;
  stairs.steps = 3;
  stairs.max_initial = 5;
  return with_nonincreasing_reservations(base, stairs, seed + 100);
}

// Proposition 1's staircase: on a non-increasing profile every block starts
// at 0 and the blocks run in ascending end, one per drop.
TEST(StaircaseDecomposition, ReconstructsProfile) {
  const Instance instance = staircase_instance();
  const StepProfile u = unavailability_profile(instance);
  const std::vector<Reservation> blocks = unavailability_to_reservations(u);
  StepProfile rebuilt(0);
  for (const Reservation& block : blocks)
    rebuilt.add(block.start, block.end(), block.q);
  EXPECT_EQ(rebuilt, u);
  const auto segments = u.segments();
  ASSERT_EQ(blocks.size() + 1, segments.size());
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    EXPECT_EQ(blocks[j].start, 0);
    EXPECT_EQ(blocks[j].end(), segments[j].end);
    EXPECT_EQ(blocks[j].q, segments[j].value - segments[j + 1].value);
  }
}

TEST(StaircaseDecomposition, EmptyProfileGivesNoBlocks) {
  EXPECT_TRUE(unavailability_to_reservations(StepProfile(0)).empty());
}

TEST(Truncate, CapsMachineCountAtReference) {
  // U: 4 on [0,3), 2 on [3,6), 0 after (m = 8). Reference T = 4: m(T) = 6,
  // so I' has m' = 6 and U' = U - 2 clipped to [0, 4).
  const Instance instance(8, {Job{0, 2, 2, 0, ""}},
                          {Reservation{0, 2, 3, 0, ""},
                           Reservation{1, 2, 6, 0, ""}});
  const Instance truncated = truncate_availability(instance, 4);
  EXPECT_EQ(truncated.m(), 6);
  const StepProfile u = unavailability_profile(truncated);
  EXPECT_EQ(u.value_at(0), 2);  // was 4, minus U(4) = 2
  EXPECT_EQ(u.value_at(3), 0);
  EXPECT_EQ(u.value_at(5), 0);
  // Availability m'(t) equals the original m(t) for t <= T (the proof's
  // defining property).
  for (const Time t : {Time{0}, Time{1}, Time{2}, Time{3}})
    EXPECT_EQ(availability_at(truncated, t), availability_at(instance, t));
}

TEST(Truncate, RejectsIncreasingUnavailability) {
  const Instance instance(4, {Job{0, 1, 1, 0, ""}},
                          {Reservation{0, 2, 3, 5, ""}});
  EXPECT_THROW(truncate_availability(instance, 2), std::invalid_argument);
}

TEST(HeadJobs, ShapeAndIds) {
  const Instance instance = staircase_instance();
  const HeadJobTransform transform = reservations_to_head_jobs(instance);
  EXPECT_TRUE(transform.rigid.is_rigid_only());
  EXPECT_EQ(transform.rigid.n(),
            transform.head_ids.size() + instance.n());
  // job_map shifts original ids past the head block.
  for (std::size_t j = 0; j < instance.n(); ++j)
    EXPECT_EQ(transform.job_map[j],
              static_cast<JobId>(transform.head_ids.size() + j));
}

TEST(HeadJobs, HeadJobsReproduceUnavailabilityUnderLsrc) {
  const Instance instance = staircase_instance();
  const HeadJobTransform transform = reservations_to_head_jobs(instance);
  const Schedule schedule =
      LsrcScheduler().schedule(transform.rigid).value();
  // Every head job starts at 0 (they sum to U(0) <= m).
  StepProfile head_usage(0);
  for (const JobId id : transform.head_ids) {
    EXPECT_EQ(schedule.start(id), 0);
    const Job& job = transform.rigid.job(id);
    head_usage.add(0, job.p, job.q);
  }
  EXPECT_EQ(head_usage, unavailability_profile(instance));
}

// The hinge of Proposition 1's proof: LSRC treats the reservations of I and
// the head jobs of I'' identically, so every original job receives the same
// start time.
class HeadJobEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeadJobEquivalence, LsrcSchedulesMatch) {
  const Instance instance = staircase_instance(GetParam());
  const Schedule direct = LsrcScheduler().schedule(instance).value();
  const HeadJobTransform transform = reservations_to_head_jobs(instance);
  const Schedule transformed =
      LsrcScheduler().schedule(transform.rigid).value();
  ASSERT_TRUE(transformed.validate(transform.rigid).ok);
  for (const Job& job : instance.jobs()) {
    EXPECT_EQ(transformed.start(transform.job_map[static_cast<std::size_t>(
                  job.id)]),
              direct.start(job.id))
        << "job " << job.id << " diverged between I and I''";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeadJobEquivalence,
                         ::testing::Values(31, 32, 33, 34, 35, 36, 37, 38));

}  // namespace
}  // namespace resched
