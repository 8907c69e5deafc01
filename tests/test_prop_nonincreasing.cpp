// Property suite for section 4.1 / Proposition 1: with non-increasing
// unavailability, C_LSRC <= (2 - 1/m(C*)) C*, proved through the I -> I' ->
// I'' transformation chain (Figure 2).
#include <gtest/gtest.h>

#include "algorithms/lsrc.hpp"
#include "bounds/checker.hpp"
#include "bounds/guarantees.hpp"
#include "bounds/lower_bounds.hpp"
#include "core/availability.hpp"
#include "exact/bnb.hpp"
#include "generators/reservations.hpp"
#include "generators/transform.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

Instance staircase_instance(std::uint64_t seed, std::size_t n, ProcCount m) {
  WorkloadConfig config;
  config.n = n;
  config.m = m;
  config.p_max = 8;
  const Instance base = random_workload(config, seed);
  StaircaseConfig stairs;
  stairs.steps = 3;
  stairs.max_initial = m / 2;
  stairs.max_step_duration = 10;
  return with_nonincreasing_reservations(base, stairs, seed + 2000);
}

// Exact: small instances, the refined bound 2 - 1/m(C*) against B&B optima.
class Prop1Exact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Prop1Exact, RefinedBoundAgainstExactOptimum) {
  const Instance instance = staircase_instance(GetParam(), 6, 6);
  ASSERT_TRUE(has_non_increasing_unavailability(instance));
  const Time optimum = optimal_makespan(instance);
  // m(C*): availability at the optimal makespan (m(t) is non-decreasing, so
  // this is the largest availability seen before C*).
  const ProcCount m_at_cstar = availability_at(instance, optimum);
  const Rational bound = nonincreasing_bound(m_at_cstar);
  for (const ListOrder order : all_list_orders()) {
    const Schedule schedule = LsrcScheduler(order, 17).schedule(instance).value();
    ASSERT_TRUE(schedule.validate(instance).ok);
    EXPECT_LE(makespan_ratio(schedule.makespan(instance), optimum), bound)
        << to_string(order) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop1Exact,
                         ::testing::Values(701, 702, 703, 704, 705, 706, 707,
                                           708));

// Larger instances: the weak form 2 - 1/m against the certified lower bound
// must never be *violated* (checker semantics).
class Prop1Large : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Prop1Large, WeakFormNeverViolated) {
  const Instance instance = staircase_instance(GetParam(), 70, 20);
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  const GuaranteeReport report = check_guarantee(instance, schedule);
  EXPECT_NE(report.compliance, Compliance::kViolated) << report.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop1Large,
                         ::testing::Values(801, 802, 803, 804, 805));

// The proof chain itself. Step I -> I': truncation at C* preserves the
// optimal value and availability before C*.
TEST(Prop1Chain, TruncationPreservesOptimum) {
  for (const std::uint64_t seed : {811u, 812u, 813u}) {
    const Instance instance = staircase_instance(seed, 5, 6);
    const Time optimum = optimal_makespan(instance);
    const Instance truncated = truncate_availability(instance, optimum);
    // Same availability up to C*.
    for (Time t = 0; t < optimum; ++t)
      ASSERT_EQ(availability_at(truncated, t), availability_at(instance, t));
    // Same optimal makespan (the proof's "both instances have the same C*").
    EXPECT_EQ(optimal_makespan(truncated), optimum) << "seed " << seed;
  }
}

// Step I' -> I'': LSRC with head-first list yields the identical schedule
// for the original jobs (covered in detail in test_transform; here on the
// truncated chain end to end).
TEST(Prop1Chain, EndToEndTransformationPreservesLsrcMakespan) {
  for (const std::uint64_t seed : {821u, 822u, 823u}) {
    const Instance instance = staircase_instance(seed, 8, 8);
    const Schedule direct = LsrcScheduler().schedule(instance).value();
    const HeadJobTransform transform = reservations_to_head_jobs(instance);
    const Schedule indirect =
        LsrcScheduler().schedule(transform.rigid).value();
    Time original_jobs_makespan = 0;
    for (const Job& job : instance.jobs()) {
      const JobId mapped =
          transform.job_map[static_cast<std::size_t>(job.id)];
      original_jobs_makespan =
          std::max(original_jobs_makespan,
                   indirect.start(mapped) + job.p);
    }
    EXPECT_EQ(original_jobs_makespan, direct.makespan(instance))
        << "seed " << seed;
  }
}

// Theorem-2-on-I'' implies the Prop. 1 bound: the head jobs only add work,
// so the I'' optimum is at least the I optimum, and Theorem 2's guarantee on
// I'' transfers. Check the resulting inequality directly on small cases.
TEST(Prop1Chain, TransferredInequalityHolds) {
  for (const std::uint64_t seed : {831u, 832u}) {
    const Instance instance = staircase_instance(seed, 5, 6);
    const HeadJobTransform transform = reservations_to_head_jobs(instance);
    const Time opt_rigid = optimal_makespan(transform.rigid);
    const Schedule direct = LsrcScheduler().schedule(instance).value();
    // C_LSRC(I) = C_LSRC(I'') <= (2 - 1/m) C*(I'').
    const Rational bound = graham_bound(instance.m());
    EXPECT_LE(makespan_ratio(direct.makespan(instance), opt_rigid), bound);
  }
}

}  // namespace
}  // namespace resched
