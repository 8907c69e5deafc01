// Property suite for section 4.2: on alpha-RESASCHEDULING instances LSRC is
// at most 2/alpha from optimal (Proposition 3), the constructive lower bound
// reaches 2/alpha - 1 + alpha/2 (Proposition 2), and the analytic sandwich
// B2 <= B1 <= 2/alpha holds where both are defined.
#include <gtest/gtest.h>

#include "algorithms/lsrc.hpp"
#include "bounds/checker.hpp"
#include "bounds/guarantees.hpp"
#include "bounds/lower_bounds.hpp"
#include "core/availability.hpp"
#include "exact/bnb.hpp"
#include "generators/adversarial.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

Instance alpha_instance(std::uint64_t seed, std::size_t n, ProcCount m,
                        const Rational& alpha) {
  WorkloadConfig config;
  config.n = n;
  config.m = m;
  config.alpha = alpha;
  config.p_max = 12;
  const Instance base = random_workload(config, seed);
  AlphaReservationConfig resa;
  resa.alpha = alpha;
  resa.count = 4;
  resa.horizon = 60;
  resa.max_duration = 20;
  return with_alpha_restricted_reservations(base, resa, seed + 1000);
}

// Exact: small instances, all orders, ratio vs B&B optimum <= 2/alpha.
struct AlphaCase {
  std::uint64_t seed;
  ProcCount m;
  int alpha_num;
  int alpha_den;
};

class AlphaExact : public ::testing::TestWithParam<AlphaCase> {};

TEST_P(AlphaExact, AllOrdersWithinTwoOverAlphaOfOptimum) {
  const AlphaCase param = GetParam();
  const Rational alpha(param.alpha_num, param.alpha_den);
  const Instance instance = alpha_instance(param.seed, 6, param.m, alpha);
  ASSERT_TRUE(is_alpha_restricted(instance, alpha));
  const Time optimum = optimal_makespan(instance);
  const Rational bound = alpha_upper_bound(alpha);
  for (const ListOrder order : all_list_orders()) {
    const Schedule schedule = LsrcScheduler(order, 9).schedule(instance).value();
    ASSERT_TRUE(schedule.validate(instance).ok);
    EXPECT_LE(makespan_ratio(schedule.makespan(instance), optimum), bound)
        << to_string(order) << " on seed " << param.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, AlphaExact,
    ::testing::Values(AlphaCase{1, 4, 1, 2}, AlphaCase{2, 4, 1, 2},
                      AlphaCase{3, 8, 1, 2}, AlphaCase{4, 8, 1, 4},
                      AlphaCase{5, 6, 1, 3}, AlphaCase{6, 6, 2, 3},
                      AlphaCase{7, 8, 3, 4}, AlphaCase{8, 9, 1, 3}));

// Larger instances: sound check via the certified lower bound.
class AlphaLarge : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlphaLarge, NoViolationAgainstLowerBound) {
  const Rational alpha(1, 2);
  const Instance instance = alpha_instance(GetParam(), 80, 16, alpha);
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  const GuaranteeReport report = check_guarantee(instance, schedule);
  EXPECT_NE(report.compliance, Compliance::kViolated) << report.detail;
  // The checker must have recognised a finite guarantee for this class.
  EXPECT_TRUE(report.has_guarantee);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlphaLarge,
                         ::testing::Values(601, 602, 603, 604, 605, 606));

// Proposition 2: the adversarial ratio k - 1 + 1/k is realised exactly and
// stays sandwiched between the analytic bounds.
class Prop2Sandwich : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(Prop2Sandwich, AchievedRatioMatchesB1B2AtConstructivePoints) {
  const std::int64_t k = GetParam();
  const Prop2Family family = prop2_instance(k);
  const Schedule bad =
      LsrcScheduler().schedule(family.instance).value();
  const Rational achieved = makespan_ratio(bad.makespan(family.instance),
                                           family.optimal_makespan);
  const Rational alpha(2, k);
  // At alpha = 2/k both analytic lower bounds coincide with the achieved
  // constructive ratio, and Prop. 3's upper bound dominates.
  EXPECT_EQ(achieved, lsrc_lower_bound_b1(alpha));
  EXPECT_EQ(achieved, lsrc_lower_bound_b2(alpha));
  EXPECT_LT(achieved, alpha_upper_bound(alpha));
}

INSTANTIATE_TEST_SUITE_P(Ks, Prop2Sandwich,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10, 12));

// A good list order defuses the adversarial family: LPT schedules the wide
// jobs first and lands on the optimum.
TEST(Prop2Defused, LptIsOptimalOnTheFamily) {
  for (const std::int64_t k : {3, 4, 6}) {
    const Prop2Family family = prop2_instance(k);
    const Schedule lpt =
        LsrcScheduler(ListOrder::kLpt).schedule(family.instance).value();
    ASSERT_TRUE(lpt.validate(family.instance).ok);
    EXPECT_EQ(lpt.makespan(family.instance), family.optimal_makespan)
        << "k=" << k;
  }
}

// Guarantee degradation as alpha shrinks: with everything else fixed, the
// certified worst-case bound 2/alpha doubles when alpha halves; the measured
// ratios (vs lower bound) must stay below each bound.
TEST(AlphaDegradation, MeasuredRatiosRespectTheirBounds) {
  for (const auto& [num, den] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 2}, {1, 3}, {1, 4}}) {
    const Rational alpha(num, den);
    const Instance instance = alpha_instance(777, 50, 24, alpha);
    const Schedule schedule = LsrcScheduler().schedule(instance).value();
    const Time lb = makespan_lower_bound(instance);
    EXPECT_LE(makespan_ratio(schedule.makespan(instance), lb),
              alpha_upper_bound(alpha))
        << "alpha = " << alpha.to_string();
  }
}

}  // namespace
}  // namespace resched
