// Property suite for Theorem 2 (the Graham / Garey-Graham bound revisited in
// the paper's appendix): for ANY list order, C_LSRC <= (2 - 1/m) C* on
// RIGIDSCHEDULING instances.
#include <gtest/gtest.h>

#include "algorithms/lsrc.hpp"
#include "bounds/checker.hpp"
#include "bounds/guarantees.hpp"
#include "bounds/lower_bounds.hpp"
#include "exact/bnb.hpp"
#include "generators/adversarial.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

// Exact check on small instances: every order, every seed, against B&B.
struct GrahamCase {
  std::uint64_t seed;
  std::size_t n;
  ProcCount m;
};

class GrahamExact : public ::testing::TestWithParam<GrahamCase> {};

TEST_P(GrahamExact, AllOrdersWithinBoundOfExactOptimum) {
  const GrahamCase param = GetParam();
  WorkloadConfig config;
  config.n = param.n;
  config.m = param.m;
  config.p_max = 10;
  const Instance instance = random_workload(config, param.seed);
  const Time optimum = optimal_makespan(instance);
  const Rational bound = graham_bound(instance.m());
  for (const ListOrder order : all_list_orders()) {
    const Schedule schedule = LsrcScheduler(order, 3).schedule(instance).value();
    ASSERT_TRUE(schedule.validate(instance).ok);
    const Rational ratio =
        makespan_ratio(schedule.makespan(instance), optimum);
    EXPECT_LE(ratio, bound)
        << to_string(order) << " ratio " << ratio.to_string() << " vs bound "
        << bound.to_string() << " (seed " << param.seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, GrahamExact,
    ::testing::Values(GrahamCase{1, 5, 2}, GrahamCase{2, 5, 3},
                      GrahamCase{3, 6, 2}, GrahamCase{4, 6, 4},
                      GrahamCase{5, 7, 3}, GrahamCase{6, 7, 2},
                      GrahamCase{7, 6, 3}, GrahamCase{8, 5, 4},
                      GrahamCase{9, 7, 4}, GrahamCase{10, 6, 5}));

// Larger instances: sound check against the certified lower bound via the
// guarantee checker (must never report kViolated; kProven expected in the
// overwhelming majority, but kInconclusive is acceptable since LB < C*).
class GrahamLarge : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GrahamLarge, CheckerNeverReportsViolation) {
  WorkloadConfig config;
  config.n = 120;
  config.m = 32;
  config.p_max = 50;
  const Instance instance = random_workload(config, GetParam());
  for (const ListOrder order :
       {ListOrder::kSubmission, ListOrder::kLpt, ListOrder::kRandom}) {
    const Schedule schedule = LsrcScheduler(order, 11).schedule(instance).value();
    const GuaranteeReport report = check_guarantee(instance, schedule);
    EXPECT_NE(report.compliance, Compliance::kViolated)
        << to_string(order) << ": " << report.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrahamLarge,
                         ::testing::Values(401, 402, 403, 404, 405, 406));

// Tightness: the adversarial family attains the bound exactly, so the bound
// constant cannot be improved.
TEST(GrahamTightness, FamilyAttainsBoundExactly) {
  for (const ProcCount m : {2, 3, 5, 8, 13}) {
    const GrahamTightFamily family = graham_tight_instance(m);
    const Schedule bad =
        LsrcScheduler().schedule(family.instance).value();
    EXPECT_EQ(makespan_ratio(bad.makespan(family.instance),
                             family.optimal_makespan),
              graham_bound(m));
  }
}

// A structural consequence of Lemma 1: integrating
// r(t) + r(t + p_max) >= m + 1 over t in [0, C - p_max) bounds the makespan
// by C_LSRC <= p_max + 2 W / (m + 1) -- checked directly on every order.
class GrahamStructural : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GrahamStructural, LemmaOneIntegralForm) {
  WorkloadConfig config;
  config.n = 60;
  config.m = 16;
  const Instance instance = random_workload(config, GetParam());
  for (const ListOrder order :
       {ListOrder::kSubmission, ListOrder::kWidest, ListOrder::kRandom}) {
    const Schedule schedule = LsrcScheduler(order, 13).schedule(instance).value();
    const double lhs = static_cast<double>(schedule.makespan(instance));
    const double rhs =
        static_cast<double>(instance.p_max()) +
        2.0 * static_cast<double>(instance.total_work()) /
            static_cast<double>(instance.m() + 1);
    EXPECT_LE(lhs, rhs + 1e-9) << to_string(order);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrahamStructural,
                         ::testing::Values(501, 502, 503, 504, 505));

}  // namespace
}  // namespace resched
