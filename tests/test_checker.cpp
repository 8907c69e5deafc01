#include "bounds/checker.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "algorithms/fcfs.hpp"
#include "algorithms/lsrc.hpp"
#include "exact/bnb.hpp"
#include "generators/adversarial.hpp"
#include "generators/workload.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

TEST(Checker, RigidInstanceGetsGrahamGuarantee) {
  const Instance instance(4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 3, 0, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  const GuaranteeReport report = check_guarantee(instance, schedule);
  EXPECT_TRUE(report.has_guarantee);
  EXPECT_EQ(report.bound, Rational(7, 4));
  EXPECT_NE(report.guarantee.find("Theorem 2"), std::string::npos);
  EXPECT_EQ(report.compliance, Compliance::kProven);
}

TEST(Checker, AlphaRestrictedGetsProp3Guarantee) {
  // m=8, reservation of 4 (alpha = 1/2), jobs q <= 4.
  const Instance instance(8, {Job{0, 4, 3, 0, ""}, Job{1, 2, 5, 0, ""}},
                          {Reservation{0, 4, 10, 4, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  const GuaranteeReport report = check_guarantee(instance, schedule);
  EXPECT_TRUE(report.has_guarantee);
  EXPECT_EQ(report.bound, Rational(4));  // 2 / (1/2)
  EXPECT_NE(report.guarantee.find("Prop. 3"), std::string::npos);
}

TEST(Checker, UnrestrictedReservationsHaveNoGuarantee) {
  // A full-machine reservation (alpha = 0) that is not non-increasing.
  const Instance instance(2, {Job{0, 1, 2, 0, ""}},
                          {Reservation{0, 2, 5, 3, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  const GuaranteeReport report = check_guarantee(instance, schedule);
  EXPECT_FALSE(report.has_guarantee);
  EXPECT_NE(report.guarantee.find("Theorem 1"), std::string::npos);
  EXPECT_EQ(report.compliance, Compliance::kInconclusive);
}

TEST(Checker, NonIncreasingGetsProp1WeakForm) {
  // Staircase reservations with a job too wide for alpha-restriction
  // (q = 6 > remaining 2 at peak).
  const Instance instance(8, {Job{0, 6, 3, 0, ""}},
                          {Reservation{0, 6, 4, 0, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  const GuaranteeReport report = check_guarantee(instance, schedule);
  EXPECT_TRUE(report.has_guarantee);
  EXPECT_NE(report.guarantee.find("Prop. 1"), std::string::npos);
  EXPECT_EQ(report.bound, Rational(15, 8));  // 2 - 1/8
}

TEST(Checker, InfeasibleScheduleIsViolated) {
  const Instance instance(2, {Job{0, 2, 2, 0, ""}, Job{1, 2, 2, 0, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 0);
  const GuaranteeReport report = check_guarantee(instance, schedule);
  EXPECT_EQ(report.compliance, Compliance::kViolated);
  EXPECT_NE(report.detail.find("infeasible"), std::string::npos);
}

TEST(Checker, ExactReferenceEnablesViolationDetection) {
  // Hand the checker a fake "exact optimum" that makes the ratio exceed the
  // bound: with reference_is_exact it must report kViolated.
  const Instance instance(2, {Job{0, 1, 10, 0, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 100);  // terrible but feasible schedule
  const GuaranteeReport exact = check_guarantee(instance, schedule, Time{10});
  EXPECT_EQ(exact.compliance, Compliance::kViolated);
  // With only the lower bound the same situation is inconclusive.
  const GuaranteeReport lb = check_guarantee(instance, schedule);
  EXPECT_EQ(lb.compliance, Compliance::kInconclusive);
}

TEST(Checker, UsesExactOptimumWhenGiven) {
  const Instance instance(4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 3, 0, ""}});
  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  const Time opt = optimal_makespan(instance);
  const GuaranteeReport report = check_guarantee(instance, schedule, opt);
  EXPECT_TRUE(report.reference_is_exact);
  EXPECT_EQ(report.reference, opt);
  EXPECT_EQ(report.compliance, Compliance::kProven);
}

TEST(Checker, FeasibleOnlyEntryMatchesTheValidatingOne) {
  // Every feasible (instance, schedule, reference) case above: skipping
  // the check must not change a single field of the report.
  struct Case {
    Instance instance;
    std::optional<Time> exact;
  };
  const std::vector<Case> cases = {
      {Instance(4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 3, 0, ""}}), std::nullopt},
      {Instance(4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 3, 0, ""}}), Time{3}},
      {Instance(8, {Job{0, 4, 3, 0, ""}, Job{1, 2, 5, 0, ""}},
                {Reservation{0, 4, 10, 4, ""}}),
       std::nullopt},
      {Instance(2, {Job{0, 1, 2, 0, ""}}, {Reservation{0, 2, 5, 3, ""}}),
       std::nullopt},
      {Instance(8, {Job{0, 6, 3, 0, ""}}, {Reservation{0, 6, 4, 0, ""}}),
       std::nullopt},
      {Instance(2, {Job{0, 1, 10, 0, ""}}), Time{10}},
      {Instance(2, {}), std::nullopt},
  };
  for (const Case& c : cases) {
    const Schedule schedule = LsrcScheduler().schedule(c.instance).value();
    const GuaranteeReport checked =
        check_guarantee(c.instance, schedule, c.exact);
    const GuaranteeReport unchecked =
        guarantee_of_feasible(c.instance, schedule, c.exact);
    EXPECT_EQ(checked.guarantee, unchecked.guarantee);
    EXPECT_EQ(checked.bound, unchecked.bound);
    EXPECT_EQ(checked.has_guarantee, unchecked.has_guarantee);
    EXPECT_EQ(checked.makespan, unchecked.makespan);
    EXPECT_EQ(checked.reference, unchecked.reference);
    EXPECT_EQ(checked.reference_is_exact, unchecked.reference_is_exact);
    EXPECT_EQ(checked.compliance, unchecked.compliance);
    EXPECT_EQ(checked.detail, unchecked.detail);
  }
  // The hand-built terrible schedule of ExactReferenceEnablesViolation-
  // Detection, whose verdict depends on the reference.
  const Instance instance(2, {Job{0, 1, 10, 0, ""}});
  Schedule late(1);
  late.set_start(0, 100);
  for (const std::optional<Time> exact : {std::optional<Time>{},
                                          std::optional<Time>{Time{10}}}) {
    const GuaranteeReport checked = check_guarantee(instance, late, exact);
    const GuaranteeReport unchecked =
        guarantee_of_feasible(instance, late, exact);
    EXPECT_EQ(checked.compliance, unchecked.compliance);
    EXPECT_EQ(checked.detail, unchecked.detail);
    EXPECT_EQ(checked.makespan, unchecked.makespan);
  }
}

TEST(Checker, ComplianceToString) {
  EXPECT_EQ(to_string(Compliance::kProven), "proven");
  EXPECT_EQ(to_string(Compliance::kInconclusive), "inconclusive");
  EXPECT_EQ(to_string(Compliance::kViolated), "VIOLATED");
}

TEST(Lemma1, HoldsOnLsrcSchedules) {
  const GrahamTightFamily family = graham_tight_instance(4);
  const Schedule schedule =
      LsrcScheduler().schedule(family.instance).value();
  const Lemma1Report report = check_lemma1(family.instance, schedule);
  EXPECT_TRUE(report.holds);
}

TEST(Lemma1, DetectsViolationOnNonListSchedule) {
  // A deliberately wasteful schedule: two unit jobs placed far apart leave
  // the machine empty in between -- r(t) + r(t') = 2 <= m for the pair.
  const Instance instance(2, {Job{0, 1, 1, 0, ""}, Job{1, 1, 1, 0, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 10);
  const Lemma1Report report = check_lemma1(instance, schedule);
  EXPECT_FALSE(report.holds);
  EXPECT_GE(report.t_prime, report.t + instance.p_max());
  EXPECT_LE(report.r_sum, instance.m());
}

TEST(Lemma1, TrivialWhenMakespanShort) {
  // makespan <= p_max: no admissible pair, lemma holds vacuously.
  const Instance instance(2, {Job{0, 2, 5, 0, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 0);
  EXPECT_TRUE(check_lemma1(instance, schedule).holds);
}

TEST(Lemma1, RejectsReservedInstances) {
  const Instance instance(2, {Job{0, 1, 1, 0, ""}},
                          {Reservation{0, 1, 1, 0, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 1);
  EXPECT_THROW((void)check_lemma1(instance, schedule), std::invalid_argument);
}

// Property: Lemma 1 holds for LSRC under every priority order on random
// rigid instances (it is a theorem about *any* list schedule).
class Lemma1Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma1Property, HoldsForAllOrders) {
  WorkloadConfig config;
  config.n = 20;
  config.m = 8;
  config.p_max = 20;
  const Instance instance = random_workload(config, GetParam());
  for (const ListOrder order : all_list_orders()) {
    const Schedule schedule = LsrcScheduler(order, 7).schedule(instance).value();
    const Lemma1Report report = check_lemma1(instance, schedule);
    EXPECT_TRUE(report.holds)
        << to_string(order) << ": r(" << report.t << ") + r("
        << report.t_prime << ") = " << report.r_sum << " <= m";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Property,
                         ::testing::Values(301, 302, 303, 304, 305));

// Dense oracle for check_lemma1: r(t) tick by tick, the earliest t in
// [0, C - p_max) whose r(t) plus the minimum of r over [t + p_max, C) is at
// most m, and the first t' there that attains the minimum.
Lemma1Report dense_lemma1(const Instance& instance, const Schedule& schedule) {
  const Time makespan = schedule.makespan(instance);
  const Time p_max = instance.p_max();
  std::vector<std::int64_t> r(static_cast<std::size_t>(makespan), 0);
  for (const Job& job : instance.jobs())
    for (Time t = schedule.start(job.id); t < schedule.start(job.id) + job.p;
         ++t)
      r[static_cast<std::size_t>(t)] += job.q;
  for (Time t = 0; t + p_max < makespan; ++t) {
    Time arg_min = t + p_max;
    for (Time u = t + p_max; u < makespan; ++u)
      if (r[static_cast<std::size_t>(u)] < r[static_cast<std::size_t>(arg_min)])
        arg_min = u;
    const std::int64_t sum = r[static_cast<std::size_t>(t)] +
                             r[static_cast<std::size_t>(arg_min)];
    if (sum <= instance.m()) return {false, t, arg_min, sum};
  }
  return {};
}

// The fields a report is compared on.
auto fields(const Lemma1Report& report) {
  return std::tuple(report.holds, report.t, report.t_prime, report.r_sum);
}

// Differential: check_lemma1 against the dense oracle on small rigid
// instances (m <= 8, C <= 200), on LSRC schedules, where the lemma holds,
// and on the same schedules with one job pushed right, which open gaps.
TEST(Lemma1, MatchesDenseOracle) {
  std::size_t violations = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Prng prng(seed);
    WorkloadConfig config;
    config.n = static_cast<std::size_t>(prng.uniform_int(1, 8));
    config.m = prng.uniform_int(1, 8);
    config.p_max = prng.uniform_int(1, 20);
    config.width = WidthDistribution::kUniform;
    const Instance instance = random_workload(config, seed);
    const Schedule lsrc = LsrcScheduler().schedule(instance).value();
    ASSERT_LE(lsrc.makespan(instance), 200);
    const Lemma1Report list_report = check_lemma1(instance, lsrc);
    EXPECT_TRUE(list_report.holds) << "seed " << seed;
    EXPECT_EQ(fields(list_report), fields(dense_lemma1(instance, lsrc)))
        << "seed " << seed;

    // Push one job right: by a random amount when that stays feasible,
    // else past the makespan, where nothing else runs.
    Schedule pushed = lsrc;
    const JobId victim = static_cast<JobId>(
        prng.uniform_int(0, static_cast<std::int64_t>(instance.n()) - 1));
    pushed.set_start(victim,
                     lsrc.start(victim) + prng.uniform_int(1, config.p_max));
    if (!pushed.validate(instance).ok)
      pushed.set_start(victim, lsrc.makespan(instance) +
                                   prng.uniform_int(0, config.p_max));
    ASSERT_TRUE(pushed.validate(instance).ok) << "seed " << seed;
    ASSERT_LE(pushed.makespan(instance), 200);
    const Lemma1Report pushed_report = check_lemma1(instance, pushed);
    EXPECT_EQ(fields(pushed_report), fields(dense_lemma1(instance, pushed)))
        << "seed " << seed;
    if (!pushed_report.holds) ++violations;
  }
  // The pushed schedules must exercise the violation path, not only the
  // vacuous one.
  EXPECT_GE(violations, 30u);
}

}  // namespace
}  // namespace resched
