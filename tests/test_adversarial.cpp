#include "generators/adversarial.hpp"

#include <gtest/gtest.h>

#include "algorithms/fcfs.hpp"
#include "algorithms/lsrc.hpp"
#include "bounds/guarantees.hpp"
#include "bounds/lower_bounds.hpp"
#include "core/availability.hpp"

namespace resched {
namespace {

TEST(Prop2Family, Figure3InstanceExactly) {
  // The paper's printed example: alpha = 1/3 (k = 6), m = 180, C* = 6,
  // C_LSRC = 5 * 6 + 1 = 31.
  const Prop2Family family = prop2_instance(6);
  EXPECT_EQ(family.instance.m(), 180);
  EXPECT_EQ(family.optimal_makespan, 6);
  EXPECT_EQ(family.lsrc_makespan, 31);
  EXPECT_EQ(family.instance.n(), 11u);  // k shorts + k-1 wides
}

TEST(Prop2Family, OptimalScheduleIsFeasibleAndTight) {
  for (const std::int64_t k : {2, 3, 4, 6, 8}) {
    const Prop2Family family = prop2_instance(k);
    const ValidationResult valid =
        family.optimal_schedule.validate(family.instance);
    ASSERT_TRUE(valid.ok) << "k=" << k << ": " << valid.error;
    EXPECT_EQ(family.optimal_schedule.makespan(family.instance),
              family.optimal_makespan);
    // It matches the certified lower bound, so it is exactly optimal.
    EXPECT_EQ(makespan_lower_bound(family.instance),
              family.optimal_makespan);
  }
}

TEST(Prop2Family, LsrcWithBadOrderRealisesTheLowerBound) {
  for (const std::int64_t k : {2, 3, 4, 5, 6, 8, 10}) {
    const Prop2Family family = prop2_instance(k);
    const Schedule schedule =
        LsrcScheduler().schedule(family.instance).value();
    ASSERT_TRUE(schedule.validate(family.instance).ok) << "k=" << k;
    EXPECT_EQ(schedule.makespan(family.instance), family.lsrc_makespan)
        << "k=" << k;
    // Ratio is exactly 2/alpha - 1 + alpha/2 = k - 1 + 1/k.
    EXPECT_EQ(makespan_ratio(schedule.makespan(family.instance),
                             family.optimal_makespan),
              prop2_ratio_for_k(k))
        << "k=" << k;
  }
}

TEST(Prop2Family, InstanceIsAlphaRestricted) {
  for (const std::int64_t k : {3, 4, 6}) {
    const Prop2Family family = prop2_instance(k);
    EXPECT_TRUE(is_alpha_restricted(family.instance, Rational(2, k)))
        << "k=" << k;
  }
}

TEST(Prop2Family, RatioStaysBelowProp3UpperBound) {
  // Sanity of the whole theory: lower-bound instances never exceed 2/alpha.
  for (const std::int64_t k : {2, 3, 4, 6, 8}) {
    EXPECT_LT(prop2_ratio_for_k(k),
              alpha_upper_bound(Rational(2, k)));
  }
}

TEST(Prop2Family, RejectsDegenerate) {
  EXPECT_THROW(prop2_instance(1), std::invalid_argument);
}

TEST(GrahamTight, RealisesTwoMinusOneOverM) {
  for (const ProcCount m : {2, 3, 4, 8}) {
    const GrahamTightFamily family = graham_tight_instance(m);
    const Schedule bad =
        LsrcScheduler().schedule(family.instance).value();
    ASSERT_TRUE(bad.validate(family.instance).ok);
    EXPECT_EQ(bad.makespan(family.instance), 2 * m - 1);
    EXPECT_EQ(makespan_lower_bound(family.instance), m);
    // Ratio (2m-1)/m = 2 - 1/m = the Theorem 2 bound, exactly.
    EXPECT_EQ(makespan_ratio(bad.makespan(family.instance),
                             family.optimal_makespan),
              graham_bound(m));
  }
}

TEST(GrahamTight, LptOrderIsOptimal) {
  const GrahamTightFamily family = graham_tight_instance(5);
  const Schedule lpt =
      LsrcScheduler(ListOrder::kLpt).schedule(family.instance).value();
  EXPECT_EQ(lpt.makespan(family.instance), family.optimal_makespan);
}

TEST(FcfsBad, ExactMakespans) {
  for (const ProcCount m : {2, 3, 4, 6}) {
    const FcfsBadFamily family = fcfs_bad_instance(m);
    const Schedule schedule = FcfsScheduler().schedule(family.instance).value();
    ASSERT_TRUE(schedule.validate(family.instance).ok);
    EXPECT_EQ(schedule.makespan(family.instance), family.fcfs_makespan);
    EXPECT_EQ(makespan_lower_bound(family.instance),
              family.optimal_makespan);
    // LSRC stays within its guarantee on the same family.
    const Schedule lsrc = LsrcScheduler().schedule(family.instance).value();
    EXPECT_LE(makespan_ratio(lsrc.makespan(family.instance),
                             family.optimal_makespan),
              graham_bound(m));
  }
}

TEST(FcfsBad, RatioGrowsLinearly) {
  // (m^3 + m) / (m^2 + m) -> m - 1 + o(1): strictly increasing in m.
  Rational previous(0);
  for (const ProcCount m : {2, 4, 8, 16}) {
    const FcfsBadFamily family = fcfs_bad_instance(m);
    const Rational ratio(family.fcfs_makespan, family.optimal_makespan);
    EXPECT_GT(ratio, previous);
    previous = ratio;
  }
  EXPECT_GT(previous, Rational(13));  // m = 16: ratio ~ 15.1
}

TEST(CbfTrap, WellFormedOnlineInstance) {
  const Instance instance = cbf_trap_instance(5, 8, 20);
  EXPECT_EQ(instance.n(), 10u);
  EXPECT_TRUE(instance.has_release_times());
  EXPECT_TRUE(instance.is_rigid_only());
}

TEST(Theorem1Reduction, StructureMatchesFigure1) {
  Prng prng(3);
  const ThreePartitionInstance partition = random_strict_yes_instance(3, 20, prng);
  const Theorem1Reduction reduction = theorem1_reduction(partition, 2);
  const Instance& instance = reduction.instance;
  EXPECT_EQ(instance.m(), 1);
  EXPECT_EQ(instance.n(), 9u);
  ASSERT_EQ(instance.n_reservations(), 3u);
  // r_j = j(B+1) - 1.
  EXPECT_EQ(instance.reservation(0).start, 20);       // 1*21 - 1
  EXPECT_EQ(instance.reservation(1).start, 41);       // 2*21 - 1
  EXPECT_EQ(instance.reservation(2).start, 62);       // 3*21 - 1
  EXPECT_EQ(instance.reservation(0).p, 1);
  EXPECT_EQ(instance.reservation(2).p, 2 * 3 * 21 + 1);
  EXPECT_EQ(reduction.opt_if_solvable, 3 * 21 - 1);
  EXPECT_EQ(reduction.gap_threshold, 2 * 3 * 21);
}

TEST(Theorem1Reduction, PartitionYieldsOptimalSchedule) {
  Prng prng(5);
  const ThreePartitionInstance partition = random_strict_yes_instance(4, 24, prng);
  const ThreePartitionSolution solution = solve_three_partition(partition);
  ASSERT_TRUE(solution.solvable);
  const Theorem1Reduction reduction = theorem1_reduction(partition, 3);
  const Schedule schedule = schedule_from_partition(reduction, solution.groups);
  ASSERT_TRUE(schedule.validate(reduction.instance).ok);
  EXPECT_EQ(schedule.makespan(reduction.instance), reduction.opt_if_solvable);
}

TEST(Theorem1Reduction, ScheduleBelowThresholdYieldsPartition) {
  Prng prng(7);
  const ThreePartitionInstance partition = random_strict_yes_instance(3, 16, prng);
  const ThreePartitionSolution solution = solve_three_partition(partition);
  ASSERT_TRUE(solution.solvable);
  const Theorem1Reduction reduction = theorem1_reduction(partition, 2);
  const Schedule schedule = schedule_from_partition(reduction, solution.groups);
  const auto recovered =
      partition_from_schedule(reduction, partition, schedule);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(is_valid_three_partition(partition, *recovered));
}

TEST(Theorem1Reduction, LateScheduleYieldsNoPartition) {
  Prng prng(9);
  const ThreePartitionInstance partition = random_strict_yes_instance(3, 16, prng);
  const Theorem1Reduction reduction = theorem1_reduction(partition, 2);
  // Schedule everything after the giant reservation: feasible but useless.
  Schedule late(reduction.instance.n());
  Time cursor = reduction.instance.reservation(2).end();
  for (const Job& job : reduction.instance.jobs()) {
    late.set_start(job.id, cursor);
    cursor += job.p;
  }
  ASSERT_TRUE(late.validate(reduction.instance).ok);
  EXPECT_FALSE(
      partition_from_schedule(reduction, partition, late).has_value());
}

TEST(StrictYesInstance, ItemsWithinOpenQuarterHalf) {
  Prng prng(11);
  const ThreePartitionInstance instance = random_strict_yes_instance(5, 40, prng);
  EXPECT_TRUE(instance.well_formed());
  for (const std::int64_t item : instance.items) {
    EXPECT_GT(item * 4, 40);  // item > B/4
    EXPECT_LT(item * 2, 40);  // item < B/2
  }
}

TEST(GapReservation, AppendsFullWidthBlock) {
  const Instance base(4, {Job{0, 2, 5, 0, ""}});
  const Instance gapped = add_gap_reservation(base, 10, 100);
  ASSERT_EQ(gapped.n_reservations(), 1u);
  EXPECT_EQ(gapped.reservation(0).q, 4);
  EXPECT_EQ(gapped.reservation(0).start, 10);
  EXPECT_EQ(availability_at(gapped, 10), 0);
}

TEST(GapReservation, RejectsOverlap) {
  const Instance base(4, {Job{0, 2, 5, 0, ""}},
                      {Reservation{0, 1, 20, 0, ""}});
  EXPECT_THROW(add_gap_reservation(base, 10, 5), std::invalid_argument);
}

}  // namespace
}  // namespace resched
