#include "core/availability.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/schedule.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

Instance reserved_instance() {
  // m = 10; U: [0,5)=3, [5,8)=3+2=5 ... build: r0 = 3 procs on [0,8),
  // r1 = 2 procs on [5, 8). U = 3 on [0,5), 5 on [5,8), 0 after.
  return Instance(10, {Job{0, 4, 3, 0, ""}},
                  {Reservation{0, 3, 8, 0, ""}, Reservation{1, 2, 3, 5, ""}});
}

TEST(Availability, UnavailabilityProfile) {
  const StepProfile u = unavailability_profile(reserved_instance());
  EXPECT_EQ(u.value_at(0), 3);
  EXPECT_EQ(u.value_at(4), 3);
  EXPECT_EQ(u.value_at(5), 5);
  EXPECT_EQ(u.value_at(7), 5);
  EXPECT_EQ(u.value_at(8), 0);
}

TEST(Availability, AvailabilityIsComplement) {
  const Instance instance = reserved_instance();
  const StepProfile m_t = availability_profile(instance);
  const StepProfile u = unavailability_profile(instance);
  for (const Time t : {Time{0}, Time{4}, Time{5}, Time{7}, Time{8}, Time{20}})
    EXPECT_EQ(m_t.value_at(t) + u.value_at(t), instance.m());
}

TEST(Availability, NoReservationsIsConstant) {
  const Instance instance(6, {Job{0, 1, 1, 0, ""}});
  EXPECT_EQ(availability_profile(instance), StepProfile(6));
  EXPECT_TRUE(has_non_increasing_unavailability(instance));
}

TEST(Availability, NonIncreasingDetection) {
  // Nested blocks starting at 0: U = 5 on [0,3), 2 on [3,7), 0 after.
  const Instance staircase(8, {},
                           {Reservation{0, 3, 3, 0, ""},
                            Reservation{1, 2, 7, 0, ""}});
  EXPECT_TRUE(has_non_increasing_unavailability(staircase));
  // A reservation starting later breaks monotonicity.
  const Instance bump(8, {}, {Reservation{0, 3, 3, 5, ""}});
  EXPECT_FALSE(has_non_increasing_unavailability(bump));
}

TEST(Availability, MinAvailabilityAndAt) {
  const Instance instance = reserved_instance();
  EXPECT_EQ(min_availability(instance), 5);  // during [5,8)
  EXPECT_EQ(availability_at(instance, 0), 7);
  EXPECT_EQ(availability_at(instance, 6), 5);
  EXPECT_EQ(availability_at(instance, 100), 10);
}

TEST(Availability, Fractions) {
  const Instance instance = reserved_instance();
  EXPECT_EQ(max_reserved_fraction(instance), Rational(1, 2));  // 5/10
  EXPECT_EQ(max_job_fraction(instance), Rational(2, 5));       // 4/10
}

TEST(Availability, AlphaRestriction) {
  const Instance instance = reserved_instance();
  // alpha = 1/2: U <= (1-alpha)m = 5 (holds, max U = 5); q <= alpha m = 5
  // (holds, q_max = 4).
  EXPECT_TRUE(is_alpha_restricted(instance, Rational(1, 2)));
  // alpha = 2/5: q <= 4 holds, but U <= 6 also holds -> check fails on U?
  // (1-2/5)*10 = 6 >= 5 holds, so alpha = 2/5 is also valid.
  EXPECT_TRUE(is_alpha_restricted(instance, Rational(2, 5)));
  // alpha = 3/5: U cap (1-3/5)*10 = 4 < 5 -> violated.
  EXPECT_FALSE(is_alpha_restricted(instance, Rational(3, 5)));
  // alpha = 1/5: job cap 2 < 4 -> violated.
  EXPECT_FALSE(is_alpha_restricted(instance, Rational(1, 5)));
  EXPECT_THROW((void)is_alpha_restricted(instance, Rational(0)),
               std::invalid_argument);
}

TEST(Availability, BestAlpha) {
  const Instance instance = reserved_instance();
  const auto alpha = best_alpha(instance);
  ASSERT_TRUE(alpha.has_value());
  EXPECT_EQ(*alpha, Rational(1, 2));
  EXPECT_TRUE(is_alpha_restricted(instance, *alpha));
}

TEST(Availability, BestAlphaNoneWhenJobTooWide) {
  // Peak reservation leaves 2 processors but a job needs 5.
  const Instance instance(8, {Job{0, 5, 1, 0, ""}},
                          {Reservation{0, 6, 4, 0, ""}});
  EXPECT_FALSE(best_alpha(instance).has_value());
}

TEST(Availability, BestAlphaNoneWhenFullyReserved) {
  const Instance instance(4, {Job{0, 1, 1, 0, ""}},
                          {Reservation{0, 4, 2, 0, ""}});
  EXPECT_FALSE(best_alpha(instance).has_value());
}

TEST(Availability, BestAlphaOneForRigidOnly) {
  const Instance instance(4, {Job{0, 4, 1, 0, ""}});
  const auto alpha = best_alpha(instance);
  ASSERT_TRUE(alpha.has_value());
  EXPECT_EQ(*alpha, Rational(1));
}

// Random feasible reservation sets (U <= m everywhere), some windows
// touching end to start.
Instance random_reserved_instance(Prng& prng) {
  const ProcCount m = static_cast<ProcCount>(prng.uniform_int(1, 16));
  StepProfile free(m);
  std::vector<Reservation> held;
  const int count = static_cast<int>(prng.uniform_int(0, 8));
  for (int r = 0; r < count; ++r) {
    const Time start = !held.empty() && prng.uniform_int(0, 3) == 0
                           ? held.back().end()  // touches the previous one
                           : prng.uniform_int(0, 200);
    const Time p = prng.uniform_int(1, 80);
    const ProcCount q = static_cast<ProcCount>(prng.uniform_int(1, m));
    if (free.min_in(start, start + p) < q) continue;
    free.add(start, start + p, -q);
    held.push_back(Reservation{static_cast<ReservationId>(held.size()), q, p,
                               start, ""});
  }
  return Instance(m, {Job{0, 1, 1, 0, ""}}, held);
}

TEST(Availability, AvailableAreaMatchesTheProfileIntegral) {
  Prng prng(2718);
  for (int trial = 0; trial < 300; ++trial) {
    const Instance instance = random_reserved_instance(prng);
    const StepProfile m_t = availability_profile(instance);
    // H = 0, a random horizon, every window boundary (touching windows
    // included) and one past the last window.
    std::vector<Time> horizons = {0, prng.uniform_int(1, 400), 1000};
    for (const Reservation& resa : instance.reservations()) {
      horizons.push_back(resa.start);
      horizons.push_back(resa.end());
      horizons.push_back(resa.end() + 1);
    }
    for (const Time horizon : horizons)
      ASSERT_EQ(available_area(instance, horizon), m_t.integral(0, horizon))
          << "trial " << trial << " horizon " << horizon;
  }
}

TEST(Availability, AvailableAreaClipsWindowsToTheHorizon) {
  // m = 10; 3 processors on [0, 8), 2 on [5, 8), and 4 on [20, 30), wholly
  // past a horizon of 8.
  const Instance instance(10, {Job{0, 4, 3, 0, ""}},
                          {Reservation{0, 3, 8, 0, ""},
                           Reservation{1, 2, 3, 5, ""},
                           Reservation{2, 4, 10, 20, ""}});
  EXPECT_EQ(available_area(instance, 0), 0);
  EXPECT_EQ(available_area(instance, 5), 50 - 15);
  EXPECT_EQ(available_area(instance, 8), 80 - 24 - 6);
  EXPECT_EQ(available_area(instance, 20), 200 - 24 - 6);
  EXPECT_EQ(available_area(instance, 25), 250 - 24 - 6 - 20);
}

TEST(Availability, ScheduleUtilizationReadsTheAvailableArea) {
  // Schedules whose makespan ends before, at and inside reservation
  // windows: utilization and idle area agree with the profile integral.
  Prng prng(314);
  for (int trial = 0; trial < 200; ++trial) {
    const Instance base = random_reserved_instance(prng);
    const Time p = prng.uniform_int(1, 300);
    const Instance instance(base.m(), {Job{0, 1, p, 0, ""}},
                            base.reservations());
    Schedule schedule(1);
    schedule.set_start(0, prng.uniform_int(0, 100));
    const Time horizon = schedule.makespan(instance);
    const std::int64_t available =
        availability_profile(instance).integral(0, horizon);
    EXPECT_EQ(schedule.idle_area(instance), available - p) << trial;
    if (available > 0) {
      EXPECT_DOUBLE_EQ(schedule.utilization(instance),
                       static_cast<double>(p) /
                           static_cast<double>(available))
          << trial;
    }
  }
}

}  // namespace
}  // namespace resched
