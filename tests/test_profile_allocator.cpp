#include "core/profile_allocator.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/availability.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

TEST(FreeProfile, RejectsNegativeCapacity) {
  StepProfile profile(1);
  profile.add(0, 3, -2);
  EXPECT_THROW(FreeProfile{profile}, std::invalid_argument);
}

TEST(FreeProfile, FitsAtConstantCapacity) {
  FreeProfile free{StepProfile(4)};
  EXPECT_TRUE(free.fits_at(0, 4, 10));
  EXPECT_FALSE(free.fits_at(0, 5, 1));
  EXPECT_TRUE(free.fits_at(1'000'000, 1, 1));
}

TEST(FreeProfile, FitsAtRespectsDips) {
  StepProfile profile(4);
  profile.add(5, 7, -3);  // capacity 1 on [5,7)
  FreeProfile free{profile};
  EXPECT_TRUE(free.fits_at(0, 2, 5));    // [0,5) untouched
  EXPECT_FALSE(free.fits_at(0, 2, 6));   // [0,6) touches the dip
  EXPECT_TRUE(free.fits_at(5, 1, 2));    // inside the dip, q = 1 fits
  EXPECT_FALSE(free.fits_at(6, 2, 1));   // [6,7) has only 1
  EXPECT_TRUE(free.fits_at(7, 4, 100));
}

TEST(FreeProfile, EarliestFitImmediate) {
  FreeProfile free{StepProfile(3)};
  EXPECT_EQ(free.earliest_fit(0, 3, 5), 0);
  EXPECT_EQ(free.earliest_fit(11, 1, 1), 11);
}

TEST(FreeProfile, EarliestFitSkipsDeficientSegment) {
  StepProfile profile(4);
  profile.add(2, 6, -4);  // zero capacity on [2,6)
  FreeProfile free{profile};
  // A job of length 3 from t=0 would hit [2,6); earliest is 6.
  EXPECT_EQ(free.earliest_fit(0, 1, 3), 6);
  // Length 2 fits exactly at [0,2).
  EXPECT_EQ(free.earliest_fit(0, 1, 2), 0);
  EXPECT_EQ(free.earliest_fit(1, 1, 2), 6);  // [1,3) overlaps the dip
}

TEST(FreeProfile, EarliestFitLandsOnCapacityIncrease) {
  StepProfile profile(5);
  profile.add(3, 8, -4);   // 1 on [3,8)
  profile.add(8, 12, -2);  // 3 on [8,12)
  FreeProfile free{profile};
  // q = 2, p = 4: blocked through [3,8); at 8 capacity rises to 3 and the
  // window [8,12) holds 3 >= 2.
  EXPECT_EQ(free.earliest_fit(0, 2, 4), 8);
  // q = 4, p = 1: 5 on [0,3) fits at t = 0 from t0 = 0; from t0 = 3 the
  // next fit is 12.
  EXPECT_EQ(free.earliest_fit(0, 4, 1), 0);
  EXPECT_EQ(free.earliest_fit(3, 4, 1), 12);
}

TEST(FreeProfile, EarliestFitImpossibleWidthThrows) {
  FreeProfile free{StepProfile(2)};
  EXPECT_THROW((void)free.earliest_fit(0, 3, 1), std::invalid_argument);
}

TEST(FreeProfile, CommitSubtractsAndAReturnByValueRestores) {
  FreeProfile free{StepProfile(4)};
  free.commit_fitted(2, 3, 5);
  EXPECT_EQ(free.profile().value_at(2), 1);
  EXPECT_EQ(free.profile().value_at(6), 1);
  EXPECT_EQ(free.profile().value_at(7), 4);
  EXPECT_FALSE(free.fits_at(0, 2, 5));
  free.adjust_capacity(2, 7, 3);
  EXPECT_EQ(free.profile(), StepProfile(4));
}

TEST(FreeProfile, ForInstanceUsesAvailability) {
  const Instance instance(6, {Job{0, 1, 1, 0, ""}},
                          {Reservation{0, 4, 5, 2, ""}});
  const FreeProfile free = FreeProfile::for_instance(instance);
  EXPECT_EQ(free.profile().value_at(0), 6);
  EXPECT_EQ(free.profile().value_at(2), 2);
  EXPECT_EQ(free.profile().value_at(7), 6);
}

// Differential property: earliest_fit agrees with a brute-force scan over
// every candidate start time on random small profiles.
class EarliestFitRandomized : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EarliestFitRandomized, AgreesWithBruteForce) {
  constexpr Time kHorizon = 48;
  Prng prng(GetParam());
  StepProfile profile(5);
  for (int i = 0; i < 10; ++i) {
    const Time a = prng.uniform_int(0, kHorizon - 1);
    const Time len = prng.uniform_int(1, 12);
    const std::int64_t delta = prng.uniform_int(-2, 0);
    if (profile.min_in(a, a + len) + delta >= 0)
      profile.add(a, a + len, delta);
  }
  FreeProfile free{profile};

  for (int trial = 0; trial < 60; ++trial) {
    const ProcCount q = prng.uniform_int(1, 5);
    const Time p = prng.uniform_int(1, 10);
    const Time t0 = prng.uniform_int(0, kHorizon);
    const Time got = free.earliest_fit(t0, q, p);
    // Brute force: first t >= t0 with min over [t, t+p) >= q; scanning past
    // the last possible breakpoint (kHorizon + max added length) is enough
    // because the profile is constant 5 beyond it.
    Time expected = kTimeInfinity;
    for (Time t = t0; t <= kHorizon + 13; ++t) {
      if (profile.min_in(t, t + p) >= q) {
        expected = t;
        break;
      }
    }
    ASSERT_EQ(got, expected) << "q=" << q << " p=" << p << " t0=" << t0;
    // And the returned start indeed fits.
    ASSERT_TRUE(free.fits_at(got, q, p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EarliestFitRandomized,
                         ::testing::Values(10, 11, 12, 13, 14, 15));

// Differential property: place(t0, q, p) is earliest_fit(t0, q, p)
// followed by commit_fitted at that start -- the same start and the same
// resulting profile, segment for segment -- on random profiles carrying a
// sequence of placements. The draws aim t0 at breakpoints and p at the
// next breakpoint, and the test checks that the rounds covered a start
// inside a deficient run, windows starting and ending on a breakpoint and
// windows reaching the final segment.
class PlaceRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlaceRandomized, EqualsEarliestFitThenCommit) {
  constexpr Time kHorizon = 64;
  Prng prng(GetParam());
  int deficient_start = 0;
  int starts_on_breakpoint = 0;
  int ends_on_breakpoint = 0;
  int reaches_final = 0;
  for (int round = 0; round < 40; ++round) {
    StepProfile profile(prng.uniform_int(3, 6));
    for (int i = 0; i < 12; ++i) {
      const Time a = prng.uniform_int(0, kHorizon - 1);
      const Time len = prng.uniform_int(1, 16);
      const std::int64_t delta = prng.uniform_int(-3, 2);
      if (profile.min_in(a, a + len) + delta >= 0)
        profile.add(a, a + len, delta);
    }
    FreeProfile placed{profile};
    FreeProfile reference{profile};
    for (int k = 0; k < 25; ++k) {
      const StepProfile& now = reference.profile();
      if (now.final_value() < 1) break;
      const auto segments = now.segments();
      const ProcCount q = prng.uniform_int(1, now.final_value());
      const Time t0 =
          prng.chance(0.5)
              ? segments[static_cast<std::size_t>(prng.uniform_int(
                             0, static_cast<std::int64_t>(segments.size()) -
                                    1))]
                    .start
              : prng.uniform_int(0, kHorizon);
      const Time next = now.next_change_after(t0);
      const Time p = prng.chance(0.4) && next < kTimeInfinity
                         ? next - t0
                         : prng.uniform_int(1, 16);
      const Time expected = reference.earliest_fit(t0, q, p);
      if (reference.profile().value_at(t0) < q) ++deficient_start;
      if (expected > 0 && now.next_change_after(expected - 1) == expected)
        ++starts_on_breakpoint;
      if (now.next_change_after(expected + p - 1) == expected + p)
        ++ends_on_breakpoint;
      if (now.next_change_after(expected) == kTimeInfinity ||
          now.next_change_after(expected + p - 1) == kTimeInfinity)
        ++reaches_final;
      reference.commit_fitted(expected, q, p);
      ASSERT_EQ(placed.place(t0, q, p), expected)
          << "q=" << q << " p=" << p << " t0=" << t0;
      ASSERT_EQ(placed.profile(), reference.profile())
          << "q=" << q << " p=" << p << " t0=" << t0;
    }
  }
  EXPECT_GT(deficient_start, 0);
  EXPECT_GT(starts_on_breakpoint, 0);
  EXPECT_GT(ends_on_breakpoint, 0);
  EXPECT_GT(reaches_final, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaceRandomized,
                         ::testing::Values(20, 21, 22, 23, 24, 25));

TEST(FreeProfile, PlaceCoalescesAtBothEdges) {
  // [10, 20) carries 2 more than both neighbours; a q = 2 job placed there
  // levels it, and both edges merge away.
  StepProfile profile(3);
  profile.add(10, 20, 2);
  FreeProfile free{profile};
  EXPECT_EQ(free.place(10, 2, 10), 10);
  EXPECT_EQ(free.profile(), StepProfile(3));
}

TEST(FreeProfile, PlaceFromInsideADeficientRun) {
  StepProfile profile(4);
  profile.add(5, 9, -3);
  profile.add(9, 12, -2);
  FreeProfile free{profile};
  // t0 = 6 is inside the deficient run [5, 12): the job starts at its end.
  EXPECT_EQ(free.place(6, 3, 2), 12);
  EXPECT_EQ(free.profile().value_at(11), 2);
  EXPECT_EQ(free.profile().value_at(12), 1);
  EXPECT_EQ(free.profile().value_at(14), 4);
}

TEST(FreeProfile, PlaceAtTimeInfinity) {
  // Capacity arrives only at kTimeInfinity, and the window reaching past
  // it is unbounded: the placement lands exactly on the horizon and takes
  // the capacity for good, as commit_fitted there would.
  StepProfile profile(0);
  profile.add(kTimeInfinity, kTimeInfinity + 1, 1);
  FreeProfile placed{profile};
  FreeProfile reference{profile};
  // earliest_fit reads the same start; a fit found there is not "no fit".
  EXPECT_EQ(reference.earliest_fit(0, 1, 5), kTimeInfinity);
  EXPECT_EQ(placed.place(0, 1, 5), kTimeInfinity);
  reference.commit_fitted(kTimeInfinity, 1, 5);
  EXPECT_EQ(placed.profile(), reference.profile());
  EXPECT_EQ(placed.profile(), StepProfile(0));
}

TEST(FreeProfile, PlaceContracts) {
  FreeProfile free{StepProfile(2)};
  EXPECT_THROW((void)free.place(0, 3, 1), std::invalid_argument);
  EXPECT_THROW((void)free.place(-1, 1, 1), std::invalid_argument);
  EXPECT_THROW((void)free.place(0, 1, 0), std::invalid_argument);
  EXPECT_EQ(free.profile(), StepProfile(2));
}

TEST(FreeProfileVersioned, AdjustCapacityContracts) {
  FreeProfile free{StepProfile(4)};
  // Withdrawals must stay within the window's minimum free capacity.
  EXPECT_THROW(free.adjust_capacity(0, 10, -5), std::invalid_argument);
  free.adjust_capacity(2, 6, -4);
  EXPECT_EQ(free.profile().value_at(3), 0);
  EXPECT_THROW(free.adjust_capacity(0, 4, -1), std::invalid_argument);
  // Restores lift the window back; a cancellation refund.
  free.adjust_capacity(2, 6, 4);
  EXPECT_EQ(free.profile().value_at(3), 4);
  EXPECT_THROW(free.adjust_capacity(3, 3, -1), std::invalid_argument);
}

TEST(FreeProfileVersioned, CompactHistoryPreservesTheLiveSuffix) {
  FreeProfile free{StepProfile(16)};
  for (Time t = 0; t < 100; t += 10) free.adjust_capacity(t, t + 5, -1);
  const std::size_t segments_before = free.profile().segment_count();
  const ProcCount at_now = free.profile().value_at(52);
  const ProcCount later = free.profile().value_at(75);
  const std::size_t removed = free.compact_history(52);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(free.profile().segment_count(), segments_before);
  EXPECT_EQ(free.profile().value_at(52), at_now);
  EXPECT_EQ(free.profile().value_at(75), later);
  EXPECT_EQ(free.profile().value_at(1000), 16);
}

}  // namespace
}  // namespace resched
