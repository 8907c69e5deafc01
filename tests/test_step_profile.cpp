#include "core/step_profile.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "util/prng.hpp"

namespace resched {
namespace {

TEST(StepProfile, ConstantFunction) {
  const StepProfile profile(5);
  EXPECT_EQ(profile.value_at(0), 5);
  EXPECT_EQ(profile.value_at(1'000'000), 5);
  EXPECT_EQ(profile.segment_count(), 1u);
  EXPECT_EQ(profile.final_value(), 5);
}

TEST(StepProfile, NegativeQueryThrows) {
  const StepProfile profile(0);
  EXPECT_THROW((void)profile.value_at(-1), std::invalid_argument);
}

TEST(StepProfile, AddCreatesSegments) {
  StepProfile profile(10);
  profile.add(2, 5, -3);
  EXPECT_EQ(profile.value_at(0), 10);
  EXPECT_EQ(profile.value_at(1), 10);
  EXPECT_EQ(profile.value_at(2), 7);
  EXPECT_EQ(profile.value_at(4), 7);
  EXPECT_EQ(profile.value_at(5), 10);
  EXPECT_EQ(profile.segment_count(), 3u);
}

TEST(StepProfile, AddEmptyWindowIsNoop) {
  StepProfile profile(1);
  profile.add(5, 5, 7);
  profile.add(6, 5, 7);
  EXPECT_EQ(profile, StepProfile(1));
}

TEST(StepProfile, AddZeroDeltaIsNoop) {
  StepProfile profile(1);
  profile.add(0, 10, 0);
  EXPECT_EQ(profile.segment_count(), 1u);
}

TEST(StepProfile, AdjacentEqualSegmentsCoalesce) {
  StepProfile profile(0);
  profile.add(0, 5, 2);
  profile.add(5, 10, 2);  // same value as the left neighbour
  EXPECT_EQ(profile.segment_count(), 2u);  // [0,10)=2, [10,inf)=0
  profile.add(0, 10, -2);                  // back to constant 0
  EXPECT_EQ(profile, StepProfile(0));
}

TEST(StepProfile, AddUnboundedWindow) {
  StepProfile profile(4);
  profile.add(3, kTimeInfinity, -4);
  EXPECT_EQ(profile.value_at(2), 4);
  EXPECT_EQ(profile.value_at(3), 0);
  EXPECT_EQ(profile.final_value(), 0);
}

TEST(StepProfile, OverlappingAdds) {
  StepProfile profile(0);
  profile.add(0, 10, 1);
  profile.add(5, 15, 1);
  EXPECT_EQ(profile.value_at(0), 1);
  EXPECT_EQ(profile.value_at(5), 2);
  EXPECT_EQ(profile.value_at(9), 2);
  EXPECT_EQ(profile.value_at(10), 1);
  EXPECT_EQ(profile.value_at(14), 1);
  EXPECT_EQ(profile.value_at(15), 0);
}

// add() finds the window's right edge with its validation walk instead of
// a second binary search; these pin the edge cases of that walk.
using Segments = std::vector<StepProfile::Segment>;

TEST(StepProfile, AddWithinOneSegmentSplitsBothEdges) {
  StepProfile profile(5);
  profile.add(10, 20, -1);
  profile.add(12, 15, -2);  // from and to inside [10, 20)
  EXPECT_EQ(profile.segments(),
            (Segments{{0, 10, 5}, {10, 12, 4}, {12, 15, 2}, {15, 20, 4},
                      {20, kTimeInfinity, 5}}));
}

TEST(StepProfile, AddEndingOnABreakpointAddsNoStep) {
  StepProfile profile(5);
  profile.add(10, 20, -1);
  profile.add(4, 10, 3);  // to == 10 is a breakpoint already
  EXPECT_EQ(profile.segments(), (Segments{{0, 4, 5},
                                          {4, 10, 8},
                                          {10, 20, 4},
                                          {20, kTimeInfinity, 5}}));
  // Ending on a breakpoint and coalescing at both edges: [10, 20) rises
  // to the value of both neighbours.
  profile.add(4, 10, -3);
  profile.add(10, 20, 1);
  EXPECT_EQ(profile, StepProfile(5));
}

TEST(StepProfile, AddReachingInfinityShiftsEveryLaterStep) {
  StepProfile profile(5);
  profile.add(10, 20, -1);
  profile.add(30, 40, 2);
  profile.add(15, kTimeInfinity + 3, 1);  // to >= kTimeInfinity: onwards
  EXPECT_EQ(profile.segments(),
            (Segments{{0, 10, 5}, {10, 15, 4}, {15, 20, 5}, {20, 30, 6},
                      {30, 40, 8}, {40, kTimeInfinity, 6}}));
}

TEST(StepProfile, AddOverflowMidWindowLeavesTheProfileUnchanged) {
  StepProfile profile(0);
  profile.add(10, 20, std::numeric_limits<std::int64_t>::max() - 1);
  profile.add(30, 40, 1);
  const StepProfile before = profile;
  const std::uint64_t version = profile.version();
  // [5, 35) starts and ends in fine segments; the overflow sits inside.
  EXPECT_THROW(profile.add(5, 35, 2), std::overflow_error);
  EXPECT_EQ(profile, before);
  EXPECT_EQ(profile.version(), version);
}

TEST(StepProfile, MinMaxInWindow) {
  StepProfile profile(10);
  profile.add(2, 4, -7);   // dip to 3
  profile.add(6, 8, +5);   // bump to 15
  EXPECT_EQ(profile.min_in(0, 10), 3);
  EXPECT_EQ(profile.max_in(0, 10), 15);
  EXPECT_EQ(profile.min_in(4, 6), 10);
  EXPECT_EQ(profile.min_in(0, 2), 10);
  EXPECT_EQ(profile.min_in(3, 4), 3);   // window inside the dip
  EXPECT_EQ(profile.max_in(8, 100), 10);
}

TEST(StepProfile, MinInEmptyWindowThrows) {
  const StepProfile profile(0);
  EXPECT_THROW((void)profile.min_in(5, 5), std::invalid_argument);
  EXPECT_THROW((void)profile.min_in(6, 5), std::invalid_argument);
}

TEST(StepProfile, FirstBelow) {
  StepProfile profile(10);
  profile.add(4, 7, -8);  // value 2 on [4,7)
  EXPECT_EQ(profile.first_below(0, 20, 5), 4);
  EXPECT_EQ(profile.first_below(5, 20, 5), 5);   // already inside the dip
  EXPECT_EQ(profile.first_below(7, 20, 5), kTimeInfinity);
  EXPECT_EQ(profile.first_below(0, 4, 5), kTimeInfinity);  // dip outside
  EXPECT_EQ(profile.first_below(0, 20, 2), kTimeInfinity); // never below 2
  EXPECT_EQ(profile.first_below(0, 20, 3), 4);
}

TEST(StepProfile, NextChangeAfter) {
  StepProfile profile(0);
  profile.add(3, 8, 1);
  EXPECT_EQ(profile.next_change_after(0), 3);
  EXPECT_EQ(profile.next_change_after(3), 8);
  EXPECT_EQ(profile.next_change_after(7), 8);
  EXPECT_EQ(profile.next_change_after(8), kTimeInfinity);
}

TEST(StepProfile, Integral) {
  StepProfile profile(2);
  profile.add(1, 3, 3);  // value 5 on [1,3)
  // [0,1): 2, [1,3): 5, [3,6): 2 -> 2 + 10 + 6 = 18.
  EXPECT_EQ(profile.integral(0, 6), 18);
  EXPECT_EQ(profile.integral(0, 0), 0);
  EXPECT_EQ(profile.integral(1, 3), 10);
  EXPECT_EQ(profile.integral(2, 4), 5 + 2);
}

TEST(StepProfile, IntegralRejectsUnbounded) {
  const StepProfile profile(1);
  EXPECT_THROW((void)profile.integral(0, kTimeInfinity), std::invalid_argument);
}

TEST(StepProfile, TimeToAccumulate) {
  StepProfile profile(2);         // rate 2 everywhere
  EXPECT_EQ(profile.time_to_accumulate(0, 10), 5);
  EXPECT_EQ(profile.time_to_accumulate(0, 9), 5);   // ceil
  EXPECT_EQ(profile.time_to_accumulate(3, 4), 5);
  EXPECT_EQ(profile.time_to_accumulate(0, 0), 0);
}

TEST(StepProfile, TimeToAccumulateAcrossZeroRate) {
  StepProfile profile(1);
  profile.add(2, 5, -1);  // rate 0 on [2,5)
  // Need 4 units from 0: 2 by t=2, stall to 5, 2 more by 7.
  EXPECT_EQ(profile.time_to_accumulate(0, 4), 7);
}

TEST(StepProfile, TimeToAccumulateUnreachable) {
  StepProfile profile(0);
  profile.add(0, 10, 3);  // positive only on [0,10): total 30
  EXPECT_EQ(profile.time_to_accumulate(0, 31), kTimeInfinity);
  EXPECT_EQ(profile.time_to_accumulate(0, 30), 10);
}

TEST(StepProfile, Monotonicity) {
  StepProfile rising(0);
  rising.add(5, kTimeInfinity, 2);
  EXPECT_FALSE(rising.is_non_increasing());

  StepProfile falling(7);
  falling.add(0, 4, 3);  // 10 then 7
  EXPECT_TRUE(falling.is_non_increasing());

  EXPECT_TRUE(StepProfile(3).is_non_increasing());
}

TEST(StepProfile, MinMaxValue) {
  StepProfile profile(5);
  profile.add(1, 2, -5);
  profile.add(3, 4, 10);
  EXPECT_EQ(profile.min_value(), 0);
  EXPECT_EQ(profile.max_value(), 15);
}

TEST(StepProfile, Segments) {
  StepProfile profile(1);
  profile.add(2, 4, 1);
  const auto segments = profile.segments();
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0], (StepProfile::Segment{0, 2, 1}));
  EXPECT_EQ(segments[1], (StepProfile::Segment{2, 4, 2}));
  EXPECT_EQ(segments[2], (StepProfile::Segment{4, kTimeInfinity, 1}));
}

TEST(StepProfile, SegmentsInClips) {
  StepProfile profile(1);
  profile.add(2, 4, 1);
  const auto segments = profile.segments_in(3, 10);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0], (StepProfile::Segment{3, 4, 2}));
  EXPECT_EQ(segments[1], (StepProfile::Segment{4, 10, 1}));
}

// Randomised differential test: StepProfile must agree with a dense array
// under arbitrary interleavings of add / point / window queries.
class StepProfileRandomized : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StepProfileRandomized, MatchesDenseReference) {
  constexpr Time kHorizon = 64;
  Prng prng(GetParam());
  StepProfile profile(0);
  std::vector<std::int64_t> dense(kHorizon, 0);

  for (int step = 0; step < 200; ++step) {
    const Time a = prng.uniform_int(0, kHorizon - 1);
    const Time b = prng.uniform_int(0, kHorizon);
    const Time from = std::min(a, b);
    const Time to = std::max(a, b);
    const std::int64_t delta = prng.uniform_int(-3, 3);
    profile.add(from, to, delta);
    for (Time t = from; t < to; ++t)
      dense[static_cast<std::size_t>(t)] += delta;

    // Point queries.
    const Time q = prng.uniform_int(0, kHorizon - 1);
    ASSERT_EQ(profile.value_at(q), dense[static_cast<std::size_t>(q)]);

    // Window min / max / integral / first_below.
    const Time w1 = prng.uniform_int(0, kHorizon - 2);
    const Time w2 = prng.uniform_int(w1 + 1, kHorizon - 1);
    std::int64_t expect_min = dense[static_cast<std::size_t>(w1)];
    std::int64_t expect_max = expect_min;
    std::int64_t expect_sum = 0;
    for (Time t = w1; t < w2; ++t) {
      expect_min = std::min(expect_min, dense[static_cast<std::size_t>(t)]);
      expect_max = std::max(expect_max, dense[static_cast<std::size_t>(t)]);
      expect_sum += dense[static_cast<std::size_t>(t)];
    }
    ASSERT_EQ(profile.min_in(w1, w2), expect_min);
    ASSERT_EQ(profile.max_in(w1, w2), expect_max);
    ASSERT_EQ(profile.integral(w1, w2), expect_sum);

    const std::int64_t threshold = prng.uniform_int(-2, 2);
    Time expect_first = kTimeInfinity;
    for (Time t = w1; t < w2; ++t) {
      if (dense[static_cast<std::size_t>(t)] < threshold) {
        expect_first = t;
        break;
      }
    }
    ASSERT_EQ(profile.first_below(w1, w2, threshold), expect_first);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepProfileRandomized,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace resched
