// Differential / property fuzz suite for StepProfile.
//
// Drives random operation sequences against a naive dense-array reference
// model over a bounded horizon, and checks the canonical-form invariants
// (first breakpoint at 0, strictly increasing starts, adjacent values
// distinct) after every mutation. Directed cases cover the overflow edges
// near kTimeInfinity that random draws cannot reach.
#include "core/step_profile.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "util/prng.hpp"

namespace resched {
namespace {

// All fuzzed breakpoints live in [0, kHorizon]; values for t >= kHorizon are
// tracked separately as the tail.
constexpr Time kHorizon = 96;

// Naive O(horizon) reference: one value per integer tick plus an unbounded
// tail. Deliberately dumb -- every query is a linear scan.
class DenseRef {
 public:
  explicit DenseRef(std::int64_t initial) : ticks_(kHorizon, initial), tail_(initial) {}

  void add(Time from, Time to, std::int64_t delta) {
    if (from >= to) return;
    for (Time t = from; t < std::min<Time>(to, kHorizon); ++t)
      ticks_[static_cast<std::size_t>(t)] += delta;
    if (to >= kTimeInfinity) tail_ += delta;
  }

  [[nodiscard]] std::int64_t value_at(Time t) const {
    return t < kHorizon ? ticks_[static_cast<std::size_t>(t)] : tail_;
  }

  [[nodiscard]] std::int64_t min_in(Time from, Time to) const {
    std::int64_t result = value_at(from);
    for (Time t = from; t < std::min<Time>(to, kHorizon); ++t)
      result = std::min(result, value_at(t));
    if (to > kHorizon) result = std::min(result, tail_);
    return result;
  }

  [[nodiscard]] std::int64_t max_in(Time from, Time to) const {
    std::int64_t result = value_at(from);
    for (Time t = from; t < std::min<Time>(to, kHorizon); ++t)
      result = std::max(result, value_at(t));
    if (to > kHorizon) result = std::max(result, tail_);
    return result;
  }

  [[nodiscard]] Time first_below(Time from, Time to,
                                 std::int64_t threshold) const {
    for (Time t = from; t < std::min<Time>(to, kHorizon); ++t)
      if (value_at(t) < threshold) return t;
    if (to > kHorizon && tail_ < threshold) return std::max<Time>(from, kHorizon);
    return kTimeInfinity;
  }

  [[nodiscard]] std::int64_t integral(Time from, Time to) const {
    std::int64_t area = 0;
    for (Time t = from; t < to; ++t) area += value_at(t);
    return area;
  }

  // Mirrors the documented contract: earliest T with integral(from, T) >=
  // target, where non-positive-rate stretches contribute nothing (capacity
  // profiles are non-negative; the suite only queries those).
  [[nodiscard]] Time time_to_accumulate(Time from, std::int64_t target) const {
    if (target == 0) return from;
    std::int64_t acc = 0;
    for (Time t = from; t < 4 * kHorizon; ++t) {
      acc += std::max<std::int64_t>(value_at(t), 0);
      if (acc >= target) return t + 1;
    }
    return kTimeInfinity;  // unreachable within any bounded probe horizon
  }

  [[nodiscard]] std::int64_t min_value() const { return min_in(0, kHorizon + 1); }

 private:
  std::vector<std::int64_t> ticks_;
  std::int64_t tail_;
};

void ExpectCanonical(const StepProfile& profile) {
  const auto segments = profile.segments();
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().start, 0) << "first breakpoint must be time 0";
  EXPECT_EQ(segments.back().end, kTimeInfinity);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_LT(segments[i].start, segments[i].end);
    if (i + 1 < segments.size()) {
      EXPECT_EQ(segments[i].end, segments[i + 1].start);
      EXPECT_NE(segments[i].value, segments[i + 1].value)
          << "adjacent segments must have distinct values (canonical form)";
    }
  }
  EXPECT_EQ(profile.segment_count(), segments.size());
}

void ExpectMatchesReference(const StepProfile& profile, const DenseRef& ref) {
  for (Time t = 0; t <= kHorizon + 2; ++t)
    ASSERT_EQ(profile.value_at(t), ref.value_at(t)) << "at t=" << t;
}

TEST(PropStepProfile, RandomAddSequencesMatchDenseReference) {
  Prng prng(20260726);
  for (int round = 0; round < 150; ++round) {
    const std::int64_t initial = prng.uniform_int(-4, 8);
    StepProfile profile(initial);
    DenseRef ref(initial);
    for (int op = 0; op < 48; ++op) {
      const Time a = prng.uniform_int(0, kHorizon);
      const Time b = prng.chance(0.15)
                         ? kTimeInfinity
                         : prng.uniform_int(0, kHorizon);
      const std::int64_t delta = prng.uniform_int(-3, 3);
      profile.add(a, b, delta);
      ref.add(a, b, delta);
      ASSERT_NO_FATAL_FAILURE(ExpectCanonical(profile));

      // Interleave queries so they see every intermediate shape.
      const Time f = prng.uniform_int(0, kHorizon - 1);
      const Time w = prng.uniform_int(f + 1, kHorizon + 4);
      ASSERT_EQ(profile.min_in(f, w), ref.min_in(f, w));
      ASSERT_EQ(profile.max_in(f, w), ref.max_in(f, w));
      ASSERT_EQ(profile.integral(f, w), ref.integral(f, w));
      const std::int64_t threshold = prng.uniform_int(-4, 9);
      ASSERT_EQ(profile.first_below(f, w, threshold),
                ref.first_below(f, w, threshold));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(profile, ref));
  }
}

TEST(PropStepProfile, TimeToAccumulateMatchesDenseReferenceOnCapacityProfiles) {
  Prng prng(424242);
  for (int round = 0; round < 150; ++round) {
    StepProfile profile(prng.uniform_int(1, 6));
    DenseRef ref(profile.value_at(0));
    for (int op = 0; op < 32; ++op) {
      Time a = prng.uniform_int(0, kHorizon - 1);
      Time b = prng.uniform_int(0, kHorizon);
      if (a > b) std::swap(a, b);
      if (a == b) b = a + 1;
      // Keep the profile a valid capacity function (non-negative, positive
      // tail): only subtract what the window can afford.
      std::int64_t delta = prng.uniform_int(-3, 3);
      if (delta < 0) {
        const std::int64_t room = ref.min_in(a, b);
        delta = -std::min<std::int64_t>(-delta, std::max<std::int64_t>(room, 0));
      }
      profile.add(a, b, delta);
      ref.add(a, b, delta);

      const Time from = prng.uniform_int(0, kHorizon);
      const std::int64_t target = prng.uniform_int(0, 64);
      ASSERT_EQ(profile.time_to_accumulate(from, target),
                ref.time_to_accumulate(from, target))
          << "from=" << from << " target=" << target;
    }
  }
}

TEST(PropStepProfile, EqualityIsPointwiseViaCanonicalForm) {
  // Two different construction orders of the same function compare equal.
  StepProfile lhs(2);
  lhs.add(3, 9, 4);
  lhs.add(5, 7, -1);
  StepProfile rhs(2);
  rhs.add(5, 7, -1);
  rhs.add(3, 9, 4);
  EXPECT_EQ(lhs, rhs);
  // Undoing an add coalesces back to a single segment.
  StepProfile undone(2);
  undone.add(10, 20, 5);
  undone.add(10, 20, -5);
  EXPECT_EQ(undone, StepProfile(2));
  EXPECT_EQ(undone.segment_count(), 1u);
}

// ---------------------------------------------------------------------------
// Directed overflow edges near kTimeInfinity.
// ---------------------------------------------------------------------------

TEST(PropStepProfile, TimeToAccumulateClampsInsteadOfOverflowingNearInfinity) {
  // needed = target with rate 1; cursor + needed would exceed INT64_MAX.
  const StepProfile ones(1);
  EXPECT_EQ(ones.time_to_accumulate(kTimeInfinity - 1,
                                    std::numeric_limits<std::int64_t>::max()),
            kTimeInfinity);
  // Exactly reaching the horizon is also "never".
  EXPECT_EQ(ones.time_to_accumulate(0, kTimeInfinity), kTimeInfinity);
  // Just below the horizon is still a finite answer.
  EXPECT_EQ(ones.time_to_accumulate(0, kTimeInfinity - 1), kTimeInfinity - 1);
}

TEST(PropStepProfile, TimeToAccumulateZeroRatePrefixThenPositiveTail) {
  StepProfile profile(0);
  profile.add(10, kTimeInfinity, 3);
  EXPECT_EQ(profile.time_to_accumulate(0, 7), 13);  // ceil(7/3) past t=10
  EXPECT_EQ(profile.time_to_accumulate(12, 1), 13);
  // All-zero profile never accumulates.
  EXPECT_EQ(StepProfile(0).time_to_accumulate(0, 1), kTimeInfinity);
}

TEST(PropStepProfile, IntegralOverflowIsCheckedNotSilent) {
  // kTimeInfinity is INT64_MAX / 4, so a rate of 5 over the full horizon
  // overflows while a rate of 2 still fits.
  const StepProfile two(2);
  EXPECT_THROW((void)StepProfile(5).integral(0, kTimeInfinity - 1),
               std::overflow_error);
  EXPECT_EQ(two.integral(0, kTimeInfinity - 1), 2 * (kTimeInfinity - 1));
  // A huge window of zeros is exact and fine.
  EXPECT_EQ(StepProfile(0).integral(0, kTimeInfinity - 1), 0);
  // One-tick windows near the horizon stay exact.
  EXPECT_EQ(two.integral(kTimeInfinity - 2, kTimeInfinity - 1), 2);
}

TEST(PropStepProfile, AddTreatsWindowsReachingInfinityAsUnbounded) {
  StepProfile profile(5);
  profile.add(100, kTimeInfinity, -5);
  EXPECT_EQ(profile.value_at(kTimeInfinity - 1), 0);
  EXPECT_EQ(profile.final_value(), 0);
  EXPECT_EQ(profile.segment_count(), 2u);
  // Breakpoints close to the horizon are representable.
  profile.add(kTimeInfinity - 2, kTimeInfinity, 7);
  EXPECT_EQ(profile.value_at(kTimeInfinity - 3), 0);
  EXPECT_EQ(profile.value_at(kTimeInfinity - 2), 7);
  EXPECT_EQ(profile.final_value(), 7);
}

TEST(PropStepProfile, AddOverflowInSegmentValuesThrows) {
  StepProfile profile(std::numeric_limits<std::int64_t>::max() - 1);
  EXPECT_THROW(profile.add(0, 10, 2), std::overflow_error);
}

}  // namespace
}  // namespace resched
