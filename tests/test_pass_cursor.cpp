// Differential tests of FreeProfile::Cursor, the pass view LSRC and EASY
// read, test and take through at one instant t.
//
// Random profiles take random take / try_take sequences at one t. After
// every step the cursor must agree with the stateless operations it
// replaces: its index with a search for t, capacity() with value_at(t),
// fit_deadline and backfill_deadline with their two-search definitions,
// try_take with fits_at followed by commit_fitted (verdict and resulting
// profile), take with commit_fitted, and earliest_fit with
// FreeProfile::earliest_fit. The draws aim t, window ends and head windows
// at breakpoints, and the test checks that each edge case was hit.
#include "core/profile_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/checked.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

constexpr Time kHorizon = 64;

// Position of the segment containing t, by a plain scan.
std::size_t index_of(const StepProfile& profile, Time t) {
  const std::vector<StepProfile::Segment> segments = profile.segments();
  std::size_t i = 0;
  while (segments[i].end <= t) ++i;
  return i;
}

bool is_breakpoint(const StepProfile& profile, Time t) {
  return t > 0 && profile.next_change_after(t - 1) == t;
}

// The deadlines as defined, each with two windowed searches.
Time fit_deadline_oracle(const StepProfile& free, Time t, ProcCount q,
                         Time w) {
  return free.first_below(t, checked_add(t, w), q);
}

Time backfill_deadline_oracle(const StepProfile& free, Time t, ProcCount q,
                              Time w, const HeadReservation& head) {
  const Time fit = fit_deadline_oracle(free, t, q, w);
  const Time last_end = std::min(fit, checked_add(t, w));
  if (last_end <= head.start) return fit;
  return std::min(fit, free.first_below(head.start,
                                        std::min(head.end, last_end),
                                        checked_add(head.q, q)));
}

StepProfile random_profile(Prng& prng) {
  StepProfile profile(prng.uniform_int(3, 8));
  for (int i = 0; i < 14; ++i) {
    const Time a = prng.uniform_int(0, kHorizon - 1);
    const Time len = prng.uniform_int(1, 16);
    const std::int64_t delta = prng.uniform_int(-3, 2);
    if (profile.min_in(a, a + len) + delta >= 0)
      profile.add(a, a + len, delta);
  }
  return profile;
}

struct Coverage {
  int t_on_breakpoint = 0;
  int t_mid_segment = 0;
  int coalesced_left = 0;       // a take merged t's segment into its left
  int window_ends_on_breakpoint = 0;
  int window_reaches_final = 0;
  int head_starts_at_window_end = 0;
  int refused = 0;              // try_take that did not fit
  int taken = 0;
};

class PassCursorRandomized : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PassCursorRandomized, AgreesWithTheStatelessOperations) {
  Prng prng(GetParam());
  Coverage seen;
  for (int round = 0; round < 60; ++round) {
    const StepProfile initial = random_profile(prng);
    const std::vector<StepProfile::Segment> segments = initial.segments();
    const Time t =
        prng.chance(0.5)
            ? segments[static_cast<std::size_t>(prng.uniform_int(
                           0, static_cast<std::int64_t>(segments.size()) - 1))]
                  .start
            : prng.uniform_int(0, kHorizon);
    if (t == 0 || is_breakpoint(initial, t))
      ++seen.t_on_breakpoint;
    else
      ++seen.t_mid_segment;
    FreeProfile free{initial};
    FreeProfile reference{initial};
    FreeProfile::Cursor at = free.at(t);
    for (int step = 0; step < 12; ++step) {
      const StepProfile& now = reference.profile();
      ASSERT_EQ(free.profile(), now);
      ASSERT_EQ(at.index(), index_of(now, t));
      ASSERT_EQ(at.capacity(), now.value_at(t));

      // Reads: deadlines over random windows and heads, earliest fit.
      for (int query = 0; query < 6; ++query) {
        const ProcCount q = prng.uniform_int(1, now.max_value() + 1);
        const Time next = now.next_change_after(t);
        const Time w = prng.chance(0.4) && next < kTimeInfinity
                           ? next - t
                           : prng.uniform_int(1, 24);
        ASSERT_EQ(at.fit_deadline(q, w), fit_deadline_oracle(now, t, q, w))
            << "t=" << t << " q=" << q << " w=" << w;
        const Time head_start =
            prng.chance(0.3) ? t + w : t + prng.uniform_int(1, 30);
        if (head_start == t + w) ++seen.head_starts_at_window_end;
        const HeadReservation head{prng.uniform_int(1, 6), head_start,
                                   head_start + prng.uniform_int(1, 20)};
        ASSERT_EQ(at.backfill_deadline(q, w, head),
                  backfill_deadline_oracle(now, t, q, w, head))
            << "t=" << t << " q=" << q << " w=" << w << " head=(" << head.q
            << ", [" << head.start << ", " << head.end << "))";
        if (q <= now.final_value()) {
          const Time p = prng.uniform_int(1, 24);
          ASSERT_EQ(at.earliest_fit(q, p), reference.earliest_fit(t, q, p));
        }
      }

      // A take or try_take. q sometimes levels t's segment with its left
      // neighbour, p sometimes ends the window on the next breakpoint.
      ProcCount q = prng.uniform_int(1, std::max<std::int64_t>(
                                            1, now.value_at(t)));
      if (t > 0 && prng.chance(0.3)) {
        const std::int64_t step_up = now.value_at(t) - now.value_at(t - 1);
        if (step_up >= 1) q = step_up;
      }
      const Time next = now.next_change_after(t);
      const Time p = prng.chance(0.4) && next < kTimeInfinity
                         ? next - t
                         : prng.uniform_int(1, 24);
      if (is_breakpoint(now, t + p)) ++seen.window_ends_on_breakpoint;
      if (now.next_change_after(t + p - 1) == kTimeInfinity)
        ++seen.window_reaches_final;
      const bool fits = reference.fits_at(t, q, p);
      const std::size_t before = at.index();
      if (fits && prng.chance(0.5)) {
        reference.commit_fitted(t, q, p);
        at.take(q, p);
      } else {
        if (fits) reference.commit_fitted(t, q, p);
        ASSERT_EQ(at.try_take(q, p), fits) << "t=" << t << " q=" << q
                                           << " p=" << p;
      }
      if (fits) {
        ++seen.taken;
        if (at.index() + 1 == before) ++seen.coalesced_left;
      } else {
        ++seen.refused;
      }
      ASSERT_EQ(free.profile(), reference.profile())
          << "t=" << t << " q=" << q << " p=" << p;
    }
  }
  EXPECT_GT(seen.t_on_breakpoint, 0);
  EXPECT_GT(seen.t_mid_segment, 0);
  EXPECT_GT(seen.coalesced_left, 0);
  EXPECT_GT(seen.window_ends_on_breakpoint, 0);
  EXPECT_GT(seen.window_reaches_final, 0);
  EXPECT_GT(seen.head_starts_at_window_end, 0);
  EXPECT_GT(seen.refused, 0);
  EXPECT_GT(seen.taken, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassCursorRandomized,
                         ::testing::Values(30, 31, 32, 33, 34, 35));

TEST(PassCursor, TakeContracts) {
  FreeProfile free{StepProfile(4)};
  EXPECT_THROW((void)free.at(-1), std::invalid_argument);
  FreeProfile::Cursor at = free.at(2);
  EXPECT_THROW(at.take(1, 0), std::invalid_argument);
  EXPECT_THROW((void)at.fit_deadline(1, 0), std::invalid_argument);
  at.take(3, 5);
  EXPECT_FALSE(at.try_take(2, 1));
  EXPECT_TRUE(at.try_take(1, 1));
  EXPECT_EQ(at.capacity(), 0);
  EXPECT_EQ(free.profile().value_at(7), 4);
}

#ifndef NDEBUG
// Expects the invariant failure RESCHED_ASSERT raises -- a std::logic_error
// that is not a std::invalid_argument (a rejected argument).
template <class F>
void expect_invariant_failure(F&& use) {
  try {
    use();
    ADD_FAILURE() << "a stale cursor was used without tripping";
  } catch (const std::invalid_argument& error) {
    ADD_FAILURE() << "rejected as bad input: " << error.what();
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("invariant violated"),
              std::string::npos)
        << error.what();
  }
}

TEST(PassCursor, StaleCursorTripsInDebug) {
  FreeProfile free{StepProfile(4)};
  FreeProfile::Cursor at = free.at(3);
  // The cursor's own takes keep it current.
  at.take(1, 2);
  EXPECT_EQ(at.capacity(), 3);
  // Any other mutation leaves it describing a profile that is gone.
  free.adjust_capacity(0, 10, -1);
  expect_invariant_failure([&] { (void)at.capacity(); });
  expect_invariant_failure([&] { (void)at.fit_deadline(1, 4); });
  expect_invariant_failure([&] { (void)at.try_take(1, 1); });
  expect_invariant_failure([&] { at.take(1, 1); });
  expect_invariant_failure([&] { (void)at.earliest_fit(1, 1); });
  // A new cursor sees the new profile.
  EXPECT_EQ(free.at(3).capacity(), 2);
}
#endif

}  // namespace
}  // namespace resched
