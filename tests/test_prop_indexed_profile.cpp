// Differential fuzz suite for StepProfile and FreeProfile on wide,
// fragmented profiles.
//
// Unlike test_prop_step_profile (horizon 96), this suite drives profiles
// with many hundreds of segments and windows spanning hundreds of them, and
// checks every windowed query (min_in, max_in, first_below, first_at_least,
// first_fit, integral, time_to_accumulate) against a naive dense-array
// model after every mutation.
//
// Also re-asserts the candidate-start lemma of profile_allocator.hpp on
// fragmented profiles, checks canonical form after every commit/rollback
// interleaving, and pins the strong exception guarantee of add(): an
// overflow mid-window must leave the profile untouched (the seed
// implementation applied partial deltas and left equal-value neighbours
// unmerged).
#include "core/profile_allocator.hpp"
#include "core/step_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/prng.hpp"

namespace resched {
namespace {

void ExpectCanonical(const StepProfile& profile) {
  const auto segments = profile.segments();
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().start, 0);
  EXPECT_EQ(segments.back().end, kTimeInfinity);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_LT(segments[i].start, segments[i].end);
    if (i + 1 < segments.size()) {
      EXPECT_EQ(segments[i].end, segments[i + 1].start);
      EXPECT_NE(segments[i].value, segments[i + 1].value)
          << "adjacent segments must have distinct values (canonical form)";
    }
  }
}

// Dense reference over integer ticks [0, horizon) plus an unbounded tail.
class DenseModel {
 public:
  DenseModel(Time horizon, std::int64_t initial)
      : horizon_(horizon),
        ticks_(static_cast<std::size_t>(horizon), initial),
        tail_(initial) {}

  void add(Time from, Time to, std::int64_t delta) {
    if (from >= to) return;
    for (Time t = from; t < std::min(to, horizon_); ++t)
      ticks_[static_cast<std::size_t>(t)] += delta;
    if (to >= kTimeInfinity) tail_ += delta;
  }

  [[nodiscard]] std::int64_t value_at(Time t) const {
    return t < horizon_ ? ticks_[static_cast<std::size_t>(t)] : tail_;
  }

  [[nodiscard]] std::int64_t min_in(Time from, Time to) const {
    std::int64_t result = value_at(from);
    for (Time t = from; t < std::min(to, horizon_); ++t)
      result = std::min(result, value_at(t));
    if (to > horizon_) result = std::min(result, tail_);
    return result;
  }

  [[nodiscard]] std::int64_t max_in(Time from, Time to) const {
    std::int64_t result = value_at(from);
    for (Time t = from; t < std::min(to, horizon_); ++t)
      result = std::max(result, value_at(t));
    if (to > horizon_) result = std::max(result, tail_);
    return result;
  }

  [[nodiscard]] Time first_below(Time from, Time to,
                                 std::int64_t threshold) const {
    for (Time t = from; t < std::min(to, horizon_); ++t)
      if (value_at(t) < threshold) return t;
    if (to > horizon_ && tail_ < threshold) return std::max(from, horizon_);
    return kTimeInfinity;
  }

  [[nodiscard]] Time first_at_least(Time from, std::int64_t threshold) const {
    for (Time t = from; t < horizon_; ++t)
      if (value_at(t) >= threshold) return t;
    if (tail_ >= threshold) return std::max(from, horizon_);
    return kTimeInfinity;
  }

  [[nodiscard]] std::int64_t integral(Time from, Time to) const {
    std::int64_t area = 0;
    for (Time t = from; t < to; ++t) area += value_at(t);
    return area;
  }

  // Earliest t >= from whose window [t, t+len) never dips below threshold.
  // One right-to-left pass tracking the first deficient tick at or after
  // t, so a query costs O(horizon) whatever the answer's distance.
  [[nodiscard]] Time first_fit(Time from, Time len,
                               std::int64_t threshold) const {
    const bool tail_ok = tail_ >= threshold;
    if (from >= horizon_) return tail_ok ? from : kTimeInfinity;
    Time next_bad = tail_ok ? kTimeInfinity : horizon_;
    Time best = tail_ok ? horizon_ : kTimeInfinity;
    for (Time t = horizon_ - 1; t >= from; --t) {
      if (value_at(t) < threshold)
        next_bad = t;
      else if (next_bad - t >= len)
        best = t;
    }
    return best;
  }

 private:
  Time horizon_;
  std::vector<std::int64_t> ticks_;
  std::int64_t tail_;
};

// Segment-walk reference for time_to_accumulate: replays the documented
// positive-rate accumulation over the public segment list, independent of
// StepProfile's own scan.
Time ref_time_to_accumulate(const StepProfile& profile, Time from,
                            std::int64_t target) {
  if (target == 0) return from;
  std::int64_t remaining = target;
  for (const auto& segment : profile.segments()) {
    if (segment.end <= from) continue;
    const Time seg_start = std::max(segment.start, from);
    const std::int64_t rate = segment.value;
    if (rate > 0) {
      const Time needed = (remaining + rate - 1) / rate;
      if (segment.end >= kTimeInfinity || needed <= segment.end - seg_start)
        return needed >= kTimeInfinity - seg_start ? kTimeInfinity
                                                  : seg_start + needed;
      remaining -= rate * (segment.end - seg_start);
    }
  }
  return kTimeInfinity;
}

// ---------------------------------------------------------------------------
// StepProfile on wide, fragmented profiles.
// ---------------------------------------------------------------------------

TEST(PropIndexedProfile, WideProfilesMatchDenseModelThroughIncrementalIndex) {
  constexpr Time kHorizon = 4096;
  Prng prng(20260726);
  for (int round = 0; round < 8; ++round) {
    const std::int64_t initial = prng.uniform_int(0, 8);
    StepProfile profile(initial);
    DenseModel model(kHorizon, initial);
    for (int op = 0; op < 420; ++op) {
      // Mutation: mostly bounded windows, occasionally unbounded.
      Time a = prng.uniform_int(0, kHorizon - 1);
      Time b = prng.chance(0.05) ? kTimeInfinity
                                 : prng.uniform_int(1, kHorizon);
      if (b != kTimeInfinity && a > b) std::swap(a, b);
      if (a == b) b = a + 1;
      const std::int64_t delta = prng.uniform_int(-3, 3);
      profile.add(a, b, delta);
      model.add(a, b, delta);

      // One wide query (spans hundreds of segments) and one narrow query
      // per mutation, so every intermediate profile is checked.
      {
        const Time f = prng.uniform_int(0, kHorizon / 4);
        const Time t = prng.uniform_int(3 * kHorizon / 4, kHorizon + 64);
        ASSERT_EQ(profile.min_in(f, t), model.min_in(f, t))
            << "round " << round << " op " << op;
        ASSERT_EQ(profile.max_in(f, t), model.max_in(f, t));
        const std::int64_t threshold = prng.uniform_int(-2, 10);
        ASSERT_EQ(profile.first_below(f, t, threshold),
                  model.first_below(f, t, threshold))
            << "round " << round << " op " << op << " thr " << threshold;
        ASSERT_EQ(profile.first_at_least(f, threshold),
                  model.first_at_least(f, threshold));
        // Area queries over wide windows (values here go negative, so
        // time_to_accumulate must skip non-positive-rate stretches).
        ASSERT_EQ(profile.integral(f, t), model.integral(f, t))
            << "round " << round << " op " << op;
        const std::int64_t target = prng.uniform_int(0, 4000);
        ASSERT_EQ(profile.time_to_accumulate(f, target),
                  ref_time_to_accumulate(profile, f, target))
            << "round " << round << " op " << op << " target " << target;
      }
      {
        const Time f = prng.uniform_int(0, kHorizon - 2);
        const Time t = f + prng.uniform_int(1, 64);
        ASSERT_EQ(profile.min_in(f, t), model.min_in(f, t));
        const std::int64_t threshold = prng.uniform_int(-2, 10);
        ASSERT_EQ(profile.first_below(f, t, threshold),
                  model.first_below(f, t, threshold));
        ASSERT_EQ(profile.integral(f, t), model.integral(f, t));
      }
    }
    ASSERT_GT(profile.segment_count(), 256u)
        << "fuzz profile too small to exercise wide windows";
    ASSERT_NO_FATAL_FAILURE(ExpectCanonical(profile));
    for (Time t = 0; t <= kHorizon + 2; ++t)
      ASSERT_EQ(profile.value_at(t), model.value_at(t)) << "at t=" << t;
  }
}

TEST(PropIndexedProfile, MinMaxInUnboundedWindowsMatchOnIndexedProfiles) {
  constexpr Time kHorizon = 4096;
  Prng prng(99);
  StepProfile profile(5);
  DenseModel model(kHorizon, 5);
  for (int op = 0; op < 600; ++op) {
    const Time a = prng.uniform_int(0, kHorizon - 2);
    // Clamp to the horizon: the dense model cannot track mass landing in
    // (kHorizon, kTimeInfinity).
    const Time b = std::min(a + prng.uniform_int(1, 32), kHorizon);
    const std::int64_t delta = prng.uniform_int(-2, 2);
    profile.add(a, b, delta);
    model.add(a, b, delta);
  }
  ASSERT_GT(profile.segment_count(), 256u);
  for (int query = 0; query < 200; ++query) {
    const Time f = prng.uniform_int(0, kHorizon);
    ASSERT_EQ(profile.min_in(f, kTimeInfinity), model.min_in(f, kTimeInfinity));
    ASSERT_EQ(profile.max_in(f, kTimeInfinity), model.max_in(f, kTimeInfinity));
    const std::int64_t threshold = prng.uniform_int(-2, 10);
    ASSERT_EQ(profile.first_below(f, kTimeInfinity, threshold),
              model.first_below(f, kTimeInfinity, threshold));
  }
}

TEST(PropIndexedProfile, FirstAtLeastInsideLastSnapshotLeafWithLongTail) {
  // Query from far inside a fragmented profile while hundreds of segments
  // follow the start point: the answer lies hundreds of segments out, and the
  // search must run to the end of the function when nothing qualifies.
  StepProfile profile(1000);
  for (Time t = 0; t < 6000; t += 10) profile.add(t, t + 5, 1 + (t / 10) % 3);
  // ~580 more segment pairs in the tail [6100, 12000).
  for (Time t = 6100; t < 12000; t += 10) profile.add(t, t + 5, (t / 10) % 5);
  // The only capacity >= 1006 in the tail sits at t = 11990..11995
  // (1000 + 4 is the max of the periodic bumps; add a distinct spike).
  profile.add(11000, 11001, 500);
  EXPECT_EQ(profile.first_at_least(6050, 1400), 11000);
  EXPECT_EQ(profile.first_at_least(6050, 2000), kTimeInfinity);
  // Differential cross-check against a brute scan over the segment list.
  const auto segments = profile.segments();
  for (const std::int64_t threshold : {1001, 1003, 1004, 1400, 1501}) {
    Time expected = kTimeInfinity;
    for (const auto& segment : segments) {
      if (segment.end <= 6050 || segment.value < threshold) continue;
      expected = std::max<Time>(segment.start, 6050);
      break;
    }
    EXPECT_EQ(profile.first_at_least(6050, threshold), expected)
        << "threshold=" << threshold;
  }
}

TEST(PropIndexedProfile, TimeToAccumulateClampsThroughTheIndexedDescent) {
  // Pins the kTimeInfinity clamp after a long fragmented prefix: several
  // hundred segments precede a rate-1 tail on which near-ceiling targets
  // land "past any horizon".
  StepProfile profile(0);
  for (Time t = 0; t < 4000; t += 10) profile.add(t, t + 5, 1 + (t / 10) % 3);
  profile.add(4000, kTimeInfinity, 1);
  ASSERT_GT(profile.segment_count(), 256u);

  // Finite crossing just past the fragmented prefix.
  const std::int64_t prefix_area = profile.integral(0, 4000);
  EXPECT_EQ(profile.time_to_accumulate(0, prefix_area + 7), 4007);
  // Near-ceiling target over the rate-1 tail: clamps instead of overflowing.
  EXPECT_EQ(profile.time_to_accumulate(
                0, std::numeric_limits<std::int64_t>::max()),
            kTimeInfinity);
  // Exactly reaching the horizon is "never"; one tick earlier is finite.
  EXPECT_EQ(profile.time_to_accumulate(0, prefix_area + (kTimeInfinity - 4000)),
            kTimeInfinity);
  EXPECT_EQ(
      profile.time_to_accumulate(0, prefix_area + (kTimeInfinity - 4001)),
      kTimeInfinity - 1);
  // Cross-check both answers against the segment-walk reference.
  for (const std::int64_t target : {std::int64_t{1}, prefix_area,
                                    prefix_area + 12345}) {
    EXPECT_EQ(profile.time_to_accumulate(3, target),
              ref_time_to_accumulate(profile, 3, target))
        << "target=" << target;
  }
}

TEST(PropIndexedProfile, IntegralOverflowStillThrowsOnIndexedProfiles) {
  // Wide windows accumulate in 128 bits; results that do not fit int64
  // must still surface as std::overflow_error, profile intact.
  StepProfile profile(1'000'000'000'000ll);  // 1e12 per tick
  for (Time t = 0; t < 4000; t += 10) profile.add(t, t + 5, (t / 10) % 7);
  ASSERT_GT(profile.segment_count(), 256u);
  std::int64_t expected = 0;
  for (const auto& segment : profile.segments_in(0, 4000))
    expected += segment.value * (segment.end - segment.start);
  EXPECT_EQ(profile.integral(0, 4000), expected);
  EXPECT_THROW((void)profile.integral(0, kTimeInfinity - 1),
               std::overflow_error);
  ASSERT_NO_FATAL_FAILURE(ExpectCanonical(profile));
}

// ---------------------------------------------------------------------------
// add(): strong exception guarantee.
// ---------------------------------------------------------------------------

TEST(PropIndexedProfile, OverflowMidWindowLeavesProfileUntouchedAndCanonical) {
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max() - 2;
  StepProfile profile(0);
  profile.add(10, 20, 5);
  profile.add(20, 30, kHuge);
  const StepProfile snapshot = profile;
  // [20, 30) overflows; [0, 10) and [10, 20) were affected first. The seed
  // implementation applied partial deltas and left the split at t=30
  // unmerged; the strong guarantee requires a perfect rollback-free abort.
  EXPECT_THROW(profile.add(0, 40, 10), std::overflow_error);
  EXPECT_EQ(profile, snapshot);
  ASSERT_NO_FATAL_FAILURE(ExpectCanonical(profile));
  // The profile still answers queries correctly afterwards.
  EXPECT_EQ(profile.value_at(15), 5);
  EXPECT_EQ(profile.value_at(25), kHuge);
  EXPECT_EQ(profile.value_at(35), 0);
}

// ---------------------------------------------------------------------------
// FreeProfile differential fuzz on fragmented capacity profiles.
// ---------------------------------------------------------------------------

TEST(PropIndexedProfile, FreeProfileOpsMatchDenseModelAndKeepCanonicalForm) {
  constexpr Time kHorizon = 512;    // reservations live here
  constexpr Time kModelSpan = 8192; // commits may stack far beyond kHorizon
  Prng prng(4242);
  for (int round = 0; round < 25; ++round) {
    const ProcCount m = prng.uniform_int(8, 48);
    StepProfile capacity(m);
    DenseModel model(kModelSpan, m);
    const int carves = static_cast<int>(prng.uniform_int(200, 320));
    for (int i = 0; i < carves; ++i) {
      Time a = prng.uniform_int(0, kHorizon - 1);
      Time b = a + prng.uniform_int(1, 24);
      b = std::min(b, kHorizon);
      const std::int64_t room = capacity.min_in(a, b);
      if (room <= 0) continue;
      const std::int64_t carve = prng.uniform_int(1, room);
      capacity.add(a, b, -carve);
      model.add(a, b, -carve);
    }
    FreeProfile free(capacity);
    free.set_retain_accepted(true);

    struct Placed {
      Time t;
      ProcCount q;
      Time p;
      FreeProfile::Checkpoint before;  // taken just before the commit
    };
    std::vector<Placed> live;  // open recorded commits, oldest first
    for (int op = 0; op < 40; ++op) {
      const double roll = prng.uniform_real();
      if (roll < 0.5) {
        // Place a job at its earliest fit; differential + lemma checks.
        const ProcCount q = prng.uniform_int(1, m);
        const Time p = prng.chance(0.1) ? prng.uniform_int(64, 128)
                                        : prng.uniform_int(1, 24);
        const Time t0 = prng.uniform_int(0, kHorizon);
        const Time t = free.earliest_fit(t0, q, p);

        // Differential oracle: brute-force earliest fit over integer starts
        // (breakpoints are integral, so integer starts are exhaustive).
        Time brute = kTimeInfinity;
        for (Time s = t0; s + p < kModelSpan; ++s) {
          if (model.min_in(s, s + p) >= q) {
            brute = s;
            break;
          }
        }
        ASSERT_EQ(t, brute) << "t0=" << t0 << " q=" << q << " p=" << p;
        ASSERT_LT(t + p, kModelSpan) << "fuzz outgrew the dense model";
        // Candidate-start lemma on fragmented profiles.
        ASSERT_TRUE(t == t0 ||
                    free.profile().value_at(t) >
                        free.profile().value_at(t - 1))
            << "earliest_fit returned neither t0 nor a capacity-increase "
               "breakpoint (t0="
            << t0 << " t=" << t << ")";
        ASSERT_TRUE(free.fits_at(t, q, p));

        live.push_back(Placed{t, q, p, free.checkpoint()});
        free.commit_fitted(t, q, p);
        model.add(t, t + p, -q);
      } else if (roll < 0.75 && !live.empty()) {
        // Revoke the newest open commit (undo is LIFO by contract).
        const Placed job = live.back();
        live.pop_back();
        free.rewind_to(job.before);
        model.add(job.t, job.t + job.p, job.q);
      } else {
        // Pure queries.
        const Time t = prng.uniform_int(0, kHorizon);
        const ProcCount q = prng.uniform_int(1, m);
        const Time p = prng.uniform_int(1, 64);
        ASSERT_EQ(free.fits_at(t, q, p), model.min_in(t, t + p) >= q);
        ASSERT_EQ(free.profile().value_at(t), model.value_at(t));
        const Time f = prng.uniform_int(0, kHorizon / 2);
        const Time to = prng.uniform_int(kHorizon, 2 * kHorizon);
        ASSERT_EQ(free.profile().first_below(f, to, q),
                  model.first_below(f, to, q));
      }
      ASSERT_NO_FATAL_FAILURE(ExpectCanonical(free.profile()));
      ASSERT_GE(free.profile().min_value(), 0);
    }

    // Unwinding every open commit newest-first drains back to the starting
    // profile bit-identically.
    while (!live.empty()) {
      free.rewind_to(live.back().before);
      live.pop_back();
    }
    ASSERT_EQ(free.profile(), capacity);
  }
}

// ---------------------------------------------------------------------------
// first_fit: the forward walk.
// ---------------------------------------------------------------------------

// Coverage floor: an answer this many segments past t0 is a long walk.
constexpr std::size_t kLongWalk = 256;

// Index of the segment containing t in a segments() list.
std::size_t segment_index(const std::vector<StepProfile::Segment>& segments,
                          Time t) {
  const auto it = std::upper_bound(
      segments.begin(), segments.end(), t,
      [](Time x, const StepProfile::Segment& s) { return x < s.start; });
  return static_cast<std::size_t>(it - segments.begin()) - 1;
}

// A capacity-m profile over [0, horizon) in one of two shapes, mirrored
// into `model`: random short carves, or a train of deficient runs (each one
// to three segments below m/2) separated by full-capacity holes of 1-8
// ticks, so a wide job's first fit lies past hundreds of segments. Both get
// a sprinkle of small carves that fragment the holes further.
StepProfile fragmented_capacity(Prng& prng, ProcCount m, Time horizon,
                                bool hole_train, DenseModel& model) {
  StepProfile profile(m);
  const auto add = [&](Time a, Time b, std::int64_t delta) {
    profile.add(a, b, delta);
    model.add(a, b, delta);
  };
  if (hole_train) {
    Time x = prng.uniform_int(0, 64);
    const Time train_end = horizon - prng.uniform_int(200, 800);
    while (x < train_end) {
      const int pieces = static_cast<int>(prng.uniform_int(1, 3));
      for (int piece = 0; piece < pieces; ++piece) {
        const Time d = prng.uniform_int(1, 6);
        add(x, x + d, -prng.uniform_int(m - m / 2, m));
        x += d;
      }
      x += prng.uniform_int(1, 8);  // the hole
    }
  }
  const int carves = static_cast<int>(prng.uniform_int(150, 400));
  for (int i = 0; i < carves; ++i) {
    const Time a = prng.uniform_int(0, horizon - 2);
    const Time b = std::min(a + prng.uniform_int(1, 12), horizon);
    const std::int64_t room = profile.min_in(a, b);
    if (room <= 0) continue;
    add(a, b, -prng.uniform_int(1, std::min<std::int64_t>(room, 3)));
  }
  return profile;
}

TEST(PropIndexedProfile, FirstFitWalkMatchesDenseModel) {
  constexpr Time kHorizon = 8192;
  Prng prng(20261017);
  int far = 0;             // answer lies more than kLongWalk segments out
  int from_deficient = 0;  // search starts inside a deficient run
  int from_last = 0;       // search starts inside the last segment
  int on_breakpoint = 0;   // window ends on a breakpoint, deficient after
  int never = 0;           // no fit at all (threshold above every value)
  for (int round = 0; round < 24; ++round) {
    const ProcCount m = prng.uniform_int(8, 40);
    DenseModel model(kHorizon, m);
    const StepProfile capacity =
        fragmented_capacity(prng, m, kHorizon, round % 3 != 0, model);
    const auto segments = capacity.segments();
    ASSERT_GT(segments.size(), 300u) << "round " << round;
    const auto random_segment = [&] {
      return static_cast<std::size_t>(
          prng.uniform_int(0, static_cast<std::int64_t>(segments.size()) - 2));
    };
    FreeProfile free(capacity);

    for (int query = 0; query < 160; ++query) {
      ProcCount q = prng.chance(0.6) ? prng.uniform_int(m - m / 2 + 1, m)
                                     : prng.uniform_int(1, m);
      Time p = prng.chance(0.15) ? prng.uniform_int(64, 400)
                                 : prng.uniform_int(1, 48);
      Time t0 = prng.uniform_int(0, kHorizon);
      const double shape = prng.uniform_real();
      if (shape < 0.2) {
        // Start strictly inside (or at the left edge of) a deficient run.
        for (int attempt = 0; attempt < 32; ++attempt) {
          const std::size_t k = random_segment();
          if (segments[k].value >= q) continue;
          t0 = prng.uniform_int(segments[k].start, segments[k].end - 1);
          break;
        }
      } else if (shape < 0.3) {
        t0 = segments.back().start + prng.uniform_int(0, 50);
      } else if (shape < 0.5) {
        // A window that fits exactly from a segment start up to a later
        // breakpoint, followed by a deficient segment when possible: the
        // window's end must count as outside.
        const std::size_t a = random_segment();
        const std::size_t b = std::min(
            segments.size() - 1,
            a + static_cast<std::size_t>(prng.uniform_int(1, 300)));
        p = segments[b].start - segments[a].start;
        std::int64_t floor = segments[a].value;
        for (std::size_t k = a; k < b; ++k)
          floor = std::min(floor, segments[k].value);
        q = std::max<std::int64_t>(floor, 1);
        t0 = std::max<Time>(0, segments[a].start - prng.uniform_int(0, 40));
      }
      // A threshold above every value never fits.
      const std::int64_t threshold = prng.chance(0.05) ? m + 1 : q;

      const Time expected = model.first_fit(t0, p, threshold);
      const Time got = capacity.first_fit(t0, p, threshold);
      ASSERT_EQ(got, expected) << "round " << round << " query " << query
                               << " t0=" << t0 << " p=" << p
                               << " threshold=" << threshold;
      if (threshold > m) {
        ++never;
        continue;
      }
      ASSERT_NE(got, kTimeInfinity);
      ASSERT_EQ(free.earliest_fit(t0, q, p), got);
      ASSERT_TRUE(got == t0 || capacity.value_at(got) >
                                   capacity.value_at(got - 1))
          << "neither t0 nor a capacity-increase breakpoint";

      const std::size_t first = segment_index(segments, t0);
      const std::size_t lo = segment_index(segments, got);
      const std::size_t hi = segment_index(segments, got + p - 1);
      if (lo - first > kLongWalk) ++far;
      if (capacity.value_at(t0) < q) ++from_deficient;
      if (first + 1 == segments.size()) ++from_last;
      if (hi + 1 < segments.size() && segments[hi + 1].start == got + p &&
          segments[hi + 1].value < q)
        ++on_breakpoint;
    }
  }
  EXPECT_GT(far, 500);
  EXPECT_GT(from_deficient, 500);
  EXPECT_GT(from_last, 150);
  EXPECT_GT(on_breakpoint, 50);
  EXPECT_GT(never, 100);
}

TEST(PropIndexedProfile, FirstFitSweepMatchesDenseModel) {
  // 150 deficient runs with 5-tick holes ([0, 1500), 300 segments), a
  // 200-tick region alternating 9/10 every tick (200 segments), one more
  // deficient run at [1700, 1705), then 10 forever. Sweeping t0 over every
  // tick puts the answer anywhere from t0 itself to 500 segments out, and
  // p = 205 makes the fitting window end exactly on the breakpoint at 1700.
  constexpr Time kHorizon = 2048;
  DenseModel model(kHorizon, 10);
  StepProfile profile(10);
  const auto add = [&](Time a, Time b, std::int64_t delta) {
    profile.add(a, b, delta);
    model.add(a, b, delta);
  };
  for (Time t = 0; t < 1500; t += 10) add(t, t + 5, -10);
  for (Time t = 1500; t < 1700; t += 2) add(t, t + 1, -1);
  add(1700, 1705, -10);
  ASSERT_GT(profile.segment_count(), 500u);
  for (const std::int64_t q : {9, 10}) {
    for (const Time p : {6, 150, 204, 205, 206}) {
      for (Time t0 = 0; t0 <= 1720; ++t0) {
        ASSERT_EQ(profile.first_fit(t0, p, q), model.first_fit(t0, p, q))
            << "q=" << q << " p=" << p << " t0=" << t0;
      }
    }
  }
  EXPECT_EQ(profile.first_fit(0, 205, 9), 1495);
  EXPECT_EQ(profile.first_fit(0, 206, 9), 1705);
}

TEST(PropIndexedProfile, FirstFitWalksWithoutBuildingTheIndex) {
  // 1200 segments. Period-8 pattern: 4 ticks at 10, then 4 ticks at
  // 2 + (k % 3) -- deficient for q >= 5, with 4-tick holes.
  // One 5-tick hole, [800, 805), sits 200 segments out.
  StepProfile profile(10);
  for (Time t = 0; t < 4800; t += 8)
    profile.add(t + 4, t + 8, -8 + (t / 8) % 3);
  profile.add(804, 805, 7);
  ASSERT_GT(profile.segment_count(), 1000u);

  // Fits within the first hole, a few holes out, 200 segments out, or at a
  // window that spans 200 segments but fits at t0 (low threshold).
  EXPECT_EQ(profile.first_fit(0, 4, 5), 0);
  EXPECT_EQ(profile.first_fit(1, 4, 5), 8);
  EXPECT_EQ(profile.first_fit(2000, 3, 10), 2000);
  EXPECT_EQ(profile.first_fit(0, 800, 2), 0);
  // Threshold 3: only the every-third dips at 2 are deficient ([4, 8),
  // [28, 32), ...). Start inside one, and a window ending exactly on one.
  EXPECT_EQ(profile.first_fit(5, 8, 3), 8);
  EXPECT_EQ(profile.first_fit(8, 20, 3), 8);
  EXPECT_EQ(profile.first_fit(0, 5, 5), 800);
  for (Time t0 = 1000; t0 < 3000; t0 += 7)
    ASSERT_EQ(profile.first_fit(t0, 4, 10), t0 % 8 == 0 ? t0 : (t0 / 8 + 1) * 8)
        << "t0=" << t0;
  // Past the 5-tick hole, a 5-tick job's first fit lies after the
  // pattern, ~1000 segments out.
  EXPECT_EQ(profile.first_fit(801, 5, 5), 4800);
}

// ---------------------------------------------------------------------------
// Undo log: recorded add -> rollback differential fuzz vs a never-touched
// twin (segments AND every query answer must come back bit-identical).
// ---------------------------------------------------------------------------

TEST(PropIndexedProfile, RecordedAddRollbackMatchesNeverTouchedTwin) {
  constexpr Time kHorizon = 4096;
  Prng prng(20260727);
  for (int round = 0; round < 6; ++round) {
    const std::int64_t initial = prng.uniform_int(4, 12);
    StepProfile subject(initial);
    StepProfile twin(initial);
    DenseModel model(kHorizon, initial);
    // Fragment both identically; the twin never sees a recorded add.
    for (int i = 0; i < 500; ++i) {
      const Time a = prng.uniform_int(0, kHorizon - 2);
      const Time b = a + prng.uniform_int(1, 24);
      const std::int64_t delta = prng.uniform_int(-2, 3);
      subject.add(a, b, delta);
      twin.add(a, b, delta);
      model.add(a, b, delta);
    }
    ASSERT_GT(subject.segment_count(), 256u);
    ASSERT_EQ(subject.min_in(0, kTimeInfinity), twin.min_in(0, kTimeInfinity));

    const auto expect_observably_identical = [&](int episode) {
      ASSERT_EQ(subject, twin) << "segments diverged, episode " << episode;
      for (int query = 0; query < 6; ++query) {
        const Time f = prng.uniform_int(0, kHorizon / 2);
        const Time t = prng.chance(0.25)
                           ? kTimeInfinity
                           : prng.uniform_int(3 * kHorizon / 4, kHorizon + 64);
        ASSERT_EQ(subject.min_in(f, t), twin.min_in(f, t));
        ASSERT_EQ(subject.max_in(f, t), twin.max_in(f, t));
        const std::int64_t threshold = prng.uniform_int(-2, 14);
        ASSERT_EQ(subject.first_below(f, t, threshold),
                  twin.first_below(f, t, threshold));
        ASSERT_EQ(subject.first_at_least(f, threshold),
                  twin.first_at_least(f, threshold));
        if (t < kTimeInfinity) {
          ASSERT_EQ(subject.integral(f, t), twin.integral(f, t));
        }
        const std::int64_t target = prng.uniform_int(0, 4000);
        ASSERT_EQ(subject.time_to_accumulate(f, target),
                  twin.time_to_accumulate(f, target));
      }
    };

    for (int episode = 0; episode < 60; ++episode) {
      // Stack up to 4 recorded adds (nested, the backtracking shape),
      // querying the subject against the dense model while they are live,
      // then unwind newest-first.
      struct Recorded {
        Time a;
        Time b;
        std::int64_t delta;
        StepProfile::Undo undo;
      };
      std::vector<Recorded> stack;
      const int depth = static_cast<int>(prng.uniform_int(1, 4));
      for (int level = 0; level < depth; ++level) {
        Recorded rec;
        rec.a = prng.uniform_int(0, kHorizon - 2);
        // Occasionally an unbounded window: the kTimeInfinity clamp of the
        // right edge must survive recording and rollback.
        rec.b = prng.chance(0.15) ? kTimeInfinity
                                  : rec.a + prng.uniform_int(1, 64);
        rec.delta = prng.uniform_int(-3, 3);
        subject.add_recorded(rec.a, rec.b, rec.delta, rec.undo);
        model.add(rec.a, rec.b, rec.delta);
        ASSERT_EQ(rec.undo.live(), rec.delta != 0);
        stack.push_back(std::move(rec));

        // Wide query while tentative state is live.
        const Time f = prng.uniform_int(0, kHorizon / 2);
        const Time t = prng.uniform_int(3 * kHorizon / 4, kHorizon + 64);
        ASSERT_EQ(subject.min_in(f, t), model.min_in(f, t))
            << "round " << round << " episode " << episode;
        const std::int64_t threshold = prng.uniform_int(-2, 14);
        ASSERT_EQ(subject.first_below(f, t, threshold),
                  model.first_below(f, t, threshold));
      }
      while (!stack.empty()) {
        Recorded rec = std::move(stack.back());
        stack.pop_back();
        if (rec.undo.live()) subject.rollback(rec.undo);
        model.add(rec.a, rec.b, -rec.delta);
        ASSERT_FALSE(rec.undo.live());
      }
      ASSERT_NO_FATAL_FAILURE(ExpectCanonical(subject));
      if (episode % 10 == 0) {
        ASSERT_NO_FATAL_FAILURE(expect_observably_identical(episode));
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_observably_identical(-1));
  }
}

TEST(PropIndexedProfile, RollbackOutOfOrderTripsOnOverlapOnly) {
  StepProfile profile(10);
  for (Time t = 0; t < 2000; t += 10) profile.add(t, t + 5, (t / 10) % 4);

  // Non-overlapping recorded adds may unwind in any order.
  const StepProfile base = profile;
  StepProfile::Undo left;
  StepProfile::Undo right;
  profile.add_recorded(100, 200, -3, left);
  profile.add_recorded(1000, 1100, -2, right);
  profile.rollback(left);
  profile.rollback(right);
  EXPECT_EQ(profile, base);

  // Overlapping ones must unwind newest-first; reversing the older one
  // while the newer is live would corrupt the function, so it trips.
  StepProfile::Undo older;
  StepProfile::Undo newer;
  profile.add_recorded(100, 300, -1, older);
  profile.add_recorded(250, 400, -1, newer);
  EXPECT_THROW(profile.rollback(older), std::logic_error);
  // A failed rollback consumes nothing and mutates nothing: unwind the
  // blocking mutation and the older record works again.
  EXPECT_TRUE(older.live());
  profile.rollback(newer);
  profile.rollback(older);
  EXPECT_EQ(profile, base);

  // A dead record cannot roll back.
  EXPECT_THROW(profile.rollback(newer), std::logic_error);
}

TEST(PropIndexedProfile, RollbackTripsOnBoundaryInterferenceInsteadOfCorrupting) {
  // The checked state of a record is slightly wider than its mutation
  // window: the closed region [window_lo, to] plus the left neighbour's
  // value. Window-disjoint later mutations that touch only those
  // boundaries must trip the rollback loudly -- the alternative is a
  // silently non-canonical (or wrong) splice.

  {
    // A later add whose right edge coalesces across the record's
    // window_lo boundary: without the recorded-left-value anchor the
    // replay would accept and splice back an adjacent-equal pair.
    StepProfile profile(5);
    profile.add(50, kTimeInfinity, 4);   // {0:5},{50:9}
    profile.add(100, kTimeInfinity, -2); // {0:5},{50:9},{100:7}
    StepProfile::Undo undo;
    profile.add_recorded(150, 200, -2, undo);  // window_lo = 100
    profile.add(50, 100, -2);  // {50:7} now coalesces with {100:7}
    EXPECT_THROW(profile.rollback(undo), std::logic_error);
    EXPECT_TRUE(undo.live());
    // Unwind the interference and the record works again, canonically.
    profile.add(50, 100, 2);
    profile.rollback(undo);
    EXPECT_EQ(profile.value_at(160), 7);
    EXPECT_EQ(profile.segment_count(), 3u);
  }

  {
    // A later add starting exactly at the record's `to`: it shifts the
    // region's trailing piece, so the record is blocked until it unwinds.
    StepProfile profile(9);
    StepProfile::Undo undo;
    profile.add_recorded(150, 200, -2, undo);
    profile.add(200, 300, -1);
    EXPECT_THROW(profile.rollback(undo), std::logic_error);
    EXPECT_TRUE(undo.live());
    profile.add(200, 300, 1);
    profile.rollback(undo);
    EXPECT_EQ(profile, StepProfile(9));
  }

  {
    // A later add ending at the record's window_lo that changes the left
    // neighbour to the region's original leading value: splicing would
    // recreate an adjacent-equal pair, so it must trip.
    StepProfile profile(5);
    profile.add(100, kTimeInfinity, -2);  // {0:5},{100:3}
    StepProfile::Undo undo;
    profile.add_recorded(100, 200, -1, undo);  // {0:5},{100:2},{200:3}
    profile.add(0, 100, -2);                   // left neighbour 5 -> 3
    EXPECT_THROW(profile.rollback(undo), std::logic_error);
    profile.add(0, 100, 2);
    profile.rollback(undo);
    EXPECT_EQ(profile.value_at(150), 3);
  }
}

}  // namespace
}  // namespace resched
