// Property test of the candidate-start lemma in profile_allocator.hpp.
//
// The lemma: for fixed committed capacity, earliest_fit(t0, q, p) always
// returns either t0 itself or a *capacity-increase breakpoint* of the free
// profile, and it is genuinely the earliest feasible start (no t in
// [t0, result) fits). Schedulers lean on this to only re-examine queues at
// capacity-increase events, so a counterexample here is a missed-start bug
// in every list/backfilling algorithm at once.
//
// Also checks that recorded commits rewind to the bit-identical profile,
// which is what branch-and-bound backtracking assumes (undo is LIFO by
// contract: checkpoints rewind newest-first), and that the schedulers'
// read-only start tests -- the per-demand deadlines behind LSRC's and
// EASY's passes, read by FreeProfile::Cursor -- agree with committing and
// re-querying, and with their definitions as two windowed searches.
#include "core/profile_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algorithms/backfill_queue.hpp"
#include "core/step_profile.hpp"
#include "util/checked.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

constexpr Time kHorizon = 160;

// Random non-negative capacity profile: m processors minus random
// reservations, never dipping below zero, tail capacity m.
StepProfile random_capacity(Prng& prng, ProcCount m) {
  StepProfile profile(m);
  const int reservations = static_cast<int>(prng.uniform_int(0, 24));
  for (int i = 0; i < reservations; ++i) {
    Time a = prng.uniform_int(0, kHorizon - 1);
    Time b = prng.uniform_int(1, kHorizon);
    if (a > b) std::swap(a, b);
    if (a == b) b = a + 1;
    const std::int64_t room = profile.min_in(a, b);
    if (room <= 0) continue;
    profile.add(a, b, -prng.uniform_int(1, room));
  }
  return profile;
}

bool is_capacity_increase_breakpoint(const StepProfile& profile, Time t) {
  if (t <= 0) return false;
  return profile.value_at(t) > profile.value_at(t - 1);
}

TEST(FreeProfileLemma, EarliestFitReturnsT0OrCapacityIncreaseBreakpoint) {
  Prng prng(1718);
  for (int round = 0; round < 200; ++round) {
    const ProcCount m = prng.uniform_int(1, 8);
    const FreeProfile free(random_capacity(prng, m));
    for (int query = 0; query < 16; ++query) {
      const Time t0 = prng.uniform_int(0, kHorizon);
      const ProcCount q = prng.uniform_int(1, m);
      const Time p = prng.uniform_int(1, 40);
      const Time t = free.earliest_fit(t0, q, p);

      // The result is feasible...
      ASSERT_TRUE(free.fits_at(t, q, p))
          << "t0=" << t0 << " q=" << q << " p=" << p << " -> t=" << t;
      // ...and it is t0 or an increase breakpoint (the lemma).
      ASSERT_TRUE(t == t0 || is_capacity_increase_breakpoint(free.profile(), t))
          << "earliest_fit returned t=" << t
          << " which is neither t0=" << t0
          << " nor a capacity-increase breakpoint";
      // ...and nothing earlier fits (brute force over integer starts; all
      // breakpoints are integers, so integer starts are exhaustive).
      ASSERT_LE(t, kHorizon + 1) << "fit must exist by the tail";
      for (Time s = t0; s < t; ++s)
        ASSERT_FALSE(free.fits_at(s, q, p))
            << "earliest_fit skipped feasible start s=" << s << " (t0=" << t0
            << " q=" << q << " p=" << p << " returned t=" << t << ")";
    }
  }
}

TEST(FreeProfileLemma, RecordedCommitsRewindToIdenticalProfile) {
  Prng prng(9091);
  for (int round = 0; round < 120; ++round) {
    const ProcCount m = prng.uniform_int(2, 8);
    FreeProfile free(random_capacity(prng, m));
    free.set_retain_accepted(true);
    const StepProfile snapshot = free.profile();

    // Stack a random batch of recorded commits at their earliest fits, one
    // checkpoint before each (exactly the branch-and-bound shape), then
    // rewind newest-first; the profile must come back bit-identical.
    std::vector<FreeProfile::Checkpoint> placed;
    const int jobs = static_cast<int>(prng.uniform_int(1, 10));
    for (int i = 0; i < jobs; ++i) {
      const ProcCount q = prng.uniform_int(1, m);
      const Time p = prng.uniform_int(1, 30);
      const Time t0 = prng.uniform_int(0, kHorizon);
      if (free.profile().final_value() < q) continue;
      const Time t = free.earliest_fit(t0, q, p);
      placed.push_back(free.checkpoint());
      free.commit_fitted(t, q, p);
    }
    ASSERT_GE(free.profile().min_value(), 0)
        << "commit drove free capacity negative";
    ASSERT_EQ(free.open_commits(), placed.size());

    while (!placed.empty()) {
      free.rewind_to(placed.back());
      placed.pop_back();
      ASSERT_EQ(free.open_commits(), placed.size());
    }
    ASSERT_EQ(free.profile(), snapshot)
        << "recorded commits did not round-trip";
  }
}

TEST(FreeProfileLemma, CommitThenRequeryNeverFindsEarlierStart) {
  // Monotonicity under commitment: committing jobs can only delay (never
  // advance) the earliest fit of another job.
  Prng prng(5555);
  for (int round = 0; round < 100; ++round) {
    const ProcCount m = prng.uniform_int(2, 6);
    FreeProfile free(random_capacity(prng, m));
    const ProcCount q = prng.uniform_int(1, m);
    const Time p = prng.uniform_int(1, 25);
    const Time before = free.earliest_fit(0, q, p);

    const ProcCount cq = prng.uniform_int(1, m);
    const Time cp = prng.uniform_int(1, 25);
    const Time ct = free.earliest_fit(prng.uniform_int(0, kHorizon), cq, cp);
    free.commit_fitted(ct, cq, cp);

    const Time after = free.earliest_fit(0, q, p);
    ASSERT_GE(after, before);
  }
}

// F(q) and D(q) as defined, with two windowed searches each: the oracles
// for FreeProfile::Cursor's one-walk reads.
Time fit_deadline_oracle(const StepProfile& free, Time t, ProcCount q,
                         Time w) {
  return free.first_below(t, checked_add(t, w), q);
}

Time backfill_deadline_oracle(const StepProfile& free, Time t, ProcCount q,
                              Time w, const HeadReservation& head) {
  const Time fit = fit_deadline_oracle(free, t, q, w);
  // Jobs that fit end by min(fit, t + w), so only dips of the head's window
  // before that matter; when it is at or before head.start the window is
  // empty and G is free.
  const Time last_end = std::min(fit, checked_add(t, w));
  if (last_end <= head.start) return fit;
  return std::min(fit, free.first_below(head.start,
                                        std::min(head.end, last_end),
                                        checked_add(head.q, q)));
}

// EASY's verdict for a candidate (q, p) at t with the head blocked and
// reserved at head.start, computed the slow way: the candidate fits, and
// committing it on a copy leaves the head's earliest start where it was.
bool easy_admits(const FreeProfile& free, Time t, ProcCount q, Time p,
                 const HeadReservation& head) {
  if (!free.fits_at(t, q, p)) return false;
  FreeProfile committed(free.profile());
  committed.commit_fitted(t, q, p);
  return committed.earliest_fit(t, head.q, head.end - head.start) ==
         head.start;
}

TEST(FreeProfileLemma, BackfillDeadlineMatchesFitAndHeadCheck) {
  // The schedulers' one-deadline-per-demand test (algorithms/
  // backfill_queue.hpp), as the pass cursor reads it and as the oracles
  // define it: read over a window w, for every p <= w,
  // t + p <= F(q) iff the job fits at t, and t + p <= D(q) = min(F, G) iff
  // it fits and does not push the blocked head back; and a deadline below
  // t + w is the one an unbounded window reads (the exactness the queue's
  // skip relies on). G reads the uncommitted profile against
  // head.q + q where the commit would leave head.q, so this also pins that
  // read-only identity. Checked over a (q, p) grid -- q past the capacity
  // at t, p past the head's end -- on random fragmented profiles
  // (reservations plus committed jobs) with the head from earliest_fit,
  // against committing on a copy and re-running earliest_fit.
  Prng prng(9090);
  int ends_at_head_start = 0;
  int past_head_end = 0;
  int f_infinite = 0;
  int g_infinite = 0;
  int over_capacity = 0;
  int admitted = 0;
  int refused_by_head = 0;
  int exact_below_window = 0;
  for (int round = 0; round < 150; ++round) {
    const ProcCount m = prng.uniform_int(2, 8);
    FreeProfile free(random_capacity(prng, m));
    for (int placed = static_cast<int>(prng.uniform_int(0, 4)); placed > 0;
         --placed) {
      const ProcCount q = prng.uniform_int(1, m);
      const Time p = prng.uniform_int(1, 30);
      if (free.profile().final_value() < q) continue;
      free.commit_fitted(free.earliest_fit(prng.uniform_int(0, kHorizon), q, p),
                         q, p);
    }
    for (int query = 0; query < 4; ++query) {
      const Time t = prng.uniform_int(0, kHorizon);
      const ProcCount head_q = prng.uniform_int(1, m);
      const Time head_p = prng.uniform_int(1, 40);
      if (free.profile().final_value() < head_q) continue;
      if (free.fits_at(t, head_q, head_p)) continue;
      const Time head_start = free.earliest_fit(t, head_q, head_p);
      ASSERT_GT(head_start, t);
      const HeadReservation head{head_q, head_start, head_start + head_p};
      const Time grid_p = head.end - t + 8;
      const Time unbounded = 4 * kHorizon;
      const FreeProfile::Cursor at = free.at(t);
      for (ProcCount q = 1; q <= m + 1; ++q) {
        const Time w = prng.chance(0.5) ? grid_p : prng.uniform_int(1, grid_p);
        const Time f = at.fit_deadline(q, w);
        const Time d = at.backfill_deadline(q, w, head);
        ASSERT_EQ(f, fit_deadline_oracle(free.profile(), t, q, w));
        ASSERT_EQ(d, backfill_deadline_oracle(free.profile(), t, q, w, head))
            << "t=" << t << " q=" << q << " w=" << w;
        if (f < t + w) {
          ASSERT_EQ(f, at.fit_deadline(q, unbounded));
        }
        if (d < t + w) {
          ASSERT_EQ(d, at.backfill_deadline(q, unbounded, head));
          ++exact_below_window;
        }
        if (f == kTimeInfinity) ++f_infinite;
        if (f > head.start &&
            free.profile().first_below(head.start, head.end, head.q + q) ==
                kTimeInfinity)
          ++g_infinite;
        if (q > at.capacity()) ++over_capacity;
        for (Time p = 1; p <= w; ++p) {
          const bool fits = free.fits_at(t, q, p);
          const bool admits = easy_admits(free, t, q, p, head);
          ASSERT_EQ(t + p <= f, fits)
              << "t=" << t << " q=" << q << " p=" << p << " F=" << f;
          ASSERT_EQ(t + p <= d, admits)
              << "t=" << t << " head=(" << head.q << "," << head_p << ") at "
              << head.start << " q=" << q << " p=" << p << " D=" << d;
          ASSERT_EQ(p <= deadline_limit(d, t), admits);
          if (admits && t + p == head.start) ++ends_at_head_start;
          if (fits && t + p > head.end) ++past_head_end;
          if (admits) ++admitted;
          else if (fits) ++refused_by_head;
        }
      }
    }
  }
  // Every boundary the derivation leans on was exercised.
  EXPECT_GT(ends_at_head_start, 10);
  EXPECT_GT(past_head_end, 10);
  EXPECT_GT(f_infinite, 10);
  EXPECT_GT(g_infinite, 10);
  EXPECT_GT(over_capacity, 10);
  EXPECT_GT(admitted, 100);
  EXPECT_GT(refused_by_head, 100);
  EXPECT_GT(exact_below_window, 100);
}

TEST(FreeProfileLemma, EarliestFitRejectsImpossibleJobs) {
  StepProfile capacity(4);
  capacity.add(10, 20, -4);  // full blackout window
  const FreeProfile free(capacity);
  // q above the eventual free capacity violates the precondition.
  EXPECT_THROW((void)free.earliest_fit(0, 5, 1), std::invalid_argument);
  // A job that straddles the blackout must wait for its end (a
  // capacity-increase breakpoint, per the lemma).
  EXPECT_EQ(free.earliest_fit(5, 1, 10), 20);
  // A job that fits before the blackout starts at t0.
  EXPECT_EQ(free.earliest_fit(0, 4, 10), 0);
}

}  // namespace
}  // namespace resched
