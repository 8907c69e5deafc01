// FreeProfile: the schedulers' mutable view of remaining capacity.
//
// Starts from the instance's availability m(t) = m - U(t) and is decremented
// as jobs are committed. All list/backfilling algorithms are expressed with
// these operations:
//
//   fits_at(t, q, p)        -- can a (q, p) job run in [t, t+p)?
//   earliest_fit(t0, q, p)  -- first start >= t0 where it can (read only),
//   place(t0, q, p)         -- allocate it at that start, and return it,
//   commit_fitted(t, q, p)  -- allocate it at a start already known to fit,
//   at(t)                   -- a pass cursor: reads, tests and allocations
//                              at one instant t (FreeProfile::Cursor).
//
// Protocol: a scheduler that puts a job at its earliest fit calls place --
// FCFS, conservative backfilling and compaction do, in the batch and the
// service paths alike. The event-loop schedulers, LSRC and EASY, start
// jobs only at the pass instant t, so a pass opens a cursor at t and does
// everything at t through it: the capacity at t, the per-demand deadlines
// F(q) and D(q), EASY's head test and its head reservation, and every
// start. Branch-and-bound commits through commit_fitted after reading
// earliest_fit. earliest_fit serves the other callers that only read:
// lower bounds and bnb's prune.
//
// Candidate-start lemma (used by earliest_fit and by LSRC's event loop):
// for fixed committed capacity, the set {t : fits_at(t, q, p)} is a finite
// union of left-closed intervals whose left endpoints are either t0 or
// *capacity-increase breakpoints* of the profile. Proof sketch: fits_at
// fails iff the window [t, t+p) meets a deficient segment (capacity < q);
// sliding t right past a deficient segment first becomes possible exactly at
// the segment's right edge, which is a breakpoint where capacity rises.
// Hence earliest_fit only ever returns t0 or an increase breakpoint, and a
// scheduler that re-examines its queue at capacity-increase events (job
// completions, reservation ends) never misses a feasible start. It is also
// why the walk behind StepProfile::first_fit, which earliest_fit shares,
// may jump from a dip straight to the end of its deficient run.
//
// Complexity, for a profile of n segments:
//
//   fits_at       -- one binary search, then an O(window) scan that stops
//                    at the first deficient segment.
//   earliest_fit  -- one binary search, then one forward walk (the one
//                    behind StepProfile::first_fit) that visits each segment
//                    between t0 and the answer's window end once, O(1) each.
//   place         -- earliest_fit's search and walk, then the subtraction
//                    from the indices the walk ends on
//                    (StepProfile::take_first_fit): one binary search in
//                    all, no overflow probe, plus the memmoves of at most
//                    two edge splits and two coalesces.
//   commit_fitted -- StepProfile::add: one binary search, an O(window)
//                    overflow probe that also finds the window's right
//                    edge, and the same edge memmoves.
//   at(t)         -- one binary search; the pass's only one. From the
//                    index it holds, capacity() is O(1); fit_deadline and
//                    backfill_deadline walk forward from t to the first
//                    dip, O(segments before it); try_take walks the window
//                    once to test and locate it, take walks it with no
//                    test and no overflow probe, and both then pay the
//                    edge memmoves; earliest_fit is earliest_fit's walk
//                    without the search. Each take leaves the cursor on
//                    the segment containing t (StepProfile::shift_window
//                    returns it).
//
// A caller that takes work back -- bnb on backtrack, the resident service
// when churn drops its plan -- returns the occupancy by value through
// adjust_capacity(from, to, +q). Additions commute and a canonical
// StepProfile is unique for its function, so returns restore the profile
// bit for bit, in any order.
#pragma once

#include <cstdint>

#include "core/instance.hpp"
#include "core/step_profile.hpp"
#include "util/require.hpp"

namespace resched {

// A blocked job's reservation in an EASY pass: demand q over [start, end).
struct HeadReservation {
  ProcCount q;
  Time start;
  Time end;
};

class FreeProfile {
 public:
  class Cursor;

  // View over an explicit capacity profile (must be non-negative).
  explicit FreeProfile(StepProfile free_capacity);

  // Capacity view of an instance before any job is placed.
  [[nodiscard]] static FreeProfile for_instance(const Instance& instance);

  // True iff min capacity over [t, t+p) is >= q. p > 0, q >= 1, t >= 0.
  [[nodiscard]] bool fits_at(Time t, ProcCount q, Time p) const;

  // Smallest t >= t0 with fits_at(t, q, p). Always terminates: requires
  // q <= final free capacity (capacity after every reservation and committed
  // job has ended), which holds for any valid job of the instance.
  [[nodiscard]] Time earliest_fit(Time t0, ProcCount q, Time p) const;

  // Earliest-fit placement: subtracts q over [t, t+p) at t =
  // earliest_fit(t0, q, p) and returns t, with one walk over the profile
  // (see the complexity notes). Same preconditions as earliest_fit.
  Time place(Time t0, ProcCount q, Time p);

  // Subtracts q over [t, t+p) for callers that decided t themselves -- a
  // start just read from earliest_fit (bnb) or an explicit fits_at: the
  // precondition fits_at(t, q, p) holds by construction, so its recheck is
  // a Debug-only RESCHED_ASSERT; misuse is still caught downstream by
  // Schedule::validate and the campaign oracle. (LSRC and EASY start jobs
  // through their pass cursor's take instead.)
  void commit_fitted(Time t, ProcCount q, Time p);

  // Opens a pass at instant t: locates t once (the pass's only binary
  // search) and returns the cursor that reads, tests and takes at t from
  // that index. t >= 0.
  [[nodiscard]] Cursor at(Time t);

  // Capacity change (a job starting for real; churn events:
  // cancellation refunds, availability drops, reservation moves; a dropped
  // plan's occupancy coming back; bnb's backtrack). delta < 0 withdraws
  // capacity over [from, to), delta > 0 restores it. Withdrawals require
  // that the window can afford it (min capacity over the window stays
  // >= 0).
  void adjust_capacity(Time from, Time to, std::int64_t delta);

  // Forwards StepProfile::compact_before: coalesces dead history strictly
  // before t (the service loop's monotone clock). Returns the number of
  // segments removed.
  std::size_t compact_history(Time t);

  // Always 0: FreeProfile keeps no frames. Kept only because
  // e2ebench/resched_e2e.cpp still reports it as core.frames_per_call; the
  // accessor and that metric go together at the next change to the
  // benchmark.
  [[nodiscard]] std::size_t open_commits() const noexcept { return 0; }

  [[nodiscard]] const StepProfile& profile() const noexcept {
    return profile_;
  }

 private:
  // earliest_fit from index = index_of(t0), known to the caller.
  [[nodiscard]] Time earliest_fit_from(std::size_t index, Time t0,
                                       ProcCount q, Time p) const;

  StepProfile profile_;
};

// A pass's view of a FreeProfile at one fixed instant t: t and the index
// of the segment that contains it, kept current across the cursor's own
// takes (StepProfile::shift_window returns it). Every operation starts
// from that index, so none of them searches. Any mutation of the profile
// other than the cursor's own takes invalidates the cursor; in Debug, a
// later use trips RESCHED_ASSERT (the cursor stamps the profile version).
class FreeProfile::Cursor {
 public:
  // Index of the segment that contains t (diagnostic).
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

  // Free capacity at t, O(1).
  [[nodiscard]] ProcCount capacity() const {
    check_current();
    return free_->profile_.steps_.value(index_);
  }

  // F(q): the earliest instant in [t, t + w) at which the capacity drops
  // below q, or kTimeInfinity; w > 0. A demand-q job with p <= w fits at t
  // iff t + p <= F(q): F is the first dip of the wider window, so no dip
  // before t + p means no dip in [t, t + p). A finite F is the first dip
  // after t outright, so it then decides jobs of every duration.
  [[nodiscard]] Time fit_deadline(ProcCount q, Time w) const;

  // D(q) = min(F(q), G(q)) for EASY's backfill at t with `head` blocked
  // (head.start > t), G(q) being the first dip below head.q + q in the
  // head's window up to the latest end min(F, t + w) of a fitting job: a
  // demand-q job with p <= w starts at t iff t + p <= D(q), i.e. iff it
  // fits at t and committing it keeps the head fitting at head.start. A D
  // below t + w is exact for every duration. Read in one forward walk from
  // t that stops at the first point below q, or the first point inside
  // the head's window below head.q + q. Derivation in easy_bf.cpp.
  [[nodiscard]] Time backfill_deadline(ProcCount q, Time w,
                                       const HeadReservation& head) const;

  // If a (q, p) job fits at t, subtracts it over [t, t + p) and returns
  // true; else returns false with the profile untouched. One walk over the
  // window both tests and locates it.
  [[nodiscard]] bool try_take(ProcCount q, Time p);

  // Subtracts a (q, p) job over [t, t + p) that a deadline already admitted
  // (fits at t holds by construction; a Debug-only RESCHED_ASSERT rechecks
  // it). No search and no overflow probe: every value in the window is
  // >= q > 0.
  void take(ProcCount q, Time p);

  // FreeProfile::earliest_fit(t, q, p), walked from the cursor's index.
  [[nodiscard]] Time earliest_fit(ProcCount q, Time p) const;

 private:
  friend class FreeProfile;
  Cursor(FreeProfile& free, Time t, std::size_t index)
      : free_(&free), t_(t), index_(index),
        version_(free.profile_.version()) {}

  // Debug: the profile is still the one the cursor located t on.
  void check_current() const {
    RESCHED_ASSERT(free_->profile_.version() == version_);
  }
  // Re-locates after a take of the cursor's own.
  void took(std::size_t index) {
    index_ = index;
    version_ = free_->profile_.version();
  }

  FreeProfile* free_;
  Time t_;
  std::size_t index_;        // index_of(t_) on the current profile
  std::uint64_t version_;    // profile version index_ was located on
};

}  // namespace resched
