// StepProfile: an integer-valued piecewise-constant function of time on
// [0, +infinity).
//
// This is the single data structure underneath everything in resched:
// unavailability U(t), availability m(t) = m - U(t), schedule usage r(t) and
// the schedulers' free-capacity view all are StepProfiles. It supports point
// queries, range addition, windowed minima, area integrals and breakpoint
// iteration.
//
// Representation: a SegStore -- two parallel flat arrays (starts, values)
// sorted by start with small-buffer inline storage (core/seg_store.hpp); the
// value holds from its start (inclusive) to the next start (exclusive); the
// last segment extends to +infinity. Invariants: the first start is 0, and
// adjacent segments have distinct values (canonical form), so operator==
// means pointwise function equality. The SoA layout keeps the binary
// searches on a contiguous start array and the scan-heavy value walks on a
// contiguous value array; profiles of up to SegStore::kInlineSegments
// segments never touch the heap.
//
// Windowed queries (min_in, max_in, first_below, first_at_least, first_fit,
// integral, time_to_accumulate) are exact linear scans from index_of(from):
// one binary search on the start array, then a contiguous walk over the
// value array. Holding no cache, the profile mutates nothing in a const
// method, so any number of threads may read one profile concurrently while
// none writes it (standard-library container rules) -- which is what lets
// CampaignRunner share one generated instance across its worker threads.
//
// add() provides the strong exception guarantee: it validates every affected
// segment's checked addition before the first structural change, so an
// overflowing add throws with the profile (and its canonical form) intact.
//
// Transactional mutation (undo log): add_recorded() performs an add and
// fills an opaque Undo record with the touched region -- the segments that
// existed over [window, to] before the add. rollback() then restores the
// region with a single splice in O(touched), *without* re-running add's
// probe/split/coalesce machinery, after verifying against a replay of the
// add that it really is reversing that mutation (a stale or out-of-order
// rollback trips RESCHED_CHECK instead of silently corrupting the
// function). A tentative probe sequence (add_recorded -> queries ->
// rollback) is therefore structurally net-zero. Undo records unwind
// newest-first (strict nesting, the shape backtracking search and tentative
// probes produce). Records whose *checked state* -- the closed region
// [window_lo, to] plus the value of the step immediately left of it -- was
// not touched by any still-live later mutation may also unwind out of
// order; anything else trips the rollback check. Note the checked state is
// slightly wider than the mutation window [from, to): a later add that
// merely coalesces across this record's region boundary, or shifts the
// region's trailing piece at `to`, blocks this record until it unwinds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/seg_store.hpp"
#include "core/types.hpp"

namespace resched {

class StepProfile {
 public:
  struct Segment {
    Time start;  // inclusive
    Time end;    // exclusive; kTimeInfinity for the last segment
    std::int64_t value;
    friend bool operator==(const Segment&, const Segment&) = default;
  };

  // Constant function with the given value everywhere.
  explicit StepProfile(std::int64_t initial_value = 0);

  // Copy is hand-written only for version() semantics: a copy starts a new
  // history at version 0, and copy assignment counts as a mutation of the
  // target. Moves carry the version.
  StepProfile(const StepProfile& other) : steps_(other.steps_) {}
  StepProfile& operator=(const StepProfile& other) {
    steps_ = other.steps_;
    ++version_;
    return *this;
  }
  StepProfile(StepProfile&&) noexcept = default;
  StepProfile& operator=(StepProfile&&) noexcept = default;

  [[nodiscard]] std::int64_t value_at(Time t) const;

  // Adds delta on [from, to); no-op when from >= to. Times must be >= 0.
  // Strong exception guarantee: throws std::overflow_error with the profile
  // unchanged when any affected segment's value would overflow.
  void add(Time from, Time to, std::int64_t delta);

  // Opaque undo record for one recorded add (see the transactional-mutation
  // notes in the header comment). Default-constructed records are dead;
  // add_recorded arms them, rollback (or a fresh add_recorded) spends them.
  // Copy/move keep the usual value semantics; destroying a live record
  // simply makes its mutation permanent.
  class Undo {
   public:
    Undo() = default;
    [[nodiscard]] bool live() const noexcept { return live_; }

   private:
    friend class StepProfile;
    Time from_ = 0;
    Time to_ = 0;
    std::int64_t delta_ = 0;
    Time window_lo_ = 0;          // start of the segment containing from_
    // Value of the step left of window_lo_ at record time (valid iff
    // window_lo_ > 0). Anchors the coalesce replay in rollback(): if a
    // later mutation changed it, the rollback trips instead of splicing a
    // non-canonical (or wrong) region back.
    std::int64_t left_value_ = 0;
    bool live_ = false;
    // The steps that covered [window_lo_, to_] before the add -- everything
    // the add could touch. The post-state is not stored: rollback replays
    // the add's transformation of these few steps to verify it is reversing
    // the right mutation, which keeps the recording cost on the (hot,
    // usually accepted) commit path to one small copy. A SegStore: undo
    // windows are nearly always a handful of segments, so the record stays
    // entirely inline (no heap traffic on the probe path).
    SegStore steps_;
  };

  // add() that additionally fills `undo` so rollback() can revert it in
  // O(touched). Reuses undo's buffer capacity, so a caller cycling one
  // record through a probe loop allocates only on its first (or widest)
  // commit. Same strong exception guarantee as add(): on overflow, throws
  // with the profile unchanged and `undo` left dead.
  void add_recorded(Time from, Time to, std::int64_t delta, Undo& undo);

  // Reverts the recorded add: splices the prior segments back (O(touched)
  // plus the vector shift), after RESCHED_CHECK-ing that the current
  // region still matches the recorded post-state -- reversing anything
  // other than the newest overlapping mutation is a caller bug, surfaced
  // loudly instead of corrupting the function.
  void rollback(Undo& undo);

  // Always 0: the profile builds no query index. Kept only because the
  // end-to-end benchmark driver still reports it as
  // core.index_builds_per_call; the accessor and that metric go together at
  // the next change to the benchmark.
  [[nodiscard]] std::uint64_t index_build_count() const noexcept { return 0; }

  // Heap blocks the segment store has allocated (diagnostic: copies start at
  // zero, moves carry the count; probe loops on a warmed profile must keep
  // this flat). The thread-local resched::alloc_count() sees the same events
  // plus everything else.
  [[nodiscard]] std::uint64_t alloc_count() const noexcept {
    return steps_.alloc_count();
  }

  // Monotone mutation version: incremented by every successful state change
  // (add, add_recorded, rollback, compact_before, copy assignment). The O(1)
  // checkpoint primitive of the incremental-replan layer: two equal versions
  // of one live object guarantee no mutation happened in between, so a
  // caller holding a version can tell whether its derived state (plans,
  // deltas, caches) is still current without comparing segments. Copies
  // start at zero (a copy is a new history); moves carry the version.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  // Collapses every segment boundary strictly before t into one leading
  // segment carrying value_at(t); the function on [t, +inf) is unchanged,
  // the function on [0, t) is rewritten to the constant value_at(t). For
  // callers that advance a clock monotonically and never query the past
  // again (the resident service profile): dead history otherwise accumulates
  // one segment per completed job forever. Returns the number of segments
  // removed.
  std::size_t compact_before(Time t);

  // Minimum value over the window [from, to); requires from < to.
  [[nodiscard]] std::int64_t min_in(Time from, Time to) const;
  // Maximum value over the window [from, to); requires from < to.
  [[nodiscard]] std::int64_t max_in(Time from, Time to) const;

  // Earliest t in [from, to) with value_at(t) < threshold, or kTimeInfinity
  // if the window never dips below the threshold. Core query of the
  // earliest-fit search.
  [[nodiscard]] Time first_below(Time from, Time to,
                                 std::int64_t threshold) const;

  // Earliest t >= from with value_at(t) >= threshold, or kTimeInfinity.
  [[nodiscard]] Time first_at_least(Time from, std::int64_t threshold) const;

  // Earliest t >= from with min over [t, t+len) >= threshold, or
  // kTimeInfinity; requires len > 0 (window ends go through checked_add).
  // The earliest-fit search behind FreeProfile::earliest_fit: one forward
  // walk over the segments from index_of(from), in which a dip in the
  // cursor's window becomes the cursor and the end of the deficient run
  // after it becomes the next candidate. It visits each segment between
  // from and the answer's window end once, O(1) each.
  [[nodiscard]] Time first_fit(Time from, Time len,
                               std::int64_t threshold) const;

  // Smallest breakpoint strictly greater than t, or kTimeInfinity if the
  // function is constant after t.
  [[nodiscard]] Time next_change_after(Time t) const;

  // Integral of the function over [from, to); throws std::overflow_error
  // when the (exact, 128-bit-accumulated) result does not fit in int64.
  // Requires from <= to and to < kTimeInfinity.
  [[nodiscard]] std::int64_t integral(Time from, Time to) const;

  // Earliest T >= from such that integral(from, T) >= target (target >= 0),
  // where non-positive-rate stretches contribute nothing (the callers'
  // profiles -- capacities, availabilities -- are non-negative, and a
  // work-area target can never be paid off by negative rate). Unreachable
  // targets are reported as kTimeInfinity; a crossing past the int64 range
  // clamps to kTimeInfinity instead of overflowing.
  [[nodiscard]] Time time_to_accumulate(Time from, std::int64_t target) const;

  // True if the function never increases / never decreases over [0, +inf).
  [[nodiscard]] bool is_non_increasing() const noexcept;
  [[nodiscard]] bool is_non_decreasing() const noexcept;

  [[nodiscard]] std::int64_t min_value() const noexcept;
  [[nodiscard]] std::int64_t max_value() const noexcept;
  // Value of the unbounded final segment.
  [[nodiscard]] std::int64_t final_value() const noexcept;
  // Number of maximal constant segments (>= 1).
  [[nodiscard]] std::size_t segment_count() const noexcept;

  // All maximal segments, in order; the last has end == kTimeInfinity.
  [[nodiscard]] std::vector<Segment> segments() const;
  // Segments clipped to [from, to).
  [[nodiscard]] std::vector<Segment> segments_in(Time from, Time to) const;

  // Pointwise combination: this + other, this - other.
  [[nodiscard]] StepProfile plus(const StepProfile& other) const;
  [[nodiscard]] StepProfile minus(const StepProfile& other) const;

  // Pointwise function equality (canonical form makes it structural on the
  // segment vector; the version is explicitly not compared).
  friend bool operator==(const StepProfile& a, const StepProfile& b) {
    return a.steps_ == b.steps_;
  }

 private:
  // 128-bit accumulator for integral(): products value * span are exact,
  // and their partial sums can exceed 64 bits long before the final result
  // does.
  using Wide = __int128;

  // Sorted by start; start(0) == 0; adjacent values distinct.
  SegStore steps_;
  // Mutation version (see version()). Plain integer: every increment site
  // requires exclusive access to the profile already.
  std::uint64_t version_ = 0;

  // Position of the segment containing t (t >= 0).
  [[nodiscard]] std::size_t index_of(Time t) const noexcept;
  // Ensures a breakpoint exists exactly at t; returns its index.
  std::size_t split_at(Time t);
  // Erases the step at index i if it duplicates its left neighbour's value.
  void coalesce_at(std::size_t i);
  // Shared body of add()/add_recorded(); undo == nullptr means unrecorded.
  void add_impl(Time from, Time to, std::int64_t delta, Undo* undo);

  // The linear scans behind the windowed queries (exact over [from, to)
  // clipped to the function). Each takes the precomputed i = index_of(from).
  [[nodiscard]] std::int64_t scan_min_at(std::size_t i, Time to) const;
  [[nodiscard]] std::int64_t scan_max_at(std::size_t i, Time to) const;
  [[nodiscard]] Time scan_first_below_at(std::size_t i, Time from, Time to,
                                         std::int64_t threshold) const;
  [[nodiscard]] Time scan_first_at_least_at(std::size_t i, Time from,
                                            std::int64_t threshold) const;
  // Exact 128-bit integral over [from, to); clears `ok` on 128-bit overflow
  // instead of wrapping.
  [[nodiscard]] Wide scan_integral_at(std::size_t i, Time from, Time to,
                                      bool& ok) const;
  // Exact positive-rate accumulation across steps_[i..) from `cursor` until
  // `remaining` is paid off. Returns the crossing time, or kTimeInfinity
  // when an all-deficient tail is reached first. This is the single place
  // the ceil_div crossing rule and the near-infinity clamp live.
  [[nodiscard]] Time scan_accumulate(std::size_t i, Time cursor,
                                     std::int64_t remaining) const;
};

}  // namespace resched
