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
// value array. The private walks take that index as an argument, and a
// mutation at a located window (shift_window) returns the new index of
// its start, so FreeProfile's pass cursor can read, test and subtract at
// one instant many times on one search. Holding no cache, the profile
// mutates nothing in a const method, so any number of threads may read
// one profile concurrently while none writes it (standard-library
// container rules) -- which is what lets CampaignRunner share one
// generated instance across its worker threads.
//
// add() provides the strong exception guarantee: it validates every affected
// segment's checked addition before the first structural change, so an
// overflowing add throws with the profile (and its canonical form) intact.
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

  // Adds delta on [from, to); no-op when from >= to. Times must be >= 0;
  // to >= kTimeInfinity means "from `from` onwards". Strong exception
  // guarantee: throws std::overflow_error with the profile unchanged when
  // any affected segment's value would overflow. O(log n) for the one
  // binary search locating `from`, plus O(window) for the validation walk,
  // which stops at the first step at or after `to` and so also locates the
  // right edge, plus the memmoves of at most two edge splits and two edge
  // coalesces.
  void add(Time from, Time to, std::int64_t delta);

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
  // (add, take_first_fit, a cursor's take, compact_before, copy
  // assignment). Two equal versions of one live object guarantee no
  // mutation happened in between, so a caller holding a version (a
  // FreeProfile pass cursor, EASY's head-reservation cache) can tell
  // whether its derived state is still current without comparing
  // segments. Copies start at zero (a copy is a new history); moves carry
  // the version.
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
  // from and the answer's window end once, O(1) each. No scheduler calls
  // it: take_first_fit and FreeProfile::Cursor run the same walk
  // (find_fit) and mutate. It is kept as that walk's read-only oracle
  // surface: test_prop_indexed_profile checks it against a dense model,
  // query by query, so a walk bug shows without a take in the way.
  [[nodiscard]] Time first_fit(Time from, Time len,
                               std::int64_t threshold) const;

  // first_fit(from, len, amount) followed by add(t, t + len, -amount) at
  // the start t it finds, in the same walk: the walk already holds the
  // window's first and last segment, so the subtraction needs neither a
  // second binary search nor add's overflow probe (every value in the
  // window is >= amount > 0). Returns t. Requires amount > 0 and
  // final_value() >= amount, which guarantee that a start exists.
  Time take_first_fit(Time from, Time len, std::int64_t amount);

  // Smallest breakpoint strictly greater than t, or kTimeInfinity if the
  // function is constant after t.
  [[nodiscard]] Time next_change_after(Time t) const;

  // Integral of the function over [from, to); throws std::overflow_error
  // when the (exact, 128-bit-accumulated) result does not fit in int64.
  // Requires from <= to and to < kTimeInfinity. No scheduler calls it. It
  // is kept as an oracle: test_availability checks available_area and the
  // idle-area metrics against it, and bench_profile_ops sizes
  // BM_TimeToAccumulate's target with it and times its scan
  // (BM_ProfileIntegral).
  [[nodiscard]] std::int64_t integral(Time from, Time to) const;

  // Earliest T >= from such that integral(from, T) >= target (target >= 0),
  // where non-positive-rate stretches contribute nothing (the callers'
  // profiles -- capacities, availabilities -- are non-negative, and a
  // work-area target can never be paid off by negative rate). Unreachable
  // targets are reported as kTimeInfinity; a crossing past the int64 range
  // clamps to kTimeInfinity instead of overflowing.
  [[nodiscard]] Time time_to_accumulate(Time from, std::int64_t target) const;

  // True if the function never increases over [0, +inf).
  [[nodiscard]] bool is_non_increasing() const noexcept;

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

  // FreeProfile::Cursor, a pass's view of the profile at one instant,
  // works from the index it located through the index-taking primitives
  // below (find_fit, scan_first_below_at, scan_backfill_deadline_at,
  // take_at, try_take_at).
  friend class FreeProfile;

  // Sorted by start; start(0) == 0; adjacent values distinct.
  SegStore steps_;
  // Mutation version (see version()). Plain integer: every increment site
  // requires exclusive access to the profile already.
  std::uint64_t version_ = 0;

  // Position of the segment containing t (t >= 0).
  [[nodiscard]] std::size_t index_of(Time t) const noexcept;
  // Erases the step at index i if it duplicates its left neighbour's value.
  void coalesce_at(std::size_t i);
  // The structural half of an add of delta over [from, to), from < to, on
  // a window already located: lo = index_of(from) and hi = the first index
  // past lo whose start is >= to (size() if none). Splits the two edges,
  // shifts, coalesces. The caller has
  // validated every shifted value. Returns index_of(from) of the mutated
  // profile: lo + 1 when `from` split its segment, else lo -- one lower
  // in either case when the shifted window coalesces into its left
  // neighbour -- so a caller that keeps working at `from` needs no second
  // search.
  std::size_t shift_window(std::size_t lo, std::size_t hi, Time from, Time to,
                           std::int64_t delta);

  // A first-fit window [start, end) over steps [lo, hi) in shift_window's
  // terms; found is false when the unbounded tail is deficient.
  struct FitWindow {
    Time start = 0;
    Time end = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
    bool found = false;
  };
  // The forward walk behind first_fit, take_first_fit and FreeProfile's
  // earliest_fit (its own and its cursor's), started from
  // j = index_of(from): the caller located it, with one binary search or
  // from an index it already holds.
  [[nodiscard]] FitWindow find_fit(std::size_t j, Time from, Time len,
                                   std::int64_t threshold) const;

  // The cursor's start tests and takes at `from`, given i = index_of(from)
  // and from < to (see FreeProfile::Cursor).
  //
  // D = min(F, G) in one forward walk: F is the first point of [from, to)
  // below `threshold`, G the first point of [from, to) inside
  // [head_start, head_end) below `head_threshold`; kTimeInfinity if
  // neither exists. The walk stops at the first of them, or at `to`.
  [[nodiscard]] Time scan_backfill_deadline_at(
      std::size_t i, Time from, Time to, std::int64_t threshold,
      Time head_start, Time head_end, std::int64_t head_threshold) const;
  // Subtracts amount over [from, to), known to hold values >= amount > 0:
  // walks to the window's right edge and shifts, with no search and no
  // overflow probe. Returns the new index_of(from).
  std::size_t take_at(std::size_t i, Time from, Time to, std::int64_t amount);
  // take_at if every value over [from, to) is >= amount > 0, found in the
  // same walk; kNoFit, with the profile untouched, if one is not.
  static constexpr std::size_t kNoFit = static_cast<std::size_t>(-1);
  std::size_t try_take_at(std::size_t i, Time from, Time to,
                          std::int64_t amount);

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
