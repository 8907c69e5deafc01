#include "core/step_profile.hpp"

#include <algorithm>
#include <limits>

#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

namespace {

// 128-bit checked helpers for integral(). A single int64 * int64 product
// always fits (|v| * |len| < 2^126), so only additions can overflow; they
// report it instead of wrapping.
using Wide = __int128;

[[nodiscard]] bool wide_add(Wide& a, Wide b) noexcept {
  return !__builtin_add_overflow(a, b, &a);
}

Wide wide_mul(std::int64_t a, Time b) noexcept {
  return static_cast<Wide>(a) * static_cast<Wide>(b);
}

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

}  // namespace

StepProfile::StepProfile(std::int64_t initial_value) {
  steps_.push_back(Time{0}, initial_value);
}

std::size_t StepProfile::index_of(Time t) const noexcept {
  // Last index whose start is <= t; the front start of 0 and t >= 0 make the
  // "- 1" safe.
  return steps_.upper_bound_start(t) - 1;
}

std::int64_t StepProfile::value_at(Time t) const {
  RESCHED_REQUIRE_MSG(t >= 0, "profile queried at negative time");
  return steps_.value(index_of(t));
}

void StepProfile::coalesce_at(std::size_t i) {
  if (i == 0 || i >= steps_.size()) return;
  if (steps_.value(i) == steps_.value(i - 1)) steps_.erase(i);
}

void StepProfile::add(Time from, Time to, std::int64_t delta) {
  RESCHED_REQUIRE_MSG(from >= 0, "profile add with negative start");
  if (from >= to || delta == 0) return;
  // Strong exception guarantee: probe every affected segment's checked
  // addition before the first structural change. Without this, an overflow
  // mid-window would throw with partial deltas applied and the split
  // breakpoints uncoalesced -- a silently non-canonical profile. The probe
  // stops at the first step at or after `to`, which is the window's right
  // edge: one binary search locates the whole window. [from, kTimeInfinity)
  // means "from `from` onwards", so such a window runs to the last step.
  const std::size_t lo = index_of(from);
  const bool unbounded = to >= kTimeInfinity;
  std::size_t hi = lo;
  for (; hi < steps_.size() && (unbounded || steps_.start(hi) < to); ++hi)
    (void)checked_add(steps_.value(hi), delta);
  shift_window(lo, hi, from, to, delta);
}

std::size_t StepProfile::shift_window(std::size_t lo, std::size_t hi,
                                      Time from, Time to,
                                      std::int64_t delta) {
  // Finite windows split at `to` unless a step already starts there;
  // [from, kTimeInfinity) shifts everything from `from` on.
  const bool unbounded = to >= kTimeInfinity;
  if (unbounded) hi = steps_.size();
  const bool split_right =
      !unbounded && (hi == steps_.size() || steps_.start(hi) != to);
  // The segment hi - 1 contains `to` when a split is needed there.
  if (split_right) steps_.insert(hi, to, steps_.value(hi - 1));
  std::size_t first = lo;
  std::size_t last = hi;
  if (steps_.start(lo) != from) {
    steps_.insert(lo + 1, from, steps_.value(lo));
    first = lo + 1;
    ++last;
  }
  // Validated by the caller: the split pieces carry the values it checked.
  for (std::size_t i = first; i < last; ++i) steps_.add_value(i, delta);
  // Interior neighbours shifted by the same delta stay distinct, so only the
  // two window edges can need merging. Right edge first: erasing there does
  // not move `first`. `first` starts at `from`; if it merges left, the
  // neighbour that absorbs it now contains `from`.
  coalesce_at(last);
  if (first > 0 && steps_.value(first) == steps_.value(first - 1))
    steps_.erase(first--);
  ++version_;
  return first;
}

std::size_t StepProfile::compact_before(Time t) {
  RESCHED_REQUIRE_MSG(t >= 0, "compact_before with negative time");
  const std::size_t i = index_of(t);
  if (i == 0) return 0;
  // The suffix [i, ...) already starts with the segment containing t;
  // promoting it to cover [0, t) keeps canonical form (its value differs
  // from its right neighbour's by the invariant on steps_).
  steps_.erase(0, i);
  steps_.set_start(0, 0);
  ++version_;
  return i;
}

// ---------------------------------------------------------------------------
// Linear scans behind the windowed queries. Each hoists the SoA value array
// once and streams it contiguously -- the scan-heavy walks this layout
// exists for.
// ---------------------------------------------------------------------------

std::int64_t StepProfile::scan_min_at(std::size_t i, Time to) const {
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  std::int64_t result = values[i];
  for (++i; i < steps_.size() && times[i] < to; ++i)
    result = std::min(result, values[i]);
  return result;
}

std::int64_t StepProfile::scan_max_at(std::size_t i, Time to) const {
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  std::int64_t result = values[i];
  for (++i; i < steps_.size() && times[i] < to; ++i)
    result = std::max(result, values[i]);
  return result;
}

Time StepProfile::scan_first_below_at(std::size_t i, Time from, Time to,
                                      std::int64_t threshold) const {
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  if (values[i] < threshold) return from;
  for (++i; i < steps_.size() && times[i] < to; ++i)
    if (values[i] < threshold) return times[i];
  return kTimeInfinity;
}

Time StepProfile::scan_first_at_least_at(std::size_t i, Time from,
                                         std::int64_t threshold) const {
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  if (values[i] >= threshold) return from;
  for (++i; i < steps_.size(); ++i)
    if (values[i] >= threshold) return times[i];
  return kTimeInfinity;
}

StepProfile::Wide StepProfile::scan_integral_at(std::size_t i, Time from,
                                                Time to, bool& ok) const {
  Wide area = 0;
  Time cursor = from;
  while (cursor < to) {
    const Time seg_end =
        (i + 1 < steps_.size()) ? std::min(steps_.start(i + 1), to) : to;
    // resched-lint: time-arith-audited(wide_add/wide_mul detect 128-bit overflow here)
    if (!wide_add(area, wide_mul(steps_.value(i), seg_end - cursor)))
      ok = false;
    cursor = seg_end;
    ++i;
  }
  return area;
}

Time StepProfile::scan_accumulate(std::size_t i, Time cursor,
                                  std::int64_t remaining) const {
  while (true) {
    const Time seg_end =
        (i + 1 == steps_.size()) ? kTimeInfinity : steps_.start(i + 1);
    const std::int64_t rate = steps_.value(i);
    if (rate > 0) {
      const Time needed = ceil_div(remaining, rate);
      // resched-lint: time-arith-audited(seg_end < kTimeInfinity here; the span fits int64)
      if (seg_end >= kTimeInfinity || needed <= seg_end - cursor) {
        // cursor + needed can exceed INT64_MAX (e.g. target near the int64
        // ceiling over a rate-1 tail); mathematically that is simply "past
        // any horizon", so clamp instead of tripping the overflow check.
        // resched-lint: time-arith-audited(guarded by this very kTimeInfinity comparison)
        return needed >= kTimeInfinity - cursor ? kTimeInfinity
        // resched-lint: time-arith-audited(reached only when needed < kTimeInfinity - cursor)
                                                : cursor + needed;
      }
      // Never overflows: the subtraction only runs when rate * len <
      // remaining <= INT64_MAX (a crossing segment returned above).
      // resched-lint: time-arith-audited(rate * span < remaining <= INT64_MAX on this branch)
      remaining -= checked_mul(rate, seg_end - cursor);
    }
    if (seg_end >= kTimeInfinity) return kTimeInfinity;  // deficient tail
    cursor = seg_end;
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Windowed queries.
// ---------------------------------------------------------------------------

std::int64_t StepProfile::min_in(Time from, Time to) const {
  RESCHED_REQUIRE_MSG(from < to, "empty window in min_in");
  RESCHED_REQUIRE(from >= 0);
  return scan_min_at(index_of(from), to);
}

std::int64_t StepProfile::max_in(Time from, Time to) const {
  RESCHED_REQUIRE_MSG(from < to, "empty window in max_in");
  RESCHED_REQUIRE(from >= 0);
  return scan_max_at(index_of(from), to);
}

Time StepProfile::first_below(Time from, Time to,
                              std::int64_t threshold) const {
  RESCHED_REQUIRE(from >= 0);
  if (from >= to) return kTimeInfinity;
  return scan_first_below_at(index_of(from), from, to, threshold);
}

Time StepProfile::first_at_least(Time from, std::int64_t threshold) const {
  RESCHED_REQUIRE(from >= 0);
  return scan_first_at_least_at(index_of(from), from, threshold);
}

StepProfile::FitWindow StepProfile::find_fit(std::size_t j, Time from,
                                             Time len,
                                             std::int64_t threshold) const {
  RESCHED_REQUIRE(from >= 0 && len > 0);
  RESCHED_ASSERT(j == index_of(from));
  // One forward walk: the cursor t is always a candidate start (from, or
  // the right edge of a deficient run) and every start before it is known
  // not to fit. A dip in t's window becomes the cursor; skipping the
  // deficient run lands on the next candidate, a capacity-increase
  // breakpoint. Every segment is visited at most once.
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  const std::size_t n = steps_.size();
  Time t = from;
  while (true) {
    const Time end = checked_add(t, len);
    if (values[j] >= threshold) {
      const std::size_t lo = j;
      for (++j; j < n && times[j] < end && values[j] >= threshold; ++j) {
      }
      if (j == n || times[j] >= end) return FitWindow{t, end, lo, j, true};
    }
    for (++j; j < n && values[j] < threshold; ++j) {
    }
    if (j == n) return FitWindow{};  // the unbounded tail is deficient
    t = times[j];
  }
}

Time StepProfile::first_fit(Time from, Time len,
                            std::int64_t threshold) const {
  RESCHED_REQUIRE(from >= 0);
  const FitWindow fit = find_fit(index_of(from), from, len, threshold);
  return fit.found ? fit.start : kTimeInfinity;
}

Time StepProfile::take_first_fit(Time from, Time len, std::int64_t amount) {
  RESCHED_REQUIRE(amount > 0);
  RESCHED_REQUIRE_MSG(final_value() >= amount,
                      "take_first_fit: the unbounded tail is below amount");
  RESCHED_REQUIRE(from >= 0);
  const FitWindow fit = find_fit(index_of(from), from, len, amount);
  // A window starting in the unbounded last segment always fits.
  RESCHED_CHECK_MSG(fit.found, "take_first_fit found no start");
  // Every value over the window is >= amount > 0, so subtracting amount
  // cannot overflow: no probe.
  (void)shift_window(fit.lo, fit.hi, fit.start, fit.end, -amount);
  return fit.start;
}

Time StepProfile::scan_backfill_deadline_at(std::size_t i, Time from,
                                            Time to, std::int64_t threshold,
                                            Time head_start, Time head_end,
                                            std::int64_t head_threshold) const {
  RESCHED_ASSERT(i == index_of(from) && from < to);
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  const std::size_t n = steps_.size();
  // Segment i covers [at, next); every point before `at` is above both
  // thresholds where they apply, so the first point found is the minimum
  // of F and G. F, if the segment is below threshold, is `at` itself; G
  // is the segment's first point inside the head's window.
  Time at = from;
  while (true) {
    if (values[i] < threshold) return at;
    const Time next = i + 1 < n ? times[i + 1] : kTimeInfinity;
    if (values[i] < head_threshold) {
      const Time g = std::max(at, head_start);
      if (g < next && g < head_end && g < to) return g;
    }
    if (++i == n || times[i] >= to) return kTimeInfinity;
    at = times[i];
  }
}

std::size_t StepProfile::take_at(std::size_t i, Time from, Time to,
                                 std::int64_t amount) {
  RESCHED_ASSERT(i == index_of(from) && from < to && amount > 0);
  RESCHED_ASSERT(scan_min_at(i, to) >= amount);
  const Time* times = steps_.times_data();
  const std::size_t n = steps_.size();
  std::size_t hi = i + 1;
  for (; hi < n && times[hi] < to; ++hi) {
  }
  return shift_window(i, hi, from, to, -amount);
}

std::size_t StepProfile::try_take_at(std::size_t i, Time from, Time to,
                                     std::int64_t amount) {
  RESCHED_ASSERT(i == index_of(from) && from < to && amount > 0);
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  const std::size_t n = steps_.size();
  // Segment i starts at or before from < to, so it is in the window.
  std::size_t hi = i;
  for (; hi < n && times[hi] < to; ++hi)
    if (values[hi] < amount) return kNoFit;
  return shift_window(i, hi, from, to, -amount);
}

Time StepProfile::next_change_after(Time t) const {
  RESCHED_REQUIRE(t >= 0);
  const std::size_t i = index_of(t);
  return i + 1 < steps_.size() ? steps_.start(i + 1) : kTimeInfinity;
}

std::int64_t StepProfile::integral(Time from, Time to) const {
  RESCHED_REQUIRE(from >= 0 && from <= to);
  RESCHED_REQUIRE_MSG(to < kTimeInfinity, "integral over unbounded window");
  bool ok = true;
  const Wide area = scan_integral_at(index_of(from), from, to, ok);
  if (!ok || area > static_cast<Wide>(kInt64Max) ||
      area < static_cast<Wide>(kInt64Min))
    throw std::overflow_error("profile integral overflows int64");
  return static_cast<std::int64_t>(area);
}

Time StepProfile::time_to_accumulate(Time from, std::int64_t target) const {
  RESCHED_REQUIRE(from >= 0 && target >= 0);
  if (target == 0) return from;
  return scan_accumulate(index_of(from), from, target);
}

bool StepProfile::is_non_increasing() const noexcept {
  const std::int64_t* values = steps_.values_data();
  for (std::size_t i = 1; i < steps_.size(); ++i)
    if (values[i] > values[i - 1]) return false;
  return true;
}

std::int64_t StepProfile::min_value() const noexcept {
  const std::int64_t* values = steps_.values_data();
  std::int64_t result = values[0];
  for (std::size_t i = 1; i < steps_.size(); ++i)
    result = std::min(result, values[i]);
  return result;
}

std::int64_t StepProfile::max_value() const noexcept {
  const std::int64_t* values = steps_.values_data();
  std::int64_t result = values[0];
  for (std::size_t i = 1; i < steps_.size(); ++i)
    result = std::max(result, values[i]);
  return result;
}

std::int64_t StepProfile::final_value() const noexcept {
  return steps_.back_value();
}

std::size_t StepProfile::segment_count() const noexcept {
  return steps_.size();
}

std::vector<StepProfile::Segment> StepProfile::segments() const {
  std::vector<Segment> out;
  out.reserve(steps_.size());
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Time end =
        (i + 1 < steps_.size()) ? steps_.start(i + 1) : kTimeInfinity;
    out.push_back(Segment{steps_.start(i), end, steps_.value(i)});
  }
  return out;
}

std::vector<StepProfile::Segment> StepProfile::segments_in(Time from,
                                                           Time to) const {
  RESCHED_REQUIRE(from >= 0 && from <= to);
  std::vector<Segment> out;
  if (from == to) return out;
  std::size_t i = index_of(from);
  Time cursor = from;
  while (cursor < to && i < steps_.size()) {
    const Time seg_end =
        (i + 1 < steps_.size()) ? std::min(steps_.start(i + 1), to) : to;
    out.push_back(Segment{cursor, seg_end, steps_.value(i)});
    cursor = seg_end;
    ++i;
  }
  return out;
}

}  // namespace resched
