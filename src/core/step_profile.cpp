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

std::size_t StepProfile::split_at(Time t) {
  const std::size_t i = index_of(t);
  if (steps_.start(i) == t) return i;
  steps_.insert(i + 1, t, steps_.value(i));
  return i + 1;
}

void StepProfile::coalesce_at(std::size_t i) {
  if (i == 0 || i >= steps_.size()) return;
  if (steps_.value(i) == steps_.value(i - 1)) steps_.erase(i);
}

void StepProfile::add(Time from, Time to, std::int64_t delta) {
  add_impl(from, to, delta, nullptr);
}

void StepProfile::add_recorded(Time from, Time to, std::int64_t delta,
                               Undo& undo) {
  add_impl(from, to, delta, &undo);
}

void StepProfile::add_impl(Time from, Time to, std::int64_t delta,
                           Undo* undo) {
  RESCHED_REQUIRE_MSG(from >= 0, "profile add with negative start");
  if (undo != nullptr) {
    // Disarm first: on a no-op or a thrown overflow the record stays dead.
    undo->live_ = false;
    undo->steps_.clear();
  }
  if (from >= to || delta == 0) return;
  // Strong exception guarantee: probe every affected segment's checked
  // addition before the first structural change. Without this, an overflow
  // mid-window would throw with partial deltas applied and the split
  // breakpoints uncoalesced -- a silently non-canonical profile.
  const std::size_t region = index_of(from);
  for (std::size_t i = region; i < steps_.size() && steps_.start(i) < to; ++i)
    (void)checked_add(steps_.value(i), delta);
  if (undo != nullptr) {
    // Everything the add can touch -- value shifts, the two edge splits and
    // the two edge coalesces -- lives in the steps whose start falls in
    // [window_lo, to], where window_lo is the start of the segment
    // containing `from`; steps outside stay bit-identical. Record them.
    undo->from_ = from;
    undo->to_ = to;
    undo->delta_ = delta;
    undo->window_lo_ = steps_.start(region);
    undo->left_value_ = region > 0 ? steps_.value(region - 1) : 0;
    const std::size_t prior_end =
        (to >= kTimeInfinity) ? steps_.size() : index_of(to) + 1;
    undo->steps_.assign_range(steps_, region, prior_end);
  }
  // split_at(from), with the binary search already paid for by the probe.
  std::size_t first = region;
  if (steps_.start(region) != from) {
    steps_.insert(region + 1, from, steps_.value(region));
    first = region + 1;
  }
  // Split the right edge only for finite windows; [from, kTimeInfinity)
  // means "from `from` onwards".
  const std::size_t last =
      (to >= kTimeInfinity) ? steps_.size() : split_at(to);
  // Validated above: the split pieces carry the same values that were probed.
  for (std::size_t i = first; i < last; ++i) steps_.add_value(i, delta);
  // Interior neighbours shifted by the same delta stay distinct, so only the
  // two window edges can need merging. Right edge first: erasing there does
  // not move `first`.
  coalesce_at(last);
  coalesce_at(first);
  if (undo != nullptr) undo->live_ = true;
  ++version_;
}

void StepProfile::rollback(Undo& undo) {
  RESCHED_CHECK_MSG(undo.live_, "rollback of a dead or spent undo record");
  // Locate the recorded region in the current store. The first step with
  // start >= window_lo begins it (the step at window_lo itself may have
  // been coalesced away by the recorded add); the first step with
  // start > to ends it.
  const std::size_t lo = steps_.lower_bound_start(undo.window_lo_);
  const std::size_t hi =
      (undo.to_ >= kTimeInfinity) ? steps_.size() : index_of(undo.to_) + 1;
  // The region must be exactly what the recorded add left there: anything
  // else means a later overlapping mutation is still in effect (or the
  // record belongs to another profile) and "reverting" would corrupt the
  // function -- the silent capacity inflation this layer exists to kill.
  // Verified by replaying the add's transformation of the few recorded
  // steps (split at the window edges, shift by delta, coalesce into the
  // recorded left neighbour) against the current region. The left
  // neighbour's value is checked against the record first: it anchors the
  // coalesce replay, and a later mutation that changed it (e.g. one that
  // coalesced across this record's window_lo boundary) would otherwise
  // make the replay accept -- and splice back -- a non-canonical region.
  // A failed rollback consumes nothing: undo the blocking mutation first
  // and the record is usable again.
  const SegStore& prior = undo.steps_;
  bool matches = hi >= lo && hi <= steps_.size();
  const bool have_left = undo.window_lo_ > 0;
  if (have_left)
    matches = matches && lo > 0 && steps_.value(lo - 1) == undo.left_value_;
  else
    matches = matches && lo == 0;
  std::size_t cursor = lo;
  bool left_known = have_left;
  std::int64_t left_value = undo.left_value_;
  const auto expect = [&](Time start, std::int64_t value) {
    if (left_known && value == left_value) return;  // coalesced left
    if (cursor >= hi || steps_.start(cursor) != start ||
        steps_.value(cursor) != value) {
      matches = false;
      return;
    }
    ++cursor;
    left_known = true;
    left_value = value;
  };
  // Leading unmodified piece of the split segment containing `from`.
  if (undo.from_ > undo.window_lo_) expect(prior.start(0), prior.value(0));
  // The shifted pieces over [from, to).
  for (std::size_t j = 0; j < prior.size() && matches; ++j) {
    if (prior.start(j) >= undo.to_) break;
    expect(std::max(prior.start(j), undo.from_),
        // resched-lint: time-arith-audited(verify-mode replay of a checked-path delta)
           prior.value(j) + undo.delta_);
  }
  // Trailing unmodified piece from `to` on (the last recorded step is the
  // one containing -- or starting at -- `to`).
  if (undo.to_ < kTimeInfinity) expect(undo.to_, prior.back_value());
  if (cursor != hi) matches = false;
  RESCHED_CHECK_MSG(matches,
                    "rollback does not reverse the newest mutation of its "
                    "region");
  undo.live_ = false;
  // Splice the prior steps back in: one capacity check plus one memmove per
  // array (SegStore::replace_range), never add's probe/split/coalesce path.
  steps_.replace_range(lo, hi, prior);
  ++version_;
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

Time StepProfile::first_fit(Time from, Time len,
                            std::int64_t threshold) const {
  RESCHED_REQUIRE(from >= 0 && len > 0);
  // One forward walk: the cursor t is always a candidate start (from, or
  // the right edge of a deficient run) and every start before it is known
  // not to fit. A dip in t's window becomes the cursor; skipping the
  // deficient run lands on the next candidate, a capacity-increase
  // breakpoint. Every segment is visited at most once.
  const Time* times = steps_.times_data();
  const std::int64_t* values = steps_.values_data();
  const std::size_t n = steps_.size();
  std::size_t j = index_of(from);
  Time t = from;
  while (true) {
    const Time end = checked_add(t, len);
    if (values[j] >= threshold) {
      for (++j; j < n && times[j] < end && values[j] >= threshold; ++j) {
      }
      if (j == n || times[j] >= end) return t;
    }
    for (++j; j < n && values[j] < threshold; ++j) {
    }
    if (j == n) return kTimeInfinity;  // the unbounded tail is deficient
    t = times[j];
  }
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

bool StepProfile::is_non_decreasing() const noexcept {
  const std::int64_t* values = steps_.values_data();
  for (std::size_t i = 1; i < steps_.size(); ++i)
    if (values[i] < values[i - 1]) return false;
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

StepProfile StepProfile::plus(const StepProfile& other) const {
  StepProfile result(0);
  result.steps_.clear();
  result.steps_.reserve(steps_.size() + other.steps_.size());
  std::size_t a = 0;
  std::size_t b = 0;
  std::int64_t va = steps_.value(0);
  std::int64_t vb = other.steps_.value(0);
  // Merge the two breakpoint sets; emitted starts are strictly increasing.
  while (a < steps_.size() || b < other.steps_.size()) {
    Time t;
    if (b == other.steps_.size() ||
        (a < steps_.size() && steps_.start(a) <= other.steps_.start(b))) {
      t = steps_.start(a);
      va = steps_.value(a);
      if (b < other.steps_.size() && other.steps_.start(b) == t)
        vb = other.steps_.value(b++);
      ++a;
    } else {
      t = other.steps_.start(b);
      vb = other.steps_.value(b++);
    }
    const std::int64_t v = checked_add(va, vb);
    if (result.steps_.empty() || result.steps_.back_value() != v)
      result.steps_.push_back(t, v);
  }
  return result;
}

StepProfile StepProfile::minus(const StepProfile& other) const {
  StepProfile negated = other;
  std::int64_t* values = negated.steps_.values_data();
  for (std::size_t i = 0; i < negated.steps_.size(); ++i)
    values[i] = checked_neg(values[i]);
  return plus(negated);
}

}  // namespace resched
