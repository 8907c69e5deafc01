#include "core/profile_allocator.hpp"

#include <algorithm>
#include <utility>

#include "core/availability.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

FreeProfile::FreeProfile(StepProfile free_capacity)
    : profile_(std::move(free_capacity)) {
  RESCHED_REQUIRE_MSG(profile_.min_value() >= 0,
                      "free capacity profile must be non-negative");
}

FreeProfile FreeProfile::for_instance(const Instance& instance) {
  return FreeProfile(availability_profile(instance));
}

bool FreeProfile::fits_at(Time t, ProcCount q, Time p) const {
  RESCHED_REQUIRE(t >= 0 && q >= 1 && p > 0);
  // Equivalent to min_in(t, t+p) >= q, but bails out at the first deficient
  // segment.
  return profile_.first_below(t, checked_add(t, p), q) == kTimeInfinity;
}

Time FreeProfile::earliest_fit(Time t0, ProcCount q, Time p) const {
  RESCHED_REQUIRE(t0 >= 0 && q >= 1 && p > 0);
  return earliest_fit_from(profile_.index_of(t0), t0, q, p);
}

Time FreeProfile::earliest_fit_from(std::size_t index, Time t0, ProcCount q,
                                    Time p) const {
  RESCHED_REQUIRE_MSG(
      profile_.final_value() >= q,
      "job can never fit: q exceeds the eventual free capacity");
  // final_value() >= q guarantees a start: every window that starts in
  // the unbounded last segment fits.
  const StepProfile::FitWindow fit = profile_.find_fit(index, t0, p, q);
  RESCHED_CHECK_MSG(fit.found, "earliest_fit found no start");
  return fit.start;
}

Time FreeProfile::place(Time t0, ProcCount q, Time p) {
  RESCHED_REQUIRE(t0 >= 0 && q >= 1 && p > 0);
  RESCHED_REQUIRE_MSG(
      profile_.final_value() >= q,
      "job can never fit: q exceeds the eventual free capacity");
  return profile_.take_first_fit(t0, p, q);
}

FreeProfile::Cursor FreeProfile::at(Time t) {
  RESCHED_REQUIRE(t >= 0);
  return Cursor(*this, t, profile_.index_of(t));
}

Time FreeProfile::Cursor::fit_deadline(ProcCount q, Time w) const {
  check_current();
  RESCHED_REQUIRE(w > 0);
  return free_->profile_.scan_first_below_at(index_, t_, checked_add(t_, w),
                                             q);
}

Time FreeProfile::Cursor::backfill_deadline(ProcCount q, Time w,
                                            const HeadReservation& head) const {
  check_current();
  RESCHED_REQUIRE(w > 0);
  return free_->profile_.scan_backfill_deadline_at(
      index_, t_, checked_add(t_, w), q, head.start, head.end,
      checked_add(head.q, q));
}

bool FreeProfile::Cursor::try_take(ProcCount q, Time p) {
  check_current();
  RESCHED_REQUIRE(q >= 1 && p > 0);
  const std::size_t index =
      free_->profile_.try_take_at(index_, t_, checked_add(t_, p), q);
  if (index == StepProfile::kNoFit) return false;
  took(index);
  return true;
}

void FreeProfile::Cursor::take(ProcCount q, Time p) {
  check_current();
  RESCHED_REQUIRE(q >= 1 && p > 0);
  took(free_->profile_.take_at(index_, t_, checked_add(t_, p), q));
}

Time FreeProfile::Cursor::earliest_fit(ProcCount q, Time p) const {
  check_current();
  RESCHED_REQUIRE(q >= 1 && p > 0);
  return free_->earliest_fit_from(index_, t_, q, p);
}

void FreeProfile::commit_fitted(Time t, ProcCount q, Time p) {
  RESCHED_ASSERT(fits_at(t, q, p));
  RESCHED_REQUIRE(t >= 0 && q >= 1 && p > 0);
  profile_.add(t, checked_add(t, p), -q);
}

void FreeProfile::adjust_capacity(Time from, Time to, std::int64_t delta) {
  RESCHED_REQUIRE(from >= 0 && to > from);
  if (delta == 0) return;
  if (delta < 0)
    RESCHED_REQUIRE_MSG(
        profile_.min_in(from, to) >= -delta,
        "capacity adjustment would drive free capacity negative");
  profile_.add(from, to, delta);
}

std::size_t FreeProfile::compact_history(Time t) {
  return profile_.compact_before(t);
}

}  // namespace resched
