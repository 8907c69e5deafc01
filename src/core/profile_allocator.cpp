#include "core/profile_allocator.hpp"

#include <algorithm>
#include <utility>

#include "core/availability.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

namespace {
// Floor of the frame-pool cap: enough for probe loops and shallow plans
// even before the open-stack high-water mark has been established.
constexpr std::size_t kMinPoolFrames = 8;
}  // namespace

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
  RESCHED_REQUIRE_MSG(!retain_accepted_,
                      "place is permanent: recording mode commits through "
                      "commit_fitted");
  RESCHED_REQUIRE_MSG(
      profile_.final_value() >= q,
      "job can never fit: q exceeds the eventual free capacity");
  const Time t = profile_.take_first_fit(t0, p, q);
  ++permanent_mutations_;
  return t;
}

FreeProfile::Cursor FreeProfile::at(Time t) {
  RESCHED_REQUIRE(t >= 0);
  RESCHED_REQUIRE_MSG(!retain_accepted_,
                      "a pass cursor's takes are permanent: recording mode "
                      "commits through commit_fitted");
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

void FreeProfile::push_frame(Time t, ProcCount q, Time p) {
  OpenCommit frame;
  if (!frame_pool_.empty()) {
    // Recycle a whole retired frame: its undo record keeps the buffer
    // capacity of the widest window it ever held, so a warmed-up
    // plan/rewind cycle opens frames without touching the heap.
    frame = std::move(frame_pool_.back());
    frame_pool_.pop_back();
  } else {
    ++frame_misses_;
  }
  frame.serial = ++next_serial_;
  profile_.add_recorded(t, checked_add(t, p), -q, frame.undo);
  open_.push_back(std::move(frame));
  open_high_water_ = std::max(open_high_water_, open_.size());
}

void FreeProfile::commit_fitted(Time t, ProcCount q, Time p) {
  RESCHED_ASSERT(fits_at(t, q, p));
  RESCHED_REQUIRE(t >= 0 && q >= 1 && p > 0);
  if (retain_accepted_) {
    push_frame(t, q, p);
    return;
  }
  profile_.add(t, checked_add(t, p), -q);
  ++permanent_mutations_;
}

void FreeProfile::pop_frame() {
  OpenCommit& top = open_.back();
  profile_.rollback(top.undo);
  // Adaptive cap: a rewind of the deepest plan ever carried recycles every
  // frame; anything past that depth would be dead weight.
  if (frame_pool_.size() < std::max(kMinPoolFrames, open_high_water_))
    frame_pool_.push_back(std::move(top));
  open_.pop_back();
}

void FreeProfile::rewind_to(const Checkpoint& checkpoint) {
  RESCHED_CHECK_MSG(
      permanent_mutations_ == checkpoint.permanent,
      "rewind_to across a permanent capacity mutation: the checkpoint "
      "predates an adjust_capacity / unrecorded commit / compact_history");
  RESCHED_CHECK_MSG(
      checkpoint.depth <= open_.size() &&
          (checkpoint.depth == 0 ? std::uint64_t{0}
                                : open_[checkpoint.depth - 1].serial) ==
              checkpoint.top,
      "stale rewind checkpoint: the frame stack no longer holds the frames "
      "it saw");
  while (open_.size() > checkpoint.depth) pop_frame();
}

void FreeProfile::set_retain_accepted(bool on) {
  RESCHED_REQUIRE_MSG(open_.empty(),
                      "toggling plan recording with open frames");
  retain_accepted_ = on;
}

void FreeProfile::adjust_capacity(Time from, Time to, std::int64_t delta) {
  RESCHED_REQUIRE(from >= 0 && to > from);
  RESCHED_CHECK_MSG(open_.empty(),
                    "adjust_capacity with open plan frames: rewind first");
  if (delta == 0) return;
  if (delta < 0)
    RESCHED_REQUIRE_MSG(
        profile_.min_in(from, to) >= -delta,
        "capacity adjustment would drive free capacity negative");
  profile_.add(from, to, delta);
  ++permanent_mutations_;
}

std::size_t FreeProfile::compact_history(Time t) {
  RESCHED_CHECK_MSG(open_.empty(),
                    "compact_history with open plan frames: rewind first");
  const std::size_t removed = profile_.compact_before(t);
  if (removed > 0) ++permanent_mutations_;
  return removed;
}

}  // namespace resched
