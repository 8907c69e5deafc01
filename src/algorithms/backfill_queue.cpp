#include "algorithms/backfill_queue.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace resched {

BackfillQueue::BackfillQueue(ProcCount max_q, Arena* scratch)
    : slot_(ArenaAlloc<std::uint32_t>(scratch)),
      buckets_(ArenaAlloc<Bucket>(scratch)),
      heap_(ArenaAlloc<Head>(scratch)) {
  RESCHED_REQUIRE_MSG(max_q >= 1, "backfill queue needs max_q >= 1");
  slot_.assign(static_cast<std::size_t>(max_q) + 1, 0);
}

void BackfillQueue::insert(JobId id, std::int64_t rank, ProcCount q, Time p) {
  RESCHED_REQUIRE_MSG(!pass_open_, "insert during an open pass");
  RESCHED_REQUIRE(q >= 1 && static_cast<std::size_t>(q) < slot_.size());
  RESCHED_REQUIRE(p > 0);
  std::uint32_t& slot = slot_[static_cast<std::size_t>(q)];
  if (slot == 0) {
    buckets_.emplace_back(buckets_.get_allocator().arena());
    slot = static_cast<std::uint32_t>(buckets_.size());
  }
  ScratchVec<Entry>& items = buckets_[slot - 1].items;
  // Ranks arrive mostly in increasing order (release-sorted feeds), so the
  // binary search almost always lands at the back.
  const auto at = std::lower_bound(
      items.begin(), items.end(), rank,
      [](const Entry& entry, std::int64_t value) { return entry.rank < value; });
  items.insert(at, Entry{id, rank, q, p});
  ++size_;
}

void BackfillQueue::begin_pass() {
  RESCHED_REQUIRE_MSG(!pass_open_, "pass already open");
  pass_open_ = true;
  current_ = kNoCandidate;
  ++epoch_;
  heap_.clear();
  for (std::size_t b = 0; b < buckets_.size(); ++b)
    if (!buckets_[b].items.empty())
      heap_.push_back(Head{buckets_[b].items.front().rank, b});
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

bool BackfillQueue::pop(Head& head) {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  head = heap_.back();
  heap_.pop_back();
  return true;
}

void BackfillQueue::offer(std::size_t b) {
  const Bucket& bucket = buckets_[b];
  if (bucket.read < bucket.items.size()) {
    heap_.push_back(Head{bucket.items[bucket.read].rank, b});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
}

BackfillQueue::Entry BackfillQueue::surface(std::size_t b) {
  current_ = b;
  const Bucket& bucket = buckets_[b];
  return bucket.items[bucket.read];
}

std::optional<BackfillQueue::Entry> BackfillQueue::next_head() {
  RESCHED_ASSERT(pass_open_ && current_ == kNoCandidate);
  Head head;
  if (!pop(head)) return std::nullopt;
  return surface(head.bucket);
}

void BackfillQueue::keep() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  Bucket& bucket = buckets_[current_];
  bucket.items[bucket.write++] = bucket.items[bucket.read++];
  offer(current_);
  current_ = kNoCandidate;
}

void BackfillQueue::take() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  ++buckets_[current_].read;
  --size_;
  ++epoch_;
  offer(current_);
  current_ = kNoCandidate;
}

void BackfillQueue::end_pass() {
  RESCHED_REQUIRE_MSG(pass_open_ && current_ == kNoCandidate,
                      "end_pass with an unanswered candidate");
  for (Bucket& bucket : buckets_) {
    // Survivors [0, write) were already compacted; shift the unexamined
    // tail [read, end) down next to them.
    if (bucket.write != bucket.read)
      bucket.items.erase(
          bucket.items.begin() + static_cast<std::ptrdiff_t>(bucket.write),
          bucket.items.begin() + static_cast<std::ptrdiff_t>(bucket.read));
    bucket.read = 0;
    bucket.write = 0;
  }
  heap_.clear();
  pass_open_ = false;
}

Time fit_deadline(const StepProfile& free, Time t, ProcCount q, Time w) {
  return free.first_below(t, checked_add(t, w), q);
}

Time backfill_deadline(const StepProfile& free, Time t, ProcCount q,
                       Time w, const HeadReservation& head) {
  const Time fit = fit_deadline(free, t, q, w);
  // Jobs that fit end by min(fit, t + w), so only dips of the head's window
  // before that matter; when it is at or before head.start the window is
  // empty and G is free.
  const Time last_end = std::min(fit, checked_add(t, w));
  if (last_end <= head.start) return fit;
  return std::min(fit, free.first_below(head.start,
                                        std::min(head.end, last_end),
                                        checked_add(head.q, q)));
}

}  // namespace resched
