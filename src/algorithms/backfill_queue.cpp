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

void BackfillQueue::insert(JobId id, std::int64_t rank, ProcCount q) {
  RESCHED_REQUIRE_MSG(!pass_open_, "insert during an open pass");
  RESCHED_REQUIRE(q >= 1 && static_cast<std::size_t>(q) < slot_.size());
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
  items.insert(at, Entry{id, rank, q});
  ++size_;
}

void BackfillQueue::begin_pass() {
  RESCHED_REQUIRE_MSG(!pass_open_, "pass already open");
  pass_open_ = true;
  current_ = kNoCandidate;
  heap_.clear();
  for (std::size_t b = 0; b < buckets_.size(); ++b)
    if (!buckets_[b].items.empty())
      heap_.push_back(Head{buckets_[b].items.front().rank, b});
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

std::optional<BackfillQueue::Entry> BackfillQueue::next(
    std::int64_t capacity, bool ignore_capacity) {
  RESCHED_ASSERT(pass_open_ && current_ == kNoCandidate);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Head head = heap_.back();
    heap_.pop_back();
    const Bucket& bucket = buckets_[head.bucket];
    const Entry& candidate = bucket.items[bucket.read];
    if (!ignore_capacity && candidate.q > capacity) {
      // Retire the bucket for this pass: capacity at the event time cannot
      // come back up, so none of its jobs can start (see header sketch).
      continue;
    }
    current_ = head.bucket;
    return candidate;
  }
  return std::nullopt;
}

void BackfillQueue::advance(std::size_t b) {
  const Bucket& bucket = buckets_[b];
  if (bucket.read < bucket.items.size()) {
    heap_.push_back(Head{bucket.items[bucket.read].rank, b});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  current_ = kNoCandidate;
}

void BackfillQueue::keep() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  Bucket& bucket = buckets_[current_];
  bucket.items[bucket.write++] = bucket.items[bucket.read++];
  advance(current_);
}

void BackfillQueue::take() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  ++buckets_[current_].read;
  --size_;
  advance(current_);
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

}  // namespace resched
