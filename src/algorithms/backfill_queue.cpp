#include "algorithms/backfill_queue.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace resched {

BackfillQueue::BackfillQueue(ProcCount max_q, Arena* scratch)
    : slot_(ArenaAlloc<std::uint32_t>(scratch)),
      buckets_(ArenaAlloc<Bucket>(scratch)),
      fronts_(ArenaAlloc<Front>(scratch)) {
  RESCHED_REQUIRE_MSG(max_q >= 1, "backfill queue needs max_q >= 1");
  slot_.assign(static_cast<std::size_t>(max_q) + 1, 0);
  // At most one bucket per demand, so the fronts never reallocate.
  fronts_.reserve(static_cast<std::size_t>(max_q));
}

void BackfillQueue::insert(JobId id, std::int64_t rank, ProcCount q, Time p) {
  RESCHED_REQUIRE_MSG(!pass_open_, "insert during an open pass");
  RESCHED_REQUIRE(q >= 1 && static_cast<std::size_t>(q) < slot_.size());
  RESCHED_REQUIRE(p > 0);
  std::uint32_t& slot = slot_[static_cast<std::size_t>(q)];
  if (slot == 0) {
    buckets_.emplace_back(buckets_.get_allocator().arena());
    fronts_.push_back(Front{kNoRank, q});
    slot = static_cast<std::uint32_t>(buckets_.size());
  }
  Bucket& bucket = buckets_[slot - 1];
  ScratchVec<Entry>& items = bucket.items;
  // Reclaim the dead prefix once it outgrows the live part: the live
  // entries moved here number at most the jobs taken since the last
  // reclaim, so each take pays O(1) for it.
  if (bucket.front > 0 && bucket.front >= items.size() - bucket.front) {
    items.erase(items.begin(),
                items.begin() + static_cast<std::ptrdiff_t>(bucket.front));
    bucket.front = 0;
    bucket.read = 0;
    bucket.write = 0;
  }
  // Ranks arrive mostly in increasing order (release-sorted feeds), so the
  // binary search almost always lands at the back.
  const auto at = std::lower_bound(
      items.begin() + static_cast<std::ptrdiff_t>(bucket.front), items.end(),
      rank,
      [](const Entry& entry, std::int64_t value) { return entry.rank < value; });
  items.insert(at, Entry{id, rank, q, p});
  ++size_;
}

void BackfillQueue::begin_pass(std::int64_t capacity) {
  RESCHED_REQUIRE_MSG(!pass_open_, "pass already open");
  pass_open_ = true;
  pass_capacity_ = capacity;
  current_ = kNoCandidate;
  ++epoch_;
  for (std::size_t b = 0; b < buckets_.size(); ++b) refresh(b);
}

void BackfillQueue::refresh(std::size_t b) {
  const Bucket& bucket = buckets_[b];
  fronts_[b].rank = bucket.read < bucket.items.size()
                        ? bucket.items[bucket.read].rank
                        : kNoRank;
}

BackfillQueue::Entry BackfillQueue::surface(std::size_t b) {
  current_ = b;
  const Bucket& bucket = buckets_[b];
  return bucket.items[bucket.read];
}

std::optional<BackfillQueue::Entry> BackfillQueue::next_head() {
  RESCHED_ASSERT(pass_open_ && current_ == kNoCandidate);
  const std::size_t b = lowest(kNoRank);
  if (b == kNoCandidate) return std::nullopt;
  return surface(b);
}

void BackfillQueue::keep() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  Bucket& bucket = buckets_[current_];
  bucket.items[bucket.write++] = bucket.items[bucket.read++];
  refresh(current_);
  current_ = kNoCandidate;
}

void BackfillQueue::take() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  ++buckets_[current_].read;
  --size_;
  ++epoch_;
  refresh(current_);
  current_ = kNoCandidate;
}

void BackfillQueue::end_pass() {
  RESCHED_REQUIRE_MSG(pass_open_ && current_ == kNoCandidate,
                      "end_pass with an unanswered candidate");
  for (Bucket& bucket : buckets_) {
    // Survivors [front, write) were already compacted; slide them up
    // against the unexamined tail [read, end), past the taken jobs, and
    // move the front with them: O(examined), whatever the bucket's length.
    if (bucket.write != bucket.read) {
      const auto begin = bucket.items.begin();
      std::move_backward(begin + static_cast<std::ptrdiff_t>(bucket.front),
                         begin + static_cast<std::ptrdiff_t>(bucket.write),
                         begin + static_cast<std::ptrdiff_t>(bucket.read));
      bucket.front += bucket.read - bucket.write;
    }
    bucket.read = bucket.front;
    bucket.write = bucket.front;
  }
  pass_open_ = false;
}

}  // namespace resched
