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
    buckets_.emplace_back(buckets_.get_allocator().arena(), q);
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
  gated_ = kNoCandidate;
  gated_stale_ = false;
  ++epoch_;
  heap_.clear();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const Bucket& bucket = buckets_[b];
    if (bucket.front == bucket.items.size()) continue;
    const std::int64_t rank = bucket.items[bucket.front].rank;
    // Gated out: nothing in it can start this pass, so it never enters the
    // merge. Only next_head() may need its front, so keep the lowest.
    if (bucket.q > capacity) {
      if (gated_ == kNoCandidate || rank < front_rank(gated_)) gated_ = b;
      continue;
    }
    heap_.push_back(Head{rank, b});
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

std::int64_t BackfillQueue::front_rank(std::size_t b) const {
  const Bucket& bucket = buckets_[b];
  return bucket.items[bucket.read].rank;
}

void BackfillQueue::refresh_gated() {
  gated_ = kNoCandidate;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const Bucket& bucket = buckets_[b];
    if (bucket.q <= pass_capacity_ || bucket.read == bucket.items.size())
      continue;
    if (gated_ == kNoCandidate || front_rank(b) < front_rank(gated_))
      gated_ = b;
  }
  gated_stale_ = false;
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
  if (gated_stale_) refresh_gated();
  // The lowest rank is the merge's front or the gated buckets' lowest
  // front, whichever is lower.
  if (gated_ != kNoCandidate &&
      (heap_.empty() || front_rank(gated_) < heap_.front().rank)) {
    current_gated_ = true;
    return surface(gated_);
  }
  Head head;
  if (!pop(head)) return std::nullopt;
  return surface(head.bucket);
}

void BackfillQueue::answered() {
  // A gated bucket stays out of the merge; its lowest front is found again
  // only if next_head() asks for it.
  if (current_gated_)
    gated_stale_ = true;
  else
    offer(current_);
  current_gated_ = false;
  current_ = kNoCandidate;
}

void BackfillQueue::keep() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  Bucket& bucket = buckets_[current_];
  bucket.items[bucket.write++] = bucket.items[bucket.read++];
  answered();
}

void BackfillQueue::take() {
  RESCHED_ASSERT(pass_open_ && current_ != kNoCandidate);
  ++buckets_[current_].read;
  --size_;
  ++epoch_;
  answered();
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
  heap_.clear();
  pass_open_ = false;
}

}  // namespace resched
