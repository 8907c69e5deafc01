#include "algorithms/backfill_queue.hpp"

#include <algorithm>
#include <iterator>

#include "util/require.hpp"

namespace resched {

BackfillQueue::BackfillQueue(ProcCount max_q, std::span<const Job> jobs,
                             Arena* scratch)
    : slot_(ArenaAlloc<std::uint32_t>(scratch)),
      buckets_(ArenaAlloc<Bucket>(scratch)),
      fronts_(ArenaAlloc<Front>(scratch)),
      entries_(jobs.size(), Entry{}, ArenaAlloc<Entry>(scratch)) {
  RESCHED_REQUIRE_MSG(max_q >= 1, "backfill queue needs max_q >= 1");
  slot_.assign(static_cast<std::size_t>(max_q) + 1, 0);
  // At most one bucket per demand and per job, so neither array grows.
  const std::size_t most =
      std::min(static_cast<std::size_t>(max_q), jobs.size());
  buckets_.reserve(most);
  fronts_.reserve(most);
  // Count each demand's jobs into its bucket's `last`...
  for (const Job& job : jobs) {
    RESCHED_REQUIRE(job.q >= 1 && job.q <= max_q);
    std::uint32_t& slot = slot_[static_cast<std::size_t>(job.q)];
    if (slot == 0) {
      buckets_.emplace_back();
      fronts_.push_back(Front{kNoRank, job.q});
      slot = static_cast<std::uint32_t>(buckets_.size());
    }
    ++buckets_[slot - 1].last;
  }
  // ...then split the entry block into consecutive ranges of those sizes.
  std::size_t begin = 0;
  for (Bucket& bucket : buckets_) {
    bucket.front = bucket.end = bucket.read = bucket.write = begin;
    begin += bucket.last;
    bucket.last = begin;
  }
}

void BackfillQueue::insert(JobId id, std::int64_t rank, ProcCount q, Time p) {
  RESCHED_REQUIRE_MSG(!pass_open_, "insert during an open pass");
  RESCHED_REQUIRE(q >= 1 && static_cast<std::size_t>(q) < slot_.size());
  RESCHED_REQUIRE(p > 0);
  const std::uint32_t slot = slot_[static_cast<std::size_t>(q)];
  RESCHED_REQUIRE_MSG(slot != 0, "insert of a demand the queue has no jobs of");
  Bucket& bucket = buckets_[slot - 1];
  RESCHED_REQUIRE_MSG(bucket.end < bucket.last,
                      "more inserts of a demand than the queue has jobs of it");
  const auto begin = entries_.begin();
  const auto front = begin + static_cast<std::ptrdiff_t>(bucket.front);
  const auto end = begin + static_cast<std::ptrdiff_t>(bucket.end);
  // The batch loops feed jobs in rank order, so a job usually ranks after
  // every pending job of its bucket and is appended with no search.
  if (end != front && std::prev(end)->rank > rank) {
    const auto at = std::lower_bound(
        front, end, rank,
        [](const Entry& entry, std::int64_t value) {
          return entry.rank < value;
        });
    std::move_backward(at, end, std::next(end));
    *at = Entry{id, rank, q, p};
  } else {
    *end = Entry{id, rank, q, p};
  }
  ++bucket.end;
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
  fronts_[b].rank =
      bucket.read < bucket.end ? entries_[bucket.read].rank : kNoRank;
}

BackfillQueue::Entry BackfillQueue::surface(std::size_t b) {
  current_ = b;
  return entries_[buckets_[b].read];
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
  entries_[bucket.write++] = entries_[bucket.read++];
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
      const auto begin = entries_.begin();
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
