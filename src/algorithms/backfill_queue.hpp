// Event-indexed pending structures shared by the list/backfilling
// schedulers (lsrc.cpp, easy_bf.cpp).
//
// Both schedulers are event loops: at every capacity event t they walk
// their pending jobs in a fixed global order (priority-list rank for LSRC,
// FCFS arrival rank for EASY) and start whatever fits. The seed
// implementations rescanned the *whole* pending queue at every event --
// O(n) probes per event even though a job needing q processors cannot
// possibly start while free capacity at t is below q.
//
// BackfillQueue removes exactly that waste while reproducing the rescan's
// observable behavior bit-for-bit (the golden hashes in
// test_prop_scheduler_equiv pin this):
//
//   * pending jobs live in buckets keyed by their processor demand q, each
//     bucket sorted by the scheduler's rank. Only demands that were ever
//     inserted own a bucket: a dense bucket array plus a q -> bucket slot
//     table, so opening and closing a pass costs O(occupied demands), not
//     O(m) -- a service decision plans a handful of jobs in a few distinct
//     widths on a machine with m in the hundreds;
//   * a capacity event opens a *pass*: the buckets whose threshold the
//     current free capacity reaches (q <= capacity at t) are merged
//     rank-order through a small binary heap, so candidates come out in
//     exactly the order the linear rescan would have examined them;
//   * a bucket whose head surfaces with q > capacity is retired for the
//     rest of the pass: the rescan would have probed each of its jobs only
//     to fail fits_at immediately (capacity at t is the minimum over the
//     job's window, so value-at-t below q already decides it). Capacity at
//     t never rises within a pass -- the only mutations are commits, which
//     subtract -- so retirement is permanent for the pass.
//
// Equivalence sketch: a pass examines precisely the pending jobs the
// rescan would have examined minus jobs that provably fail their capacity
// precheck, in the same order, against the same FreeProfile state;
// committed jobs and their commit order therefore coincide, and by
// induction over events the whole schedule does.
//
// EventTimes is the schedulers' wake-up queue: a binary min-heap over a
// ScratchVec, so a push is a vector append with no per-node allocation.
// Release/completion collisions are not deduplicated on insert: each
// duplicate costs one pop when the clock reaches it, and one advance
// consumes the whole stale prefix.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/arena.hpp"
#include "core/types.hpp"

namespace resched {

class BackfillQueue {
 public:
  struct Entry {
    JobId id;
    std::int64_t rank;  // global examination order; unique per job
    ProcCount q;
  };

  // max_q: largest processor demand that will ever be inserted (the
  // instance's machine count). With a scratch arena, every internal buffer
  // (slot table, buckets, merge heap) is bump-allocated from it -- the
  // replan hot path; null = plain counted heap (batch schedule()).
  explicit BackfillQueue(ProcCount max_q, Arena* scratch = nullptr);

  // Inserts a pending job. Must not be called while a pass is open.
  void insert(JobId id, std::int64_t rank, ProcCount q);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  // Pass protocol, one pass per capacity event:
  //   queue.begin_pass();
  //   while (auto e = queue.next(capacity)) { ...; queue.keep() or take(); }
  //   queue.end_pass();
  // Every popped candidate must be answered with exactly one keep()/take()
  // before the next next() call. `capacity` is the caller-maintained free
  // capacity at the event time (decremented by q on every commit);
  // ignore_capacity pops the globally lowest-ranked job regardless of its
  // bucket's threshold (EASY's protected head).
  void begin_pass();
  [[nodiscard]] std::optional<Entry> next(std::int64_t capacity,
                                          bool ignore_capacity = false);
  void keep();
  void take();
  void end_pass();

 private:
  struct Bucket {
    explicit Bucket(Arena* scratch) : items(ArenaAlloc<Entry>(scratch)) {}
    ScratchVec<Entry> items;   // sorted by rank
    // Pass cursors: next candidate / survivor slot. Both are 0 outside a
    // pass, so begin_pass needs no per-bucket reset.
    std::size_t read = 0;
    std::size_t write = 0;
  };

  // Heap item: the head rank of a live bucket. Min-heap by rank (ranks are
  // unique, so the bucket index never tiebreaks).
  struct Head {
    std::int64_t rank;
    std::size_t bucket;  // index into buckets_
    friend bool operator>(const Head& a, const Head& b) {
      return a.rank > b.rank;
    }
  };

  static constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);

  // Re-offers the answered candidate's bucket to the merge if it still has
  // unexamined jobs.
  void advance(std::size_t b);

  // slot_[q] = 1 + index of q's bucket in buckets_, or 0 if q never
  // arrived. Buckets are never removed: one that empties simply sits out
  // the merge until an insert refills it.
  ScratchVec<std::uint32_t> slot_;
  ScratchVec<Bucket> buckets_;          // occupied demands, first-insert order
  ScratchVec<Head> heap_;               // std::push_heap/pop_heap, min by rank
  std::size_t size_ = 0;
  std::size_t current_ = kNoCandidate;  // bucket of the last popped candidate
  bool pass_open_ = false;
};

// Min-queue of wake-up times for event-driven schedulers: a binary heap on
// a ScratchVec (arena-backed with a scratch arena, plain counted heap when
// null). Duplicates are kept and consumed together by next_after.
class EventTimes {
 public:
  explicit EventTimes(Arena* scratch = nullptr)
      : heap_(ArenaAlloc<Time>(scratch)) {}

  // Records a wake-up.
  void push(Time t) {
    heap_.push_back(t);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  // Smallest recorded time strictly greater than t, or kTimeInfinity.
  // Consumes everything up to and including the returned time.
  Time next_after(Time t) {
    while (!heap_.empty() && heap_.front() <= t) pop();
    if (heap_.empty()) return kTimeInfinity;
    const Time next = heap_.front();
    while (!heap_.empty() && heap_.front() == next) pop();
    return next;
  }

 private:
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }

  ScratchVec<Time> heap_;  // min-heap
};

}  // namespace resched
