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
//     bucket sorted by the scheduler's rank. Every caller knows the whole
//     set of jobs it will ever insert before the first insert (the
//     instance, or the replan's queue), so the queue is sized from that
//     set once: a counting pass gives each demand in it a bucket and a
//     range of one contiguous entry block, and the q -> bucket slot table
//     finds it. Opening and closing a pass costs O(occupied demands), not
//     O(m) -- a service decision plans a handful of jobs in a few distinct
//     widths on a machine with m in the hundreds;
//   * a capacity event opens a *pass* at the free capacity at t, and each
//     candidate is the lowest-ranked current job among the buckets whose
//     demand the free capacity at t still reaches (q <= capacity at t) --
//     exactly the job the linear rescan would examine next and could
//     start. A bucket above it is passed over: the rescan would have
//     probed each of its jobs only to fail fits_at immediately (capacity
//     at t is the minimum over the job's window, so value-at-t below q
//     already decides it), and capacity at t never rises within a pass --
//     the only mutations are commits, which subtract;
//   * a bucket that the capacity admits asks the caller for the *limit*
//     of its first unexamined job (q, p): the longest duration a
//     demand-q job may have and still start now (for LSRC, F(q) - t; for
//     EASY, D(q) - t, both read by FreeProfile::Cursor), read over that
//     job's own window [t, t + p). If the job starts, it surfaces. If
//     not, the dip that rejected it lies inside the window, so the limit
//     is exact for the whole demand: every later job with p > limit is
//     copied straight to the survivor slots without surfacing, and the
//     bucket competes again at its first job with p <= limit, which starts
//     without another read. Exact limits, like capacity, only shrink
//     within a pass (commits only remove capacity, so every first dip the
//     deadlines read can only move earlier), so a job skipped once would
//     fail every later probe of the pass too. A rejecting limit is
//     memoised in the bucket until the next take(): within a pass t is
//     fixed and a take is the only point where the caller's profile
//     changes, so (pass, takes) keys the memo exactly as (t, profile
//     version) would.
//
// Equivalence sketch: a pass hands out precisely the pending jobs the
// rescan would have started, in the same order, against the same
// FreeProfile state; everything it skips (a bucket above the capacity, a
// job past its bucket's limit) provably fails the rescan's probe at the
// point the rescan would reach it, and stays pending in rank order.
// Committed jobs and their commit order therefore coincide, and by
// induction over events the whole schedule does.
//
// Pass cost: every bucket is a range of the entry block with a moving
// front. A pass examines a prefix of each bucket it wakes (cursor `read`)
// and compacts the jobs it keeps behind it (cursor `write`), so closing it
// slides those survivors up against the unexamined tail and advances the
// front past the taken jobs: O(examined), independent of the bucket's
// length. Taking a bucket's front job therefore costs O(1), not a shift of
// the whole bucket. insert() places a job in rank order inside its
// bucket's range, shifting the later jobs of the bucket back by one; a
// job that ranks after every pending job of its bucket -- every insert
// of the batch loops, which feed jobs in rank order -- is an O(1) append.
// insert() never allocates, grows or reclaims.
//
// Memory: n entries for n sized jobs, one block per queue, plus the slot
// table (max_q + 1 words) and one bucket and front per distinct demand.
// A taken job's entry is never reused: the range holds room for every job
// of its demand in the set, so the dead prefix needs no reclaim.
//
// Candidate cost: fronts_ holds each bucket's current rank and demand in
// one contiguous array, and a candidate is one scan over it, O(B) for B
// occupied demands. Every end-to-end benchmark workload draws power-of-two
// widths <= 64 on m = 128, so B <= 7 there. Many demands (BM_ScheduleManyDemands:
// uniform widths up to m/2, n = 2048; medians of 6 runs alternating with
// the binary-heap merge the scan replaced, 4-vCPU host, Release):
//   m = 128  (up to 64 buckets):  LSRC 3.45 -> 1.19 ms, EASY 4.84 -> 3.00 ms
//   m = 1024 (up to 512 buckets): LSRC 26.1 -> 8.5 ms,  EASY 31.0 -> 25.9 ms
//
// The cursor's fit_deadline/backfill_deadline turn the schedulers' start
// tests into one deadline per demand, so a pass reads the profile about
// once per start and once per rejecting demand between starts, instead of
// once per candidate, and each read walks from the index of t that the
// pass located once.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/arena.hpp"
#include "core/job.hpp"
#include "core/types.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

class BackfillQueue {
 public:
  struct Entry {
    JobId id;
    std::int64_t rank;  // global examination order; unique per job
    ProcCount q;
    Time p;
  };

  // Sizes the queue for `jobs`, the set every later insert() draws from.
  // max_q: the largest processor demand a job may have (the machine
  // count); every job's demand must be in [1, max_q]. With a scratch
  // arena, every internal buffer (slot table, buckets, fronts, entries) is
  // bump-allocated from it -- the replan hot path; null = plain counted
  // heap (batch schedule()).
  BackfillQueue(ProcCount max_q, std::span<const Job> jobs,
                Arena* scratch = nullptr);

  // Inserts a pending job. Its demand must be one the sized set holds, and
  // the demand's jobs inserted so far fewer than the set holds. Must not
  // be called while a pass is open.
  void insert(JobId id, std::int64_t rank, ProcCount q, Time p);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  // Pass protocol, one pass per capacity event t, on a pass cursor `at`
  // (FreeProfile::at(t)):
  //   queue.begin_pass(at.capacity());
  //   while (auto e = queue.next_head()) { ...; queue.keep() or take(); }
  //   while (auto e = queue.next(at.capacity(), limit)) {
  //     ...; queue.take(); }
  //   queue.end_pass();
  // Every popped candidate must be answered with exactly one keep()/take()
  // before the next pop.
  //
  // begin_pass(capacity) takes the free capacity at t as the pass opens;
  // every later next() capacity is at most this.
  //
  // next(capacity, limit) pops the lowest-ranked job with q <= capacity
  // that starts now, where `capacity` is the free capacity at t now (the
  // opening capacity minus every demand started since) and
  // limit(q, p) -> Time decides the rest for the demand-q job of duration p
  // about to surface: it returns L with p <= L iff that job starts now, and
  // when it rejects (L < p), L is exact -- a demand-q job of any duration
  // p' starts now iff p' <= L. A rejecting limit is memoised in the bucket
  // until the next take() and decides the bucket's later jobs without
  // another call. Capacity and the exact limits may only shrink within a
  // pass, and limits may change only at a take(). Jobs next() passes over
  // stay pending in rank order.
  //
  // next_head() pops the globally lowest-ranked unexamined job whatever
  // its demand and duration (EASY's protected head). If its q is above
  // the opening capacity, it cannot start at t, and next() never surfaces
  // its bucket.
  void begin_pass(std::int64_t capacity);
  template <class Limit>
  [[nodiscard]] std::optional<Entry> next(std::int64_t capacity,
                                          Limit&& limit);
  [[nodiscard]] std::optional<Entry> next_head();
  void keep();
  void take();
  void end_pass();

 private:
  // A demand's range of entries_. [front, end) is the pending queue,
  // sorted by rank; before front is dead (taken jobs, or survivors' old
  // slots); [end, last) is room for the demand's jobs not inserted yet.
  struct Bucket {
    std::size_t front = 0;
    std::size_t end = 0;
    std::size_t last = 0;
    // Pass cursors: next candidate / survivor slot. Both equal front
    // outside a pass, so begin_pass needs no per-bucket reset.
    std::size_t read = 0;
    std::size_t write = 0;
    // Exact rejecting limit, current while limit_epoch == epoch_.
    std::uint64_t limit_epoch = 0;
    Time limit = 0;
  };

  // A bucket's current job during a pass: its rank, or kNoRank once the
  // pass has examined the whole bucket, and the demand of every job in it.
  struct Front {
    std::int64_t rank;
    ProcCount q;
  };

  static constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);
  static constexpr std::int64_t kNoRank =
      std::numeric_limits<std::int64_t>::max();

  // The bucket whose current job ranks lowest among those with
  // q <= capacity, or kNoCandidate if every such bucket is examined.
  [[nodiscard]] std::size_t lowest(std::int64_t capacity) const {
    std::size_t best = kNoCandidate;
    std::int64_t best_rank = kNoRank;
    for (std::size_t b = 0; b < fronts_.size(); ++b) {
      if (fronts_[b].q <= capacity && fronts_[b].rank < best_rank) {
        best = b;
        best_rank = fronts_[b].rank;
      }
    }
    return best;
  }
  // Records bucket b's current job in fronts_.
  void refresh(std::size_t b);
  // Marks bucket b's current job as the popped candidate.
  Entry surface(std::size_t b);

  // slot_[q] = 1 + index of q's bucket in buckets_, or 0 if no sized job
  // has demand q. A bucket that empties simply has no front until an
  // insert refills it.
  ScratchVec<std::uint32_t> slot_;
  ScratchVec<Bucket> buckets_;  // sized demands, first-appearance order
  ScratchVec<Front> fronts_;    // one per bucket, same order
  ScratchVec<Entry> entries_;   // one per sized job, split into buckets
  std::size_t size_ = 0;
  std::size_t current_ = kNoCandidate;  // bucket of the last popped candidate
  // The pass's opening capacity: the cap on every next() capacity.
  std::int64_t pass_capacity_ = 0;
  // Advanced by begin_pass and take(), the points where limits may change.
  std::uint64_t epoch_ = 0;
  bool pass_open_ = false;
};

template <class Limit>
std::optional<BackfillQueue::Entry> BackfillQueue::next(std::int64_t capacity,
                                                        Limit&& limit) {
  RESCHED_ASSERT(pass_open_ && current_ == kNoCandidate &&
                 capacity <= pass_capacity_);
  // Buckets with q above the capacity are passed over: capacity at the
  // event time cannot come back up, so none of their jobs can start (see
  // header sketch).
  for (std::size_t b = lowest(capacity); b != kNoCandidate;
       b = lowest(capacity)) {
    Bucket& bucket = buckets_[b];
    const Entry& first = entries_[bucket.read];
    if (bucket.limit_epoch != epoch_) {
      const Time verdict = limit(first.q, first.p);
      if (first.p <= verdict) return surface(b);
      bucket.limit = verdict;
      bucket.limit_epoch = epoch_;
    } else if (first.p <= bucket.limit) {
      return surface(b);
    }
    // Skip what the limit rejects: straight to the survivor slots.
    while (bucket.read < bucket.end && entries_[bucket.read].p > bucket.limit)
      entries_[bucket.write++] = entries_[bucket.read++];
    refresh(b);
  }
  return std::nullopt;
}

// The limit a deadline D sets at t for BackfillQueue::next: the longest p
// with t + p <= D. D == kTimeInfinity means "no dip" (the profile queries'
// sentinel), which admits every duration -- exactly as fits_at reads it.
[[nodiscard]] inline Time deadline_limit(Time deadline, Time t) {
  return deadline == kTimeInfinity ? std::numeric_limits<Time>::max()
                                   : checked_sub(deadline, t);
}

}  // namespace resched
