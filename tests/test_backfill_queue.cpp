// Differential tests of the event-loop structures in
// algorithms/backfill_queue.hpp against naive references.
//
// BackfillQueue is checked against the linear rescan it replaces: a
// rank-ordered pending list walked once per pass, which hands out jobs with
// q <= capacity and p <= limit(q) and, for next_head(), the lowest-ranked
// job whatever its demand. Random insert / pass / keep / take sequences
// drive both with the schedulers' protocol (a pass opens at a capacity,
// capacity and limits never rise within it, limits change only at a take,
// next_head() calls come before the gated ones, as in EASY), for several
// machine sizes, with heap- and arena-backed buffers, and with a few
// demands (as a service decision sees) or many (so every candidate scans
// dozens of buckets that the falling capacity keeps filtering). Each queue
// is sized from the jobs its driver draws before the first insert, and
// every one of them is inserted by the end, so every bucket fills its
// range exactly; ranks are random and non-monotone, so inserts shift jobs
// in the middle of a bucket. The reference also knows which jobs the
// opening capacity gates out: a gated job may lead next_head() but must
// never surface from next().
#include "algorithms/backfill_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "core/arena.hpp"
#include "core/job.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

using Entry = BackfillQueue::Entry;

// No duration limit: every job that passes the capacity gate surfaces.
Time unlimited(ProcCount /*q*/, Time /*p*/) { return kTimeInfinity; }

// The linear rescan: pending jobs in rank order, a cursor per pass.
class ReferenceQueue {
 public:
  void insert(JobId id, std::int64_t rank, ProcCount q, Time p) {
    const auto at = std::lower_bound(
        pending_.begin(), pending_.end(), rank,
        [](const Entry& e, std::int64_t value) { return e.rank < value; });
    pending_.insert(at, Entry{id, rank, q, p});
  }

  void begin_pass(std::int64_t capacity) {
    cursor_ = 0;
    opening_ = capacity;
  }

  std::optional<Entry> next_head() {
    if (cursor_ < pending_.size()) return pending_[cursor_];
    return std::nullopt;
  }

  // True if the pass's opening capacity gates out e's demand.
  [[nodiscard]] bool gated(const Entry& e) const { return e.q > opening_; }

  // Jobs the capacity gate lets through but the limit rejects are counted
  // in limit_skips.
  std::optional<Entry> next(std::int64_t capacity,
                            const std::vector<Time>& limits) {
    EXPECT_LE(capacity, opening_);
    for (; cursor_ < pending_.size(); ++cursor_) {
      const Entry& e = pending_[cursor_];
      if (gated(e) || e.q > capacity) continue;
      if (e.p <= limits[static_cast<std::size_t>(e.q)]) return e;
      ++limit_skips;
    }
    return std::nullopt;
  }

  void keep() { ++cursor_; }
  void take() {
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(cursor_));
  }

  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] const std::vector<Entry>& pending() const { return pending_; }
  [[nodiscard]] std::size_t count(ProcCount q) const {
    return static_cast<std::size_t>(
        std::count_if(pending_.begin(), pending_.end(),
                      [q](const Entry& e) { return e.q == q; }));
  }
  [[nodiscard]] bool has(ProcCount q, Time p) const {
    return std::any_of(pending_.begin(), pending_.end(), [&](const Entry& e) {
      return e.q == q && e.p == p;
    });
  }

  int limit_skips = 0;

 private:
  std::vector<Entry> pending_;
  std::size_t cursor_ = 0;
  std::int64_t opening_ = 0;
};

void expect_same(const std::optional<Entry>& got,
                 const std::optional<Entry>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->id, want->id);
  EXPECT_EQ(got->rank, want->rank);
  EXPECT_EQ(got->q, want->q);
  EXPECT_EQ(got->p, want->p);
}

// Walks a fresh pass opened at `capacity` with next_head() + keep(): every
// pending job must come out, in rank order, gated or not, and the walk must
// leave the queue unchanged.
void expect_pending_in_rank_order(BackfillQueue& queue,
                                  const ReferenceQueue& reference,
                                  std::int64_t capacity) {
  queue.begin_pass(capacity);
  std::size_t i = 0;
  while (const auto got = queue.next_head()) {
    ASSERT_LT(i, reference.pending().size());
    expect_same(got, reference.pending()[i++]);
    queue.keep();
  }
  queue.end_pass();
  EXPECT_EQ(i, reference.pending().size());
  EXPECT_EQ(queue.size(), reference.size());
}

// `n` jobs drawn from `widths`, ids 0..n-1, with durations in [1, 40].
std::vector<Job> draw_jobs(std::size_t n, const std::vector<ProcCount>& widths,
                           Prng& prng) {
  std::vector<Job> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].id = static_cast<JobId>(i);
    jobs[i].q = widths[static_cast<std::size_t>(
        prng.uniform_int(0, static_cast<std::int64_t>(widths.size()) - 1))];
    jobs[i].p = prng.uniform_int(1, 40);
  }
  return jobs;
}

// One BackfillQueue and its reference, driven through the schedulers'
// protocol with random arrivals, capacities and limits. The `n` jobs that
// will arrive are drawn up front and size the queue.
class Driver {
  // Declared before `queue`, which is sized from it.
  std::vector<Job> jobs_;

 public:
  Driver(ProcCount m, Arena* arena, Prng& prng,
         const std::vector<ProcCount>& widths, std::size_t n)
      : jobs_(draw_jobs(n, widths, prng)),
        queue(m, jobs_, arena),
        m_(m),
        prng_(prng),
        widths_(widths),
        emptied_(static_cast<std::size_t>(m) + 1, false),
        limits_(static_cast<std::size_t>(m) + 1) {}

  BackfillQueue queue;
  ReferenceQueue reference;
  int refills = 0;  // buckets that emptied and got a job again
  int takes = 0;
  int oversized_heads = 0;  // next_head() answers from a gated-out bucket

  // Up to max_jobs arrivals, the next jobs drawn: ranks mostly increasing
  // (release-sorted feeds) with some out-of-order stragglers.
  void arrive(int max_jobs) {
    for (int k = static_cast<int>(prng_.uniform_int(0, max_jobs));
         k > 0 && next_job_ < jobs_.size(); --k) {
      const Job& job = jobs_[next_job_++];
      const auto n = static_cast<std::int64_t>(jobs_.size());
      const std::int64_t rank = prng_.chance(0.2)
                                    ? prng_.uniform_int(0, 999) * n + job.id
                                    : 1000 * n + job.id;
      if (emptied_[static_cast<std::size_t>(job.q)]) {
        ++refills;
        emptied_[static_cast<std::size_t>(job.q)] = false;
      }
      queue.insert(job.id, rank, job.q, job.p);
      reference.insert(job.id, rank, job.q, job.p);
    }
    ASSERT_EQ(queue.size(), reference.size());
  }

  // One pass at a free capacity drawn from [min_capacity, m): up to
  // max_heads protected heads, then the gated candidates.
  void pass(int max_heads, std::int64_t min_capacity) {
    // The queue's limit callback, asked about a pending job: the table's
    // exact limit when it rejects, and when it admits any bound >= p, as
    // a deadline read over the job's own window may be.
    const auto limit = [&](ProcCount q, Time p) {
      EXPECT_TRUE(reference.has(q, p));
      const Time exact = limits_[static_cast<std::size_t>(q)];
      return p <= exact ? prng_.uniform_int(p, std::min(exact, p + 10))
                        : exact;
    };
    std::int64_t capacity = prng_.uniform_int(min_capacity, m_);
    for (Time& cap : limits_)
      cap = prng_.chance(0.2) ? kTimeInfinity : prng_.uniform_int(0, 45);
    queue.begin_pass(capacity);
    reference.begin_pass(capacity);
    // Phase 1: the protected head, popped whatever its demand. A head from
    // a gated-out bucket cannot start; EASY keeps it and stops, and the
    // driver sometimes asks for the next head anyway.
    for (int k = static_cast<int>(prng_.uniform_int(0, max_heads)); k > 0;
         --k) {
      const auto got = queue.next_head();
      const auto want = reference.next_head();
      expect_same(got, want);
      if (!got) break;
      if (reference.gated(*want)) ++oversized_heads;
      if (prng_.chance(0.5) && got->q <= capacity) {
        capacity -= got->q;
        queue.take();
        reference.take();
        ++takes;
      } else {
        queue.keep();
        reference.keep();
        if (prng_.chance(0.7)) break;
      }
    }
    // Phase 2: capacity- and limit-gated candidates; capacity only goes
    // down, and limits shrink only after a take.
    while (true) {
      const auto got = queue.next(capacity, limit);
      expect_same(got, reference.next(capacity, limits_));
      if (!got) break;
      if (prng_.chance(0.7)) {
        capacity -= got->q;
        queue.take();
        reference.take();
        ++takes;
        for (Time& cap : limits_)
          if (prng_.chance(0.3))
            cap = cap == kTimeInfinity ? prng_.uniform_int(0, 45)
                                       : cap - prng_.uniform_int(0, cap);
      } else {
        queue.keep();
        reference.keep();
      }
      if (prng_.chance(0.1)) capacity -= prng_.uniform_int(0, 2);
    }
    queue.end_pass();
    EXPECT_EQ(queue.size(), reference.size());
    EXPECT_EQ(queue.empty(), reference.size() == 0);
    // Skipped jobs are still pending, in rank order, whatever the opening
    // capacity gates out.
    if (prng_.chance(0.3))
      expect_pending_in_rank_order(queue, reference,
                                   prng_.uniform_int(0, m_));
    for (const ProcCount q : widths_)
      if (reference.count(q) == 0) emptied_[static_cast<std::size_t>(q)] = true;
  }

  // Drain: the jobs that have not arrived yet arrive, which leaves every
  // bucket's range full, and what is left must come out in the same rank
  // order.
  void drain() {
    while (next_job_ < jobs_.size()) arrive(4);
    for (const Job& job : jobs_)
      EXPECT_THROW(queue.insert(job.id, job.id, job.q, job.p),
                   std::invalid_argument);
    expect_pending_in_rank_order(queue, reference, 0);
    queue.begin_pass(m_);
    reference.begin_pass(m_);
    while (const auto got = queue.next_head()) {
      expect_same(got, reference.next_head());
      queue.take();
      reference.take();
    }
    EXPECT_FALSE(reference.next_head().has_value());
    queue.end_pass();
    EXPECT_TRUE(queue.empty());
  }

 private:
  ProcCount m_;
  Prng& prng_;
  const std::vector<ProcCount>& widths_;
  std::vector<bool> emptied_;
  std::vector<Time> limits_;
  std::size_t next_job_ = 0;
};

// The demands a test draws its jobs from.
enum class Widths {
  kFew,   // a handful of random ones, so buckets empty and refill
  kMany,  // min(m, 40) distinct ones: every width on a small machine
};

std::vector<ProcCount> draw_widths(Widths set, ProcCount m, int few,
                                   Prng& prng) {
  std::vector<ProcCount> widths;
  if (set == Widths::kFew) {
    for (int i = 0; i < few; ++i) widths.push_back(prng.uniform_int(1, m));
    return widths;
  }
  std::set<ProcCount> distinct;
  while (distinct.size() < static_cast<std::size_t>(std::min<ProcCount>(m, 40)))
    distinct.insert(prng.uniform_int(1, m));
  widths.assign(distinct.begin(), distinct.end());
  return widths;
}

class BackfillQueueDifferential
    : public ::testing::TestWithParam<std::tuple<ProcCount, bool, Widths>> {};

TEST_P(BackfillQueueDifferential, MatchesTheLinearRescan) {
  const auto [m, arena_backed, width_set] = GetParam();
  Arena arena;
  Prng prng(static_cast<std::uint64_t>(m) * 2 + (arena_backed ? 1 : 0));
  const std::vector<ProcCount> widths = draw_widths(width_set, m, 4, prng);

  int refills = 0;
  int limit_skips = 0;
  int oversized_heads = 0;
  for (int run = 0; run < 40; ++run) {
    if (arena_backed) arena.reset();
    // About as many jobs as 30 arrivals of up to 4 bring on average.
    Driver driver(m, arena_backed ? &arena : nullptr, prng, widths, 60);
    for (int event = 0; event < 30; ++event) {
      driver.arrive(4);
      driver.pass(2, 0);
    }
    refills += driver.refills;
    limit_skips += driver.reference.limit_skips;
    oversized_heads += driver.oversized_heads;
    driver.drain();
  }
  EXPECT_GT(refills, 0) << "no bucket emptied and refilled across passes";
  EXPECT_GT(limit_skips, 100) << "the limit rarely rejected a candidate";
  if (m > 1) {
    EXPECT_GT(oversized_heads, 50) << "the global head was rarely gated out";
  }
}

// A batch schedule keeps one queue for thousands of passes. Buckets whose
// front jobs leave pass after pass accumulate a dead prefix that is never
// reclaimed: each bucket's range has room for all of its demand's jobs, so
// inserts keep landing behind the front, and the queue must keep matching
// the rescan however far the fronts have moved.
TEST_P(BackfillQueueDifferential, LongLivedQueueMatchesTheLinearRescan) {
  const auto [m, arena_backed, width_set] = GetParam();
  Arena arena;
  Prng prng(static_cast<std::uint64_t>(m) * 2 + (arena_backed ? 1 : 0) +
            1000);
  const std::vector<ProcCount> widths = draw_widths(width_set, m, 3, prng);
  Driver driver(m, arena_backed ? &arena : nullptr, prng, widths, 3000);
  // Cycles of a fill stretch (more arrivals than takes) and a drain at
  // full capacity down to an empty queue. Every drain leaves each used
  // bucket all dead prefix, and the next fill inserts behind it.
  int passes = 0;
  int drains = 0;
  while (passes < 1500) {
    for (int k = 0; k < 40; ++k, ++passes) {
      driver.arrive(4);
      driver.pass(4, 0);
    }
    for (int k = 0; k < 2000 && !driver.queue.empty(); ++k, ++passes)
      driver.pass(4, m);
    ASSERT_TRUE(driver.queue.empty()) << "the drain stalled";
    ++drains;
  }
  EXPECT_GE(drains, 5);
  EXPECT_GT(driver.takes, 1000);
  if (m > 1) {
    EXPECT_GT(driver.oversized_heads, 50);
  }
  driver.drain();
}

INSTANTIATE_TEST_SUITE_P(
    MachineSizes, BackfillQueueDifferential,
    ::testing::Combine(::testing::Values(ProcCount{1}, ProcCount{7},
                                         ProcCount{128}),
                       ::testing::Bool(), ::testing::Values(Widths::kFew)));

INSTANTIATE_TEST_SUITE_P(
    ManyDemands, BackfillQueueDifferential,
    ::testing::Combine(::testing::Values(ProcCount{7}, ProcCount{128}),
                       ::testing::Bool(), ::testing::Values(Widths::kMany)));

// Jobs of the given demands, ids 0..n-1, to size a queue with.
std::vector<Job> with_demands(std::initializer_list<ProcCount> demands) {
  std::vector<Job> jobs(demands.size());
  std::size_t i = 0;
  for (const ProcCount q : demands) {
    jobs[i].id = static_cast<JobId>(i);
    jobs[i++].q = q;
  }
  return jobs;
}

TEST(BackfillQueue, RejectsDemandsOutsideTheMachine) {
  EXPECT_THROW(BackfillQueue(4, with_demands({2, 5})), std::invalid_argument);
  EXPECT_THROW(BackfillQueue(4, with_demands({0})), std::invalid_argument);
  BackfillQueue queue(4, with_demands({4}));
  EXPECT_THROW(queue.insert(0, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(queue.insert(0, 0, 5, 1), std::invalid_argument);
  EXPECT_THROW(queue.insert(0, 0, 4, 0), std::invalid_argument);
  queue.insert(0, 0, 4, 1);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BackfillQueue, RejectsADemandItWasNotSizedFor) {
  BackfillQueue queue(8, with_demands({2, 6}));
  EXPECT_THROW(queue.insert(0, 0, 3, 1), std::invalid_argument);
  EXPECT_THROW(queue.insert(0, 0, 8, 1), std::invalid_argument);
  EXPECT_TRUE(queue.empty());
  queue.insert(0, 0, 2, 1);
  queue.insert(1, 1, 6, 1);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BackfillQueue, RejectsMoreJobsOfADemandThanItWasSized) {
  BackfillQueue queue(8, with_demands({2, 3, 2}));
  queue.insert(0, 5, 2, 1);
  queue.insert(2, 1, 2, 1);
  EXPECT_THROW(queue.insert(3, 0, 2, 1), std::invalid_argument);
  // Taking a demand-2 job frees no room: a taken slot is never reused.
  queue.begin_pass(8);
  ASSERT_TRUE(queue.next_head().has_value());
  queue.take();
  queue.end_pass();
  EXPECT_THROW(queue.insert(3, 0, 2, 1), std::invalid_argument);
  // The full bucket leaves the other demand's room alone.
  queue.insert(1, 3, 3, 1);
  EXPECT_THROW(queue.insert(4, 4, 3, 1), std::invalid_argument);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BackfillQueue, RetiredBucketSitsOutTheRestOfThePass) {
  BackfillQueue queue(8, with_demands({6, 2, 6}));
  queue.insert(0, 0, 6, 1);
  queue.insert(1, 1, 2, 1);
  queue.insert(2, 2, 6, 1);
  queue.begin_pass(8);
  // Capacity fell to 4: the q=6 bucket is passed over for the rest of the
  // pass; only job 1 surfaces.
  const auto first = queue.next(4, unlimited);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1);
  queue.take();
  EXPECT_FALSE(queue.next(2, unlimited).has_value());
  queue.end_pass();
  // Retired jobs stay pending, in rank order.
  queue.begin_pass(8);
  const auto head = queue.next(8, unlimited);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->id, 0);
  queue.keep();
  const auto second = queue.next(8, unlimited);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 2);
  queue.keep();
  queue.end_pass();
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BackfillQueue, GatedHeadLeadsNextHeadButNeverSurfacesFromNext) {
  BackfillQueue queue(8, with_demands({6, 2, 6, 3}));
  queue.insert(0, 0, 6, 1);
  queue.insert(1, 1, 2, 1);
  queue.insert(2, 2, 6, 1);
  queue.insert(3, 3, 3, 1);
  // Opening capacity 4 gates the q=6 bucket out of next().
  queue.begin_pass(4);
  // The global head is still job 0, from the gated bucket.
  auto got = queue.next_head();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 0);
  queue.keep();
  // The gated bucket's next job is the head only once it ranks lowest.
  got = queue.next_head();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 1);
  queue.take();
  got = queue.next_head();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 2);
  queue.keep();
  // next() at the opening capacity hands out job 3 but never the gated
  // bucket's jobs.
  got = queue.next(4, unlimited);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 3);
  queue.keep();
  EXPECT_FALSE(queue.next(4, unlimited).has_value());
  queue.end_pass();
  EXPECT_EQ(queue.size(), 3u);
  // Every job is still pending, in rank order.
  queue.begin_pass(8);
  for (const JobId id : {0, 2, 3}) {
    got = queue.next(8, unlimited);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->id, id);
    queue.keep();
  }
  queue.end_pass();
}

TEST(BackfillQueue, LimitSkipsLongJobsAndReoffersTheBucket) {
  BackfillQueue queue(4, with_demands({1, 1, 2, 1}));
  // Demand 1: ranks 0 (p=9), 2 (p=3), 4 (p=2); demand 2: rank 3 (p=1).
  queue.insert(0, 0, 1, 9);
  queue.insert(1, 2, 1, 3);
  queue.insert(2, 3, 2, 1);
  queue.insert(3, 4, 1, 2);
  int calls = 0;
  const auto limit = [&](ProcCount q, Time p) {
    ++calls;
    EXPECT_EQ(p, q == 1 ? 9 : 1);  // asked about each bucket's first job
    return Time{3};
  };
  queue.begin_pass(4);
  // Job 0 (p=9 > 3) is rejected and stays pending; the q=1 bucket comes
  // back at job 1, which the memoised limit admits.
  auto got = queue.next(4, limit);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 1);
  queue.keep();
  got = queue.next(4, limit);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 2);
  queue.keep();
  got = queue.next(4, limit);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 3);
  queue.take();
  EXPECT_FALSE(queue.next(4, limit).has_value());
  queue.end_pass();
  // One call per demand: job 3 is decided by the q=1 bucket's memoised
  // rejecting limit, and the take leaves that bucket empty.
  EXPECT_EQ(calls, 2);
  // The skipped job is still pending, ahead of the others.
  queue.begin_pass(4);
  got = queue.next_head();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 0);
  queue.keep();
  queue.end_pass();
  EXPECT_EQ(queue.size(), 3u);
}

}  // namespace
}  // namespace resched
