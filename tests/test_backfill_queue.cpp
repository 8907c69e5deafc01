// Differential tests of the event-loop structures in
// algorithms/backfill_queue.hpp against naive references.
//
// BackfillQueue is checked against the linear rescan it replaces: a
// rank-ordered pending list walked once per pass, which skips jobs with
// q > capacity and, under ignore_capacity, hands out the lowest-ranked job
// whatever its demand. Random insert / pass / keep / take sequences drive
// both with the schedulers' protocol (capacity never rises within a pass,
// ignore_capacity calls come before the capacity-gated ones, as in EASY),
// for several machine sizes and with heap- and arena-backed buffers.
//
// EventTimes is checked against an ordered std::set<Time>: duplicates,
// pushes at or before the current time, and kTimeInfinity once drained.
#include "algorithms/backfill_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "core/arena.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

using Entry = BackfillQueue::Entry;

// The linear rescan: pending jobs in rank order, a cursor per pass.
class ReferenceQueue {
 public:
  void insert(JobId id, std::int64_t rank, ProcCount q) {
    const auto at = std::lower_bound(
        pending_.begin(), pending_.end(), rank,
        [](const Entry& e, std::int64_t value) { return e.rank < value; });
    pending_.insert(at, Entry{id, rank, q});
  }

  void begin_pass() { cursor_ = 0; }

  std::optional<Entry> next(std::int64_t capacity, bool ignore_capacity) {
    for (; cursor_ < pending_.size(); ++cursor_)
      if (ignore_capacity || pending_[cursor_].q <= capacity)
        return pending_[cursor_];
    return std::nullopt;
  }

  void keep() { ++cursor_; }
  void take() {
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(cursor_));
  }

  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] std::size_t count(ProcCount q) const {
    return static_cast<std::size_t>(
        std::count_if(pending_.begin(), pending_.end(),
                      [q](const Entry& e) { return e.q == q; }));
  }

 private:
  std::vector<Entry> pending_;
  std::size_t cursor_ = 0;
};

void expect_same(const std::optional<Entry>& got,
                 const std::optional<Entry>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->id, want->id);
  EXPECT_EQ(got->rank, want->rank);
  EXPECT_EQ(got->q, want->q);
}

class BackfillQueueDifferential
    : public ::testing::TestWithParam<std::tuple<ProcCount, bool>> {};

TEST_P(BackfillQueueDifferential, MatchesTheLinearRescan) {
  const auto [m, arena_backed] = GetParam();
  Arena arena;
  Prng prng(static_cast<std::uint64_t>(m) * 2 + (arena_backed ? 1 : 0));
  // A handful of demands per run, as a service decision sees, so buckets
  // empty and refill across passes.
  std::vector<ProcCount> widths;
  for (int i = 0; i < 4; ++i) widths.push_back(prng.uniform_int(1, m));

  int refills = 0;
  for (int run = 0; run < 40; ++run) {
    if (arena_backed) arena.reset();
    BackfillQueue queue(m, arena_backed ? &arena : nullptr);
    ReferenceQueue reference;
    std::vector<bool> emptied(static_cast<std::size_t>(m) + 1, false);
    JobId next_id = 0;

    for (int event = 0; event < 30; ++event) {
      // Arrivals: ranks mostly increasing (release-sorted feeds) with some
      // out-of-order stragglers.
      for (int k = static_cast<int>(prng.uniform_int(0, 4)); k > 0; --k) {
        const ProcCount q = widths[static_cast<std::size_t>(
            prng.uniform_int(0, static_cast<std::int64_t>(widths.size()) - 1))];
        const std::int64_t rank =
            prng.chance(0.2) ? prng.uniform_int(0, 999) * 1024 + next_id
                                : 1'000'000'000 + next_id;
        if (emptied[static_cast<std::size_t>(q)]) {
          ++refills;
          emptied[static_cast<std::size_t>(q)] = false;
        }
        queue.insert(next_id, rank, q);
        reference.insert(next_id, rank, q);
        ++next_id;
      }
      ASSERT_EQ(queue.size(), reference.size());

      std::int64_t capacity = prng.uniform_int(0, m);
      queue.begin_pass();
      reference.begin_pass();
      // Phase 1: the protected head, popped whatever its demand.
      for (int k = static_cast<int>(prng.uniform_int(0, 2)); k > 0; --k) {
        const auto got = queue.next(capacity, /*ignore_capacity=*/true);
        expect_same(got, reference.next(capacity, true));
        if (!got) break;
        if (prng.chance(0.5) && got->q <= capacity) {
          capacity -= got->q;
          queue.take();
          reference.take();
        } else {
          queue.keep();
          reference.keep();
          break;
        }
      }
      // Phase 2: capacity-gated candidates; capacity only goes down.
      while (true) {
        const auto got = queue.next(capacity);
        expect_same(got, reference.next(capacity, false));
        if (!got) break;
        if (prng.chance(0.5)) {
          capacity -= got->q;
          queue.take();
          reference.take();
        } else {
          queue.keep();
          reference.keep();
        }
        if (prng.chance(0.1)) capacity -= prng.uniform_int(0, 2);
      }
      queue.end_pass();
      ASSERT_EQ(queue.size(), reference.size());
      ASSERT_EQ(queue.empty(), reference.size() == 0);
      for (const ProcCount q : widths)
        if (reference.count(q) == 0) emptied[static_cast<std::size_t>(q)] = true;
    }

    // Drain: what is left must come out in the same rank order.
    queue.begin_pass();
    reference.begin_pass();
    while (const auto got = queue.next(0, /*ignore_capacity=*/true)) {
      expect_same(got, reference.next(0, true));
      queue.take();
      reference.take();
    }
    EXPECT_FALSE(reference.next(0, true).has_value());
    queue.end_pass();
    EXPECT_TRUE(queue.empty());
  }
  EXPECT_GT(refills, 0) << "no bucket emptied and refilled across passes";
}

INSTANTIATE_TEST_SUITE_P(
    MachineSizes, BackfillQueueDifferential,
    ::testing::Combine(::testing::Values(ProcCount{1}, ProcCount{7},
                                         ProcCount{128}),
                       ::testing::Bool()));

TEST(BackfillQueue, RejectsDemandsOutsideTheMachine) {
  BackfillQueue queue(4);
  EXPECT_THROW(queue.insert(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(queue.insert(0, 0, 5), std::invalid_argument);
  queue.insert(0, 0, 4);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BackfillQueue, RetiredBucketSitsOutTheRestOfThePass) {
  BackfillQueue queue(8);
  queue.insert(0, 0, 6);
  queue.insert(1, 1, 2);
  queue.insert(2, 2, 6);
  queue.begin_pass();
  // Capacity 4: the q=6 bucket retires at its head; only job 1 surfaces.
  const auto first = queue.next(4);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1);
  queue.take();
  EXPECT_FALSE(queue.next(2).has_value());
  queue.end_pass();
  // Retired jobs stay pending, in rank order.
  queue.begin_pass();
  const auto head = queue.next(8);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->id, 0);
  queue.keep();
  const auto second = queue.next(8);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 2);
  queue.keep();
  queue.end_pass();
  EXPECT_EQ(queue.size(), 2u);
}

// --- EventTimes --------------------------------------------------------------

Time reference_next_after(std::set<Time>& times, Time t) {
  const auto it = times.upper_bound(t);
  if (it == times.end()) {
    times.clear();
    return kTimeInfinity;
  }
  const Time next = *it;
  times.erase(times.begin(), std::next(it));
  return next;
}

class EventTimesDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(EventTimesDifferential, MatchesAnOrderedSet) {
  const bool arena_backed = GetParam();
  Arena arena;
  Prng prng(arena_backed ? 77 : 78);
  int drained = 0;
  for (int run = 0; run < 200; ++run) {
    if (arena_backed) arena.reset();
    EventTimes events(arena_backed ? &arena : nullptr);
    std::set<Time> reference;
    Time t = prng.uniform_int(0, 20);
    for (int step = 0; step < 60; ++step) {
      // Pushes cluster so duplicates are common; some land at or before t.
      for (int k = static_cast<int>(prng.uniform_int(0, 3)); k > 0; --k) {
        const Time at = std::max<Time>(0, t + prng.uniform_int(-5, 12));
        events.push(at);
        reference.insert(at);
      }
      // Mostly the schedulers' monotone clock, sometimes an arbitrary probe.
      const Time probe =
          prng.chance(0.1) ? prng.uniform_int(0, t + 20) : t;
      const Time got = events.next_after(probe);
      ASSERT_EQ(got, reference_next_after(reference, probe))
          << "run " << run << " step " << step << " t=" << probe;
      if (got == kTimeInfinity) {
        ++drained;
        // Drained stays drained until the next push.
        ASSERT_EQ(events.next_after(probe), kTimeInfinity);
      } else {
        t = got;
      }
    }
  }
  EXPECT_GT(drained, 0) << "no run drained the queue";
}

INSTANTIATE_TEST_SUITE_P(Backing, EventTimesDifferential, ::testing::Bool());

TEST(EventTimes, DuplicatesCoalesceIntoOneWakeUp) {
  EventTimes events;
  for (const Time at : {5, 3, 5, 9, 3, 5}) events.push(at);
  EXPECT_EQ(events.next_after(0), 3);
  EXPECT_EQ(events.next_after(3), 5);
  events.push(4);  // already behind the clock: consumed, never returned
  EXPECT_EQ(events.next_after(5), 9);
  EXPECT_EQ(events.next_after(9), kTimeInfinity);
  EXPECT_EQ(events.next_after(9), kTimeInfinity);
}

}  // namespace
}  // namespace resched
