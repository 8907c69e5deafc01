// Shared-const-read stress: many threads read ONE const StepProfile (and
// one const Instance through the whole scheduler stack) concurrently.
//
// StepProfile holds no cache, so its const queries touch no mutable state
// and concurrent reads need no synchronization (core/step_profile.hpp).
// CampaignRunner's share_instances mode relies on exactly that. These tests
// are the ThreadSanitizer targets of the CI tsan job: correctness is
// asserted here (every thread must see the single-threaded reference
// answers), and TSan asserts that the reads share no mutable state in the
// same run -- a cache added to the profile later without synchronization
// would fail here.
//
// Query mix: min_in / max_in / first_below / first_at_least / integral /
// time_to_accumulate over windows spanning thousands of segments.
#include "core/step_profile.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "algorithms/scheduler.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

constexpr std::size_t kThreads = 8;

StepProfile fragmented_profile() {
  StepProfile profile(64);
  Prng prng(20260726);
  // ~2000 windowed adds produce thousands of segments over [0, 200k), with
  // plenty of room for windows spanning hundreds of them.
  for (int i = 0; i < 2000; ++i) {
    const Time from = prng.uniform_int(0, 200000);
    const Time to = from + prng.uniform_int(1, 800);
    profile.add(from, to, prng.uniform_int(-2, 3));
  }
  return profile;
}

struct Query {
  Time from;
  Time to;
  std::int64_t threshold;
  std::int64_t target;
};

struct Expected {
  std::int64_t min;
  std::int64_t max;
  Time first_below;
  Time first_at_least;
  std::int64_t integral;
  Time accumulate;
};

TEST(SharedProfileStress, EightThreadsHammerOneConstProfile) {
  const StepProfile profile = fragmented_profile();

  std::vector<Query> queries;
  Prng prng(99);
  for (int i = 0; i < 64; ++i) {
    Query q{};
    q.from = prng.uniform_int(0, 150000);
    q.to = q.from + prng.uniform_int(50000, 120000);  // wide windows
    q.threshold = prng.uniform_int(58, 70);
    q.target = prng.uniform_int(1, 1 << 20);
    queries.push_back(q);
  }

  // Reference answers from a private copy, computed before any thread
  // starts.
  const StepProfile reference = profile;
  std::vector<Expected> expected;
  expected.reserve(queries.size());
  for (const Query& q : queries)
    expected.push_back(Expected{
        reference.min_in(q.from, q.to), reference.max_in(q.from, q.to),
        reference.first_below(q.from, q.to, q.threshold),
        reference.first_at_least(q.from, q.threshold),
        reference.integral(q.from, q.to),
        reference.time_to_accumulate(q.from, q.target)});

  // All threads start together and read the shared object concurrently.
  std::atomic<int> mismatches{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int round = 0; round < 3; ++round) {
        // Distinct per-thread phase so threads read different windows at
        // the same moment.
        for (std::size_t k = 0; k < queries.size(); ++k) {
          const std::size_t idx = (k + t * 7 + static_cast<std::size_t>(
                                                   round)) % queries.size();
          const Query& q = queries[idx];
          const Expected& e = expected[idx];
          if (profile.min_in(q.from, q.to) != e.min ||
              profile.max_in(q.from, q.to) != e.max ||
              profile.first_below(q.from, q.to, q.threshold) !=
                  e.first_below ||
              profile.first_at_least(q.from, q.threshold) !=
                  e.first_at_least ||
              profile.integral(q.from, q.to) != e.integral ||
              profile.time_to_accumulate(q.from, q.target) != e.accumulate)
            mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SharedProfileStress, MutationAfterSharedReadsStaysCoherent) {
  StepProfile profile = fragmented_profile();
  // Concurrent const reads...
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t)
      pool.emplace_back(
          [&] { (void)profile.min_in(0, 180000); });
    for (std::thread& thread : pool) thread.join();
  }
  // ...then an exclusive mutation, after which queries must see the new
  // function exactly.
  profile.add(1000, 90000, 5);
  const StepProfile reference = profile;
  EXPECT_EQ(profile.min_in(500, 175000), reference.min_in(500, 175000));
  EXPECT_EQ(profile.integral(500, 175000), reference.integral(500, 175000));
}

TEST(SharedInstanceStress, ConcurrentSchedulersAgreeOnOneSharedInstance) {
  // The campaign share_instances mode in miniature: one generated instance,
  // every scheduler task reading it concurrently, results identical to the
  // single-threaded reference run.
  WorkloadConfig config;
  config.n = 120;
  config.m = 32;
  config.alpha = Rational(1, 2);
  Instance instance = random_workload(config, 4242);
  AlphaReservationConfig resa;
  resa.alpha = Rational(1, 2);
  resa.count = 8;
  resa.horizon = 800;
  resa.max_duration = 100;
  instance = with_alpha_restricted_reservations(instance, resa, 17);

  const std::vector<std::string> names = {"lsrc", "conservative", "easy",
                                          "fcfs"};
  std::vector<Schedule> reference;
  reference.reserve(names.size());
  for (const std::string& name : names)
    reference.push_back(make_scheduler(name)->schedule(instance).value());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t round = 0; round < 2; ++round) {
        const std::size_t s = (t + round) % names.size();
        const Schedule schedule =
            make_scheduler(names[s])->schedule(instance).value();
        if (!(schedule == reference[s]))
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace resched
