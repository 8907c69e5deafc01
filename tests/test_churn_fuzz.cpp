// Differential churn fuzz: the incremental replan path must stay
// bit-identical to a full re-solve, event by event, under randomized job
// streams and churn (cancellations, availability drops, reservation moves).
//
// Three layers:
//  * ChurnGen contract tests (validation, determinism, shape bounds).
//  * A direct replan-vs-schedule oracle on randomized live states, outside
//    the harness: build the absolute-time profile by hand, replan, and
//    compare against schedule() on the scratch translation -- the whole
//    plan for append-only schedulers, the starts at now (and the profile
//    they leave) for decision-only ones. This pins the time-translation
//    invariance of every incremental-capable scheduler with no service
//    loop in between.
//  * Registry-wide harness fuzz: run_service_step with verify_incremental
//    (the loop RESCHED_CHECKs both paths per decision) plus an aggressive
//    churn stream, across every registered scheduler that advertises
//    incremental_replan. Accounting invariants close the loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algorithms/scheduler.hpp"
#include "core/profile_allocator.hpp"
#include "generators/churn.hpp"
#include "scratch_only.hpp"
#include "sim/service_sim.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

ChurnConfig aggressive_churn() {
  ChurnConfig churn;
  churn.events_per_kilotick = 40.0;
  churn.max_drop_width = 6;
  churn.drop_duration_min = 10;
  churn.drop_duration_max = 200;
  churn.drop_lead_max = 120;
  churn.move_shift_max = 150;
  return churn;
}

TEST(ChurnGen, RejectsInvalidConfigs) {
  EXPECT_THROW(ChurnGen(ChurnConfig{}, 1), std::invalid_argument);
  ChurnConfig churn = aggressive_churn();
  churn.cancel_waiting_weight = -1.0;
  EXPECT_THROW(ChurnGen(churn, 1), std::invalid_argument);
  churn = aggressive_churn();
  churn.cancel_waiting_weight = 0.0;
  churn.cancel_running_weight = 0.0;
  churn.availability_drop_weight = 0.0;
  churn.reservation_move_weight = 0.0;
  EXPECT_THROW(ChurnGen(churn, 1), std::invalid_argument);
  churn = aggressive_churn();
  churn.drop_duration_min = 10;
  churn.drop_duration_max = 5;
  EXPECT_THROW(ChurnGen(churn, 1), std::invalid_argument);
}

TEST(ChurnGen, StreamIsDeterministicAndInBounds) {
  const ChurnConfig churn = aggressive_churn();
  ChurnGen a(churn, 99);
  ChurnGen b(churn, 99);
  ChurnGen c(churn, 100);
  bool any_difference = false;
  for (int i = 0; i < 500; ++i) {
    const ChurnEvent ea = a.next();
    const ChurnEvent eb = b.next();
    const ChurnEvent ec = c.next();
    EXPECT_EQ(ea, eb);
    any_difference = any_difference || !(ea == ec);
    EXPECT_GE(ea.gap, 1);
    EXPECT_GE(ea.width, 1);
    EXPECT_LE(ea.width, churn.max_drop_width);
    EXPECT_GE(ea.duration, churn.drop_duration_min);
    EXPECT_LE(ea.duration, churn.drop_duration_max);
    EXPECT_GE(ea.lead, 0);
    EXPECT_LE(ea.lead, churn.drop_lead_max);
    EXPECT_GE(ea.shift, -churn.move_shift_max);
    EXPECT_LE(ea.shift, churn.move_shift_max);
  }
  EXPECT_TRUE(any_difference) << "different seeds must diverge";
}

TEST(ChurnGen, KindNamesRoundTrip) {
  EXPECT_STREQ(to_string(ChurnKind::kCancelWaiting), "cancel_waiting");
  EXPECT_STREQ(to_string(ChurnKind::kCancelRunning), "cancel_running");
  EXPECT_STREQ(to_string(ChurnKind::kAvailabilityDrop), "availability_drop");
  EXPECT_STREQ(to_string(ChurnKind::kReservationMove), "reservation_move");
}

// ---- direct replan-vs-schedule oracle ------------------------------------

std::vector<std::string> incremental_schedulers() {
  std::vector<std::string> names;
  for (const SchedulerInfo& info : registered_scheduler_info())
    if (info.capabilities.incremental_replan &&
        info.capabilities.reservations)
      names.push_back(info.name);
  return names;
}

TEST(ReplanOracle, RegistryExposesIncrementalSchedulers) {
  const std::vector<std::string> names = incremental_schedulers();
  // The three production backfilling policies and the paper's list
  // scheduler all share their core loop between schedule() and replan().
  for (const char* expected :
       {"easy", "conservative", "fcfs", "lsrc", "lsrc-lpt"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
}

TEST(ReplanOracle, ReplanMatchesScheduleOnRandomLiveStates) {
  constexpr ProcCount kM = 16;
  for (const std::string& name : incremental_schedulers()) {
    const auto scheduler = make_scheduler(name);
    Prng prng(4242);
    for (int trial = 0; trial < 60; ++trial) {
      const Time now = prng.uniform_int(0, 5000);

      // Random running jobs / availability windows relative to `now`.
      struct Block {
        Time start = 0, end = 0;
        ProcCount q = 1;
      };
      std::vector<Block> blocks;
      StepProfile capacity(kM);
      const int block_count = static_cast<int>(prng.uniform_int(0, 6));
      for (int b = 0; b < block_count; ++b) {
        const Time start = now + prng.uniform_int(0, 80);
        const Time end = start + prng.uniform_int(1, 120);
        const ProcCount q = static_cast<ProcCount>(prng.uniform_int(1, 4));
        if (capacity.min_in(start, end) < q) continue;
        capacity.add(start, end, -static_cast<std::int64_t>(q));
        blocks.push_back(Block{start, end, q});
      }

      // Random waiting queue; absolute releases <= now, FCFS order.
      const int k = static_cast<int>(prng.uniform_int(1, 12));
      std::vector<Job> queue;
      std::vector<Job> scratch_jobs;
      Time release = now > 200 ? now - 200 : 0;
      for (int j = 0; j < k; ++j) {
        const ProcCount q = static_cast<ProcCount>(prng.uniform_int(1, kM));
        const Time p = prng.uniform_int(1, 60);
        release = std::min<Time>(now, release + prng.uniform_int(0, 30));
        queue.push_back(Job{static_cast<JobId>(j), q, p, release, ""});
        scratch_jobs.push_back(Job{static_cast<JobId>(j), q, p, 0, ""});
      }

      // Scratch translation: blocks become reservations relative to now.
      std::vector<Reservation> held;
      ReservationId rid = 0;
      for (const Block& block : blocks) {
        held.push_back(Reservation{rid++, block.q, block.end - block.start,
                                   block.start - now, ""});
      }
      const Instance instance(kM, scratch_jobs, held);
      const Schedule expected = scheduler->schedule(instance).value();

      FreeProfile free{capacity};
      if (scheduler->capabilities().append_only_replan) {
        // Append-only: the whole plan, committed permanently -- the
        // service keeps it that way across decisions.
        const Schedule got =
            scheduler->replan(ReplanRequest{free, queue, kM, now});
        for (int j = 0; j < k; ++j) {
          ASSERT_EQ(got.start(static_cast<JobId>(j)),
                    expected.start(static_cast<JobId>(j)) + now)
              << name << " trial " << trial << " job " << j << " now "
              << now;
        }
        // The plan's occupancy is exactly its jobs': returning each job's
        // (start, p, q) by value -- what the service does when churn
        // drops the plan -- restores the profile exactly.
        ASSERT_EQ(free.open_commits(), 0u) << name << " trial " << trial;
        for (int j = 0; j < k; ++j) {
          const Job& job = queue[static_cast<std::size_t>(j)];
          const Time start = got.start(static_cast<JobId>(j));
          free.adjust_capacity(start, start + job.p,
                               static_cast<std::int64_t>(job.q));
        }
        ASSERT_EQ(free.profile(), capacity) << name << " trial " << trial;
        continue;
      }
      // Decision-only: the same jobs start at now, nothing else is
      // scheduled, and the profile loses exactly the started jobs.
      const Schedule got =
          scheduler->replan(ReplanRequest{free, queue, kM, now});
      StepProfile after = capacity;
      for (int j = 0; j < k; ++j) {
        const auto id = static_cast<JobId>(j);
        const bool starts_now = expected.start(id) == 0;
        ASSERT_EQ(got.is_scheduled(id), starts_now)
            << name << " trial " << trial << " job " << j << " now " << now;
        if (!starts_now) continue;
        ASSERT_EQ(got.start(id), now) << name << " trial " << trial;
        after.add(now, now + queue[static_cast<std::size_t>(j)].p,
                  -static_cast<std::int64_t>(
                      queue[static_cast<std::size_t>(j)].q));
      }
      ASSERT_EQ(free.profile(), after) << name << " trial " << trial;
      ASSERT_EQ(free.open_commits(), 0u) << name << " trial " << trial;
    }
  }
}

// ---- registry-wide harness fuzz ------------------------------------------

LoadGenConfig fuzz_load() {
  LoadGenConfig load;
  load.m = 24;
  load.p_min = 1;
  load.p_max = 60;
  load.alpha = Rational(1, 2);
  return load;
}

ServiceConfig fuzz_config() {
  ServiceConfig config;
  config.phases = ServicePhases{30, 150, 30};
  config.dispatch_window = 48;
  config.bail_queue_depth = 2000;
  config.queue_sample_interval = 97;
  config.record_wall_latency = false;
  config.verify_incremental = true;  // oracle: both paths, per decision
  config.compact_interval = 257;     // force frequent history compaction
  config.churn = aggressive_churn();
  return config;
}

class ChurnDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnDifferential, IncrementalStaysBitIdenticalAcrossRegistry) {
  for (const std::string& name : incremental_schedulers()) {
    const auto scheduler = make_scheduler(name);
    for (const double rate : {40.0, 120.0, 400.0}) {
      const ServiceStepResult step = run_service_step(
          *scheduler, fuzz_load(), GetParam(), rate, fuzz_config());
      // verify_incremental ran the full re-solve oracle inside every
      // dispatch; reaching here means no decision diverged. Close the
      // accounting: every arrival completed, was canceled, or still waits.
      EXPECT_EQ(step.arrivals,
                step.completed + step.canceled + step.end_queue_depth)
          << name << " rate " << rate;
      EXPECT_EQ(step.decisions,
                step.decisions_incremental)
          << name << " rate " << rate;
      EXPECT_EQ(step.decisions_scratch, step.decisions_incremental)
          << "oracle mode runs both paths per decision";
      EXPECT_GT(step.decisions, 0u);
      EXPECT_GT(step.churn_events + step.churn_skipped, 0u)
          << "the churn chain must have fired";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(ChurnDifferential, ChurnStepsAreDeterministic) {
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = fuzz_config();
  const ServiceStepResult a =
      run_service_step(*scheduler, fuzz_load(), 21, 150.0, config);
  const ServiceStepResult b =
      run_service_step(*scheduler, fuzz_load(), 21, 150.0, config);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.churn_events, 0u);
}

TEST(ChurnDifferential, IncrementalDecisionsStayNearlyAllocationFreeUnderChurn) {
  // Allocation leg of the fuzz: even with aggressive churn forcing plan
  // drops, capacity mutations and compactions, the pure incremental path
  // must keep its timed decisions on the arena and reused buffers.
  // decision_allocs is deterministic (heap traffic is a function of the
  // simulated state), so this is a hard pin, not a flaky heuristic.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    for (const std::string& name : incremental_schedulers()) {
      ServiceConfig config = fuzz_config();
      config.verify_incremental = false;  // oracle re-solves would dominate
      const ServiceStepResult step = run_service_step(
          *make_scheduler(name), fuzz_load(), seed, 150.0, config);
      ASSERT_GT(step.decisions_measured, 50u) << name << " seed " << seed;
      EXPECT_LT(static_cast<double>(step.decision_allocs),
                1.0 * static_cast<double>(step.decisions_measured))
          << name << " seed " << seed
          << ": decision_allocs=" << step.decision_allocs << " over "
          << step.decisions_measured << " decisions";
    }
  }
}

TEST(ChurnDifferential, IncrementalAndScratchProduceTheSameService) {
  // Beyond per-decision start equality (verify mode), the two planning
  // paths must yield the same *service-level* outcome: identical job
  // streams, waits, responses and queue evolution. ScratchOnly hides the
  // capability, so the same algorithm runs on the scratch path.
  for (const std::string& name : incremental_schedulers()) {
    ServiceConfig config = fuzz_config();
    config.verify_incremental = false;
    const ServiceStepResult inc =
        run_service_step(*make_scheduler(name), fuzz_load(), 77, 180.0, config);
    const ServiceStepResult scratch =
        run_service_step(ScratchOnly(name), fuzz_load(), 77, 180.0, config);
    EXPECT_EQ(inc.arrivals, scratch.arrivals) << name;
    EXPECT_EQ(inc.completed, scratch.completed) << name;
    EXPECT_EQ(inc.canceled, scratch.canceled) << name;
    EXPECT_EQ(inc.measured, scratch.measured) << name;
    EXPECT_EQ(inc.decisions, scratch.decisions) << name;
    EXPECT_EQ(inc.sim_end, scratch.sim_end) << name;
    EXPECT_EQ(inc.wait_ticks, scratch.wait_ticks) << name;
    EXPECT_EQ(inc.response_ticks, scratch.response_ticks) << name;
    EXPECT_EQ(inc.queue_depth, scratch.queue_depth) << name;
    EXPECT_EQ(inc.decisions_scratch, 0u) << name;
    EXPECT_EQ(scratch.decisions_incremental, 0u) << name;
    EXPECT_EQ(inc.decisions_incremental, scratch.decisions_scratch) << name;
  }
}

}  // namespace
}  // namespace resched
