#include "sim/service_sim.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "algorithms/scheduler.hpp"
#include "plans_ahead.hpp"
#include "scratch_only.hpp"

namespace resched {
namespace {

LoadGenConfig small_load() {
  LoadGenConfig load;
  load.m = 16;
  load.p_min = 1;
  load.p_max = 20;
  load.alpha = Rational(1, 2);
  return load;
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.phases = ServicePhases{20, 100, 20};
  config.dispatch_window = 32;
  config.bail_queue_depth = 1000;
  config.queue_sample_interval = 100;
  config.record_wall_latency = false;  // deterministic results
  return config;
}

TEST(ServiceSim, StepIsDeterministicForFixedSeed) {
  const auto scheduler = make_scheduler("easy");
  const ServiceStepResult a =
      run_service_step(*scheduler, small_load(), 42, 50.0, small_config());
  const ServiceStepResult b =
      run_service_step(*scheduler, small_load(), 42, 50.0, small_config());
  EXPECT_EQ(a, b);  // every field incl. all histogram buckets
  const ServiceStepResult c =
      run_service_step(*scheduler, small_load(), 43, 50.0, small_config());
  EXPECT_NE(a, c);
}

TEST(ServiceSim, SteadyStateDecisionsAreNearlyAllocationFree) {
  // The memory-subsystem claim: a steady-state incremental decision runs
  // entirely on the decision arena and capacity-reusing member buffers.
  // decision_allocs counts every heap event inside the timed
  // measure-window decisions (operator-new hook + instrumented malloc
  // sites); the residue is rare amortized capacity growth, far below one
  // allocation per decision on average.
  for (const char* name :
       {"easy", "conservative", "fcfs", "lsrc", "lsrc-lpt"}) {
    ServiceConfig config = small_config();
    config.phases = ServicePhases{100, 400, 50};  // long warm steady state
    const ServiceStepResult step = run_service_step(
        *make_scheduler(name), small_load(), 42, 50.0, config);
    ASSERT_GT(step.decisions_measured, 100u) << name;
    EXPECT_LT(static_cast<double>(step.decision_allocs),
              0.5 * static_cast<double>(step.decisions_measured))
        << name << ": decision_allocs=" << step.decision_allocs
        << " over " << step.decisions_measured << " decisions";
  }
}

TEST(ServiceSim, SubSaturationStepServesEverything) {
  const auto scheduler = make_scheduler("conservative");
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 7, 10.0, small_config());
  EXPECT_EQ(step.arrivals, small_config().phases.total());
  EXPECT_EQ(step.completed, step.arrivals);
  EXPECT_EQ(step.measured, small_config().phases.measure);
  EXPECT_EQ(step.end_queue_depth, 0u);
  EXPECT_FALSE(step.saturated);
  // Every measured job contributes exactly one wait and one response sample.
  EXPECT_EQ(step.wait_ticks.count(), small_config().phases.measure);
  EXPECT_EQ(step.response_ticks.count(), small_config().phases.measure);
  // Response = wait + service, so response dominates wait pointwise.
  EXPECT_GE(step.response_ticks.percentile(0.5),
            step.wait_ticks.percentile(0.5));
  EXPECT_GT(step.decisions, 0u);
  // Wall clock off => no decision samples, by construction.
  EXPECT_EQ(step.decision_ns.count(), 0u);
  EXPECT_GT(step.sustained_rate, 0.0);
}

TEST(ServiceSim, OverloadSaturatesAndBails) {
  // Offered rate far past capacity (m = 16, mean work >> 16/tick): the
  // backlog must trip the bail depth, stop the arrival chain, and mark the
  // step saturated -- with every started job still drained (no machine
  // leaks, checked inside run_service_step).
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{10, 200, 10};
  config.bail_queue_depth = 50;
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 3, 5000.0, config);
  EXPECT_TRUE(step.saturated);
  EXPECT_LT(step.arrivals, config.phases.total());
  EXPECT_GT(step.end_queue_depth, config.bail_queue_depth / 2);
  EXPECT_LT(step.completed, step.arrivals);
}

TEST(ServiceSim, SweepFindsAKnee) {
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{10, 80, 10};
  const ServiceSweepResult sweep = run_service_sweep(
      *scheduler, small_load(), 42, 100.0, 1000.0, config);
  ASSERT_EQ(sweep.steps.size(), 10u);
  for (std::size_t i = 0; i < sweep.steps.size(); ++i)
    EXPECT_DOUBLE_EQ(sweep.steps[i].offered_rate,
                     100.0 * static_cast<double>(i + 1));
  // m = 16 with mean work ~ up to a hundred proc-ticks/job cannot sustain
  // 1000 jobs/kilotick: a knee must exist, and by construction it is the
  // first saturated step.
  ASSERT_TRUE(sweep.has_knee());
  EXPECT_GT(sweep.knee_rate(), 0.0);
  for (int i = 0; i < sweep.knee_index; ++i)
    EXPECT_FALSE(sweep.steps[static_cast<std::size_t>(i)].saturated);
  EXPECT_TRUE(
      sweep.steps[static_cast<std::size_t>(sweep.knee_index)].saturated);
}

TEST(ServiceSim, SweepIsDeterministicForFixedSeed) {
  const auto scheduler = make_scheduler("fcfs");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{10, 50, 10};
  const ServiceSweepResult a = run_service_sweep(
      *scheduler, small_load(), 9, 50.0, 250.0, config);
  const ServiceSweepResult b = run_service_sweep(
      *scheduler, small_load(), 9, 50.0, 250.0, config);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  EXPECT_EQ(a.knee_index, b.knee_index);
  for (std::size_t i = 0; i < a.steps.size(); ++i)
    EXPECT_EQ(a.steps[i], b.steps[i]);
}

TEST(ServiceSim, SchedulersFaceIdenticalArrivalsPerStep) {
  // The per-step seed derives from the root seed alone, so two schedulers
  // swept with identical parameters see the same offered stream: arrival
  // counts and rates line up step for step.
  ServiceConfig config = small_config();
  config.phases = ServicePhases{10, 50, 10};
  const ServiceSweepResult easy = run_service_sweep(
      *make_scheduler("easy"), small_load(), 11, 100.0, 300.0, config);
  const ServiceSweepResult fcfs = run_service_sweep(
      *make_scheduler("fcfs"), small_load(), 11, 100.0, 300.0, config);
  ASSERT_EQ(easy.steps.size(), fcfs.steps.size());
  for (std::size_t i = 0; i < easy.steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(easy.steps[i].offered_rate,
                     fcfs.steps[i].offered_rate);
    EXPECT_EQ(easy.steps[i].arrivals, fcfs.steps[i].arrivals);
  }
}

TEST(ServiceSim, DispatchWindowBoundsDecisionSize) {
  // A window of 1 degrades to strict FCFS head-dispatch but must still
  // serve the whole stream at a modest rate.
  const auto scheduler = make_scheduler("conservative");
  ServiceConfig config = small_config();
  config.dispatch_window = 1;
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 5, 20.0, config);
  EXPECT_EQ(step.completed, config.phases.total());
}

TEST(ServiceSim, QueueDepthIsSampledDuringMeasureWindow) {
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.queue_sample_interval = 50;
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 13, 100.0, config);
  // At least the measure-start sample plus periodic ones.
  EXPECT_GE(step.queue_depth.count(), 2u);
  EXPECT_LE(static_cast<std::size_t>(step.queue_depth.max()),
            step.peak_queue_depth);
}

TEST(ServiceSim, RejectsReservationIncapableScheduler) {
  // Running jobs are modeled as reservations; shelf packers cannot consume
  // them and must be rejected up front with a typed error, not fail deep
  // inside a dispatch.
  const auto shelf = make_scheduler("shelf-ff");
  EXPECT_THROW(run_service_step(*shelf, small_load(), 1, 10.0,
                                small_config()),
               std::invalid_argument);
}

TEST(ServiceSim, RejectsBadParameters) {
  const auto scheduler = make_scheduler("easy");
  EXPECT_THROW(run_service_step(*scheduler, small_load(), 1, 0.0,
                                small_config()),
               std::invalid_argument);
  EXPECT_THROW(run_service_step(*scheduler, small_load(), 1,
                                std::numeric_limits<double>::infinity(),
                                small_config()),
               std::invalid_argument);
  ServiceConfig config = small_config();
  config.dispatch_window = 0;
  EXPECT_THROW(run_service_step(*scheduler, small_load(), 1, 1.0, config),
               std::invalid_argument);
  EXPECT_THROW(run_service_sweep(*scheduler, small_load(), 1, 0.0, 10.0,
                                 small_config()),
               std::invalid_argument);
}

TEST(ServiceSim, RejectsOverflowingPhaseTotal) {
  // Regression: warmup = 2^64 - 1 (a negative count cast to unsigned) plus
  // measure = 1 wrapped ServicePhases::total() to 0, and the step reported
  // an empty, unsaturated run instead of rejecting the config.
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{UINT64_MAX, 1, 0};
  EXPECT_THROW(run_service_step(*scheduler, small_load(), 1, 10.0, config),
               std::invalid_argument);
  config.phases = ServicePhases{1, UINT64_MAX - 1, 1};
  EXPECT_THROW(run_service_step(*scheduler, small_load(), 1, 10.0, config),
               std::invalid_argument);
}

TEST(ServiceSim, BoundaryTickCapacityIsExact) {
  // Regression (phantom one-tick reservation): when an arrival fired at the
  // same tick as a pending completion, the old dispatcher presented the
  // finishing job as a one-tick reservation, sliding starts a tick late.
  // Pin the boundary exactly: m = 1 with fixed p = 10 under heavy backlog
  // must run jobs back to back -- the step ends exactly first_arrival +
  // 10 * total, with zero idle ticks between consecutive jobs.
  LoadGenConfig load;
  load.m = 1;
  load.p_min = 5;
  load.p_max = 5;
  load.log_uniform_p = false;
  load.alpha = Rational(1);
  ServiceConfig config = small_config();
  config.phases = ServicePhases{20, 60, 20};

  LoadGen reference(load, 31);
  reference.set_rate(400.0);
  const Time first_arrival = reference.next().time;

  const ServiceStepResult step =
      run_service_step(*make_scheduler("easy"), load, 31, 400.0, config);
  EXPECT_EQ(step.completed, config.phases.total());
  EXPECT_EQ(step.sim_end,
            first_arrival + 5 * static_cast<Time>(config.phases.total()));
  // The drain actually fired: an arrival whose inter-arrival gap exceeds
  // the service time is enqueued before the same-tick completion, so its
  // dispatch must defer to that completion instead of planning around a
  // phantom one-tick reservation.
  EXPECT_GT(step.deferred_dispatches, 0u);
}

TEST(ServiceSim, QueueDepthIsNeverSilentlyEmpty) {
  // Regression (sampler lifecycle): a backlog bail during *warmup* used to
  // abort the step before the first measure arrival ever scheduled the
  // sampling chain, leaving queue_depth empty for a perfectly valid phase
  // config. The chain is now anchored at simulation start and the bail
  // records a final sample as divergence evidence.
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{100, 100, 10};
  config.bail_queue_depth = 20;  // trips well inside warmup
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 3, 5000.0, config);
  EXPECT_TRUE(step.saturated);
  EXPECT_LT(step.arrivals, config.phases.warmup);  // bailed during warmup
  EXPECT_GE(step.queue_depth.count(), 1u);
  EXPECT_GT(step.queue_depth.max(),
            static_cast<std::int64_t>(config.bail_queue_depth / 2));
}

TEST(ServiceSim, SweepStepCountIsExact) {
  // Regression (float step enumeration): the old per-iteration
  // `step_size * (i + 1) > step_stop * (1 + 1e-9)` accumulated rounding
  // error; 0.1 steps to 0.3 must be exactly {0.1, 0.2, 0.3} and a stop
  // between steps truncates.
  EXPECT_EQ(service_sweep_step_count(0.1, 0.3), 3u);
  EXPECT_EQ(service_sweep_step_count(0.1, 0.7), 7u);
  EXPECT_EQ(service_sweep_step_count(100.0, 250.0), 2u);
  EXPECT_EQ(service_sweep_step_count(100.0, 100.0), 1u);
  EXPECT_EQ(service_sweep_step_count(0.2, 1.0), 5u);
  EXPECT_THROW((void)service_sweep_step_count(0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)service_sweep_step_count(2.0, 1.0),
               std::invalid_argument);
  // Regression: a non-finite or huge floor() was cast to size_t (undefined
  // behaviour; the sweep silently ran zero steps). The count must also fit
  // knee_index, an int.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)service_sweep_step_count(1.0, kInf),
               std::invalid_argument);
  EXPECT_THROW((void)service_sweep_step_count(kInf, kInf),
               std::invalid_argument);
  EXPECT_THROW((void)service_sweep_step_count(kNaN, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)service_sweep_step_count(1e-300, 200.0),
               std::invalid_argument);
  EXPECT_EQ(service_sweep_step_count(1.0, static_cast<double>(INT_MAX)),
            static_cast<std::size_t>(INT_MAX));
  EXPECT_THROW((void)service_sweep_step_count(
                   1.0, static_cast<double>(INT_MAX) + 1.0),
               std::invalid_argument);

  const auto scheduler = make_scheduler("fcfs");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{1, 2, 1};
  const ServiceSweepResult sweep = run_service_sweep(
      *scheduler, small_load(), 17, 0.1, 0.3, config);
  ASSERT_EQ(sweep.steps.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep.steps.back().offered_rate, 0.1 * 3.0);
}

TEST(ServiceSim, DecisionCountersAreConsistent) {
  // Regression (decisions vs decision_ns): `decisions` counts every phase
  // while the wall recorder only samples the measure window; the split
  // decisions_measured counter makes the relationship exact.
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.record_wall_latency = true;
  const ServiceStepResult timed =
      run_service_step(*scheduler, small_load(), 42, 50.0, config);
  EXPECT_EQ(timed.decision_ns.count(), timed.decisions_measured);
  EXPECT_GT(timed.decisions_measured, 0u);
  EXPECT_GE(timed.decisions, timed.decisions_measured);

  config.record_wall_latency = false;
  const ServiceStepResult untimed =
      run_service_step(*scheduler, small_load(), 42, 50.0, config);
  EXPECT_EQ(untimed.decision_ns.count(), 0u);
  EXPECT_EQ(untimed.decisions_measured, timed.decisions_measured);
}

TEST(ServiceSim, IncrementalPathIsUsedAndAccounted) {
  const ServiceConfig config = small_config();
  const ServiceStepResult inc =
      run_service_step(*make_scheduler("easy"), small_load(), 42, 80.0, config);
  EXPECT_EQ(inc.decisions_incremental, inc.decisions);
  EXPECT_EQ(inc.decisions_scratch, 0u);
  EXPECT_GE(inc.suffix_jobs_replanned, inc.decisions);

  const ServiceStepResult scratch =
      run_service_step(ScratchOnly("easy"), small_load(), 42, 80.0, config);
  EXPECT_EQ(scratch.decisions_scratch, scratch.decisions);
  EXPECT_EQ(scratch.decisions_incremental, 0u);
  // Same service either way: both paths start the same jobs at every
  // decision, by construction.
  EXPECT_EQ(inc.completed, scratch.completed);
  EXPECT_EQ(inc.wait_ticks, scratch.wait_ticks);
  EXPECT_EQ(inc.response_ticks, scratch.response_ticks);
  EXPECT_EQ(inc.sim_end, scratch.sim_end);
}

TEST(ServiceSim, HistoryCompactionKeepsTheProfileBounded) {
  const auto scheduler = make_scheduler("conservative");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{50, 300, 50};
  config.compact_interval = 64;
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 5, 60.0, config);
  EXPECT_EQ(step.completed, config.phases.total());
  EXPECT_GT(step.history_compactions, 0u);
  EXPECT_GT(step.compacted_segments, 0u);
}

// The conservative knee workload's shape: m = 128, runtimes up to 300, half
// the machine at most per job, under the knee (110 jobs per kilotick).
LoadGenConfig knee_load() {
  LoadGenConfig load;
  load.m = 128;
  load.p_max = 300;
  load.alpha = Rational(1, 2);
  return load;
}

ServiceConfig knee_config(Time compact_interval) {
  ServiceConfig config;
  config.phases = ServicePhases{200, 2000, 200};
  config.record_wall_latency = false;
  config.verify_incremental = true;  // the kept plan matches a re-solve
  config.compact_interval = compact_interval;
  return config;
}

TEST(ServiceSim, AppendPlanIsSolvedOnce) {
  // An append-only plan is committed permanently and kept: with no churn,
  // compaction (however often) never drops it, so each job is planned
  // exactly once, when it enters the dispatch window, and nothing is ever
  // returned to the profile.
  for (const char* name : {"conservative", "fcfs"}) {
    for (const Time interval : {Time{1}, Time{256}}) {
      const ServiceStepResult step = run_service_step(
          *make_scheduler(name), knee_load(), 7, 110.0,
          knee_config(interval));
      ASSERT_EQ(step.arrivals, 2400u) << name << " interval " << interval;
      EXPECT_EQ(step.completed, step.arrivals) << name;
      EXPECT_EQ(step.suffix_jobs_replanned, step.arrivals)
          << name << " interval " << interval;
      EXPECT_EQ(step.plan_frames_rewound, 0u)
          << name << " interval " << interval;
      EXPECT_GT(step.history_compactions, 0u) << name;
    }
  }
}

TEST(ServiceSim, ChurnDropsTheAppendPlanAndTheOracleHolds) {
  // Churn returns the waiting jobs' planned occupancy to the profile and
  // the next decision re-solves the window; verify_incremental checks
  // every decision against a full re-solve on the scratch path.
  for (const char* name : {"conservative", "fcfs"}) {
    ServiceConfig config = knee_config(256);
    config.phases = ServicePhases{100, 600, 100};
    config.churn.events_per_kilotick = 20.0;
    const ServiceStepResult step = run_service_step(
        *make_scheduler(name), knee_load(), 7, 100.0, config);
    EXPECT_GT(step.churn_events, 0u) << name;
    EXPECT_GT(step.plan_frames_rewound, 0u) << name;
    EXPECT_GT(step.suffix_jobs_replanned, step.arrivals) << name;
    EXPECT_EQ(step.decisions_scratch, step.decisions) << name;
  }
}

TEST(ServiceSim, VerifyModeRequiresIncrementalCapability) {
  // portfolio accepts reservations but does not implement replan(); asking
  // for the oracle mode must be rejected up front.
  const auto portfolio = make_scheduler("portfolio");
  ServiceConfig config = small_config();
  config.verify_incremental = true;
  EXPECT_THROW(run_service_step(*portfolio, small_load(), 1, 10.0, config),
               std::invalid_argument);
  // Without verify it degrades gracefully to the scratch path.
  config.verify_incremental = false;
  const ServiceStepResult step =
      run_service_step(*portfolio, small_load(), 1, 10.0, config);
  EXPECT_EQ(step.decisions_incremental, 0u);
  EXPECT_EQ(step.decisions_scratch, step.decisions);
}

// Test decorator: forwards to a registry scheduler and counts the calls to
// each planning entry point.
class CountingScheduler final : public Scheduler {
 public:
  explicit CountingScheduler(const std::string& name)
      : inner_(make_scheduler(name)) {}
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override {
    ++schedules;
    return inner_->schedule(instance);
  }
  [[nodiscard]] Schedule replan(const ReplanRequest& request) const override {
    ++replans;
    return inner_->replan(request);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Capabilities capabilities() const override {
    return inner_->capabilities();
  }

  mutable std::uint64_t schedules = 0;
  mutable std::uint64_t replans = 0;

 private:
  std::unique_ptr<Scheduler> inner_;
};

TEST(ServiceSim, DecisionOnlyPathNeverRunsTheBatchSolve) {
  // EASY and LSRC decide through one replan() pass per decision; the batch
  // schedule() (for lsrc, LsrcScheduler::run) runs on the service path only
  // as verify_incremental's oracle, once per decision. Churn included: it
  // perturbs the profile but never sends a decision-only scheduler to the
  // scratch path.
  for (const char* name : {"easy", "lsrc"}) {
    for (const double churn : {0.0, 20.0}) {
      ServiceConfig config = small_config();
      config.churn.events_per_kilotick = churn;
      CountingScheduler plain(name);
      const ServiceStepResult step =
          run_service_step(plain, small_load(), 42, 50.0, config);
      EXPECT_GT(step.decisions, 0u) << name;
      EXPECT_EQ(plain.schedules, 0u) << name << " churn " << churn;
      EXPECT_EQ(plain.replans, step.decisions) << name << " churn " << churn;

      config.verify_incremental = true;
      CountingScheduler verified(name);
      const ServiceStepResult checked =
          run_service_step(verified, small_load(), 42, 50.0, config);
      EXPECT_EQ(verified.schedules, checked.decisions)
          << name << " churn " << churn;
      EXPECT_EQ(verified.replans, checked.decisions)
          << name << " churn " << churn;
      if (churn > 0) {
        EXPECT_GT(checked.churn_events, 0u) << name;
      }
    }
  }
}

TEST(ServiceSim, DecisionOnlyPlanMayOnlyStartJobsNow) {
  // A decision-only scheduler's commits are permanent, so a start after
  // now would be capacity no completion ever returns. The loop must trip
  // its invariant check on the first such plan, not run on with a leak.
  for (const char* name : {"easy", "lsrc"}) {
    try {
      (void)run_service_step(PlansAhead(name), small_load(), 42, 50.0,
                             small_config());
      ADD_FAILURE() << name << ": a start after now was accepted";
    } catch (const std::invalid_argument& error) {
      ADD_FAILURE() << name << ": rejected as bad input: " << error.what();
    } catch (const std::logic_error& error) {
      EXPECT_NE(std::string(error.what()).find("scheduled a job after now"),
                std::string::npos)
          << name << ": " << error.what();
    }
  }
}

// Every deterministic field of a step result as "name=value" lines.
// decision_allocs is left out (it counts the allocator's and the standard
// library's heap traffic, not the simulation), and decision_ns is empty
// with record_wall_latency off. Recorders enter through their count,
// extremes, mean and a fixed set of percentiles.
std::string deterministic_fields(const ServiceStepResult& r) {
  std::ostringstream out;
  out.precision(17);
  const auto recorder = [&out](const char* name, const LatencyRecorder& rec) {
    out << name << ".count=" << rec.count() << '\n';
    if (rec.count() == 0) return;
    out << name << ".min=" << rec.min() << '\n'
        << name << ".max=" << rec.max() << '\n'
        << name << ".mean=" << rec.mean() << '\n';
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99})
      out << name << ".p" << q << '=' << rec.percentile(q) << '\n';
  };
  out << "offered_rate=" << r.offered_rate << '\n'
      << "arrivals=" << r.arrivals << '\n'
      << "completed=" << r.completed << '\n'
      << "canceled=" << r.canceled << '\n'
      << "measured=" << r.measured << '\n'
      << "decisions=" << r.decisions << '\n'
      << "decisions_measured=" << r.decisions_measured << '\n'
      << "peak_queue_depth=" << r.peak_queue_depth << '\n'
      << "end_queue_depth=" << r.end_queue_depth << '\n'
      << "sim_end=" << r.sim_end << '\n'
      << "decisions_incremental=" << r.decisions_incremental << '\n'
      << "decisions_scratch=" << r.decisions_scratch << '\n'
      << "suffix_jobs_replanned=" << r.suffix_jobs_replanned << '\n'
      << "plan_frames_rewound=" << r.plan_frames_rewound << '\n'
      << "history_compactions=" << r.history_compactions << '\n'
      << "compacted_segments=" << r.compacted_segments << '\n'
      << "deferred_dispatches=" << r.deferred_dispatches << '\n'
      << "scenario_windows=" << r.scenario_windows << '\n'
      << "churn_events=" << r.churn_events << '\n'
      << "churn_skipped=" << r.churn_skipped << '\n'
      << "churn_cancel_waiting=" << r.churn_cancel_waiting << '\n'
      << "churn_cancel_running=" << r.churn_cancel_running << '\n'
      << "churn_drops=" << r.churn_drops << '\n'
      << "churn_moves=" << r.churn_moves << '\n';
  recorder("wait_ticks", r.wait_ticks);
  recorder("response_ticks", r.response_ticks);
  recorder("queue_depth", r.queue_depth);
  recorder("decision_ns", r.decision_ns);
  out << "sustained_rate=" << r.sustained_rate << '\n'
      << "saturated=" << r.saturated << '\n';
  return out.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

enum class PinCase { kPlain, kChurn, kWindows, kCanceledLast };

const char* to_string(PinCase c) {
  switch (c) {
    case PinCase::kPlain: return "plain";
    case PinCase::kChurn: return "churn";
    case PinCase::kWindows: return "windows";
    case PinCase::kCanceledLast: return "canceled-last";
  }
  return "?";
}

ServiceConfig pin_config(PinCase c) {
  ServiceConfig config = small_config();
  switch (c) {
    case PinCase::kPlain:
      break;
    case PinCase::kChurn:  // all four kinds at the default weights
      config.churn.events_per_kilotick = 40.0;
      break;
    case PinCase::kWindows:
      config.availability = {AvailabilityWindow{50, 200, 4},
                             AvailabilityWindow{150, 350, 6},
                             AvailabilityWindow{400, 430, 16}};
      break;
    case PinCase::kCanceledLast:
      // Cancellations only. At this seed a job canceled while running
      // would have ended after every other event of the step, so its end
      // is the step's last instant and sets sim_end.
      config.churn.events_per_kilotick = 20.0;
      config.churn.availability_drop_weight = 0.0;
      config.churn.reservation_move_weight = 0.0;
      break;
  }
  return config;
}

struct ServicePin {
  const char* scheduler;
  PinCase pin_case;
  std::uint64_t seed;
  Time sim_end;
  std::uint64_t hash;  // fnv1a(deterministic_fields(result))
};

// Recorded from the service loop before its running jobs became the
// completion heap and its waiting queue carried the plan; any change to
// the loop's bookkeeping must leave every deterministic field as it was.
// Regenerate only after an intended behavioral change: set
// RESCHED_PRINT_SERVICE_PINS and run this binary; it prints the table and
// fails.
constexpr ServicePin kServicePins[] = {
    {"fcfs", PinCase::kPlain, 42, 500, 0x849f43c193652aabull},
    {"fcfs", PinCase::kChurn, 42, 715, 0xceae6424d546ee4cull},
    {"fcfs", PinCase::kWindows, 42, 515, 0x8b6933c144b2498full},
    {"fcfs", PinCase::kCanceledLast, 56, 423, 0x746e41f2c2c62069ull},
    {"conservative", PinCase::kPlain, 42, 500, 0x1089a6895ef7d62full},
    {"conservative", PinCase::kChurn, 42, 715, 0x503a477498eaa5f7ull},
    {"conservative", PinCase::kWindows, 42, 500, 0x2da761cd593b45b2ull},
    {"conservative", PinCase::kCanceledLast, 56, 423, 0xaa1d0970957bd23eull},
    {"easy", PinCase::kPlain, 42, 500, 0x297e974f7aa13b79ull},
    {"easy", PinCase::kChurn, 42, 715, 0x23a4f24132e7ac55ull},
    {"easy", PinCase::kWindows, 42, 500, 0xcba3f3fe9d627abdull},
    {"easy", PinCase::kCanceledLast, 56, 423, 0xcdc530ca9441955aull},
    {"lsrc", PinCase::kPlain, 42, 500, 0xb4c6f09220862983ull},
    {"lsrc", PinCase::kChurn, 42, 715, 0x0d0dfa8839cdd9a7ull},
    {"lsrc", PinCase::kWindows, 42, 500, 0xedfed56f7fcb1cecull},
    {"lsrc", PinCase::kCanceledLast, 56, 423, 0xc970c8b22f60e409ull},
};

TEST(ServiceSim, DeterministicResultsArePinned) {
  const bool print = std::getenv("RESCHED_PRINT_SERVICE_PINS") != nullptr;
  std::size_t checked = 0;
  for (const char* name : {"fcfs", "conservative", "easy", "lsrc"}) {
    for (const PinCase c : {PinCase::kPlain, PinCase::kChurn,
                            PinCase::kWindows, PinCase::kCanceledLast}) {
      // Loaded enough (about 2/3 of m busy) that the schedulers differ.
      const std::uint64_t seed = c == PinCase::kCanceledLast ? 56 : 42;
      const ServiceStepResult step = run_service_step(
          *make_scheduler(name), small_load(), seed, 300.0, pin_config(c));
      const std::string fields = deterministic_fields(step);
      const std::uint64_t hash = fnv1a(fields);
      if (print) {
        std::printf("    {\"%s\", PinCase::k%s, %llu, %lld, 0x%016llxull},\n",
                    name,
                    c == PinCase::kPlain     ? "Plain"
                    : c == PinCase::kChurn   ? "Churn"
                    : c == PinCase::kWindows ? "Windows"
                                             : "CanceledLast",
                    static_cast<unsigned long long>(seed),
                    static_cast<long long>(step.sim_end),
                    static_cast<unsigned long long>(hash));
        continue;
      }
      const ServicePin& pin = kServicePins[checked++];
      ASSERT_EQ(std::string(pin.scheduler), name);
      ASSERT_EQ(pin.pin_case, c);
      ASSERT_EQ(pin.seed, seed);
      EXPECT_EQ(step.sim_end, pin.sim_end) << name << ' ' << to_string(c);
      EXPECT_EQ(hash, pin.hash) << name << ' ' << to_string(c) << ":\n"
                                << fields;
      // The cases cover what they claim to.
      if (c == PinCase::kChurn) {
        EXPECT_GT(step.churn_cancel_waiting, 0u) << name;
        EXPECT_GT(step.churn_cancel_running, 0u) << name;
        EXPECT_GT(step.churn_drops, 0u) << name;
        EXPECT_GT(step.churn_moves, 0u) << name;
      }
      if (c == PinCase::kWindows) {
        EXPECT_EQ(step.scenario_windows, 3u);
      }
      if (c == PinCase::kCanceledLast) {
        EXPECT_GT(step.churn_cancel_running, 0u) << name;
      }
    }
  }
  ASSERT_FALSE(print)
      << "RESCHED_PRINT_SERVICE_PINS is set: table printed, refusing to pass";
  EXPECT_EQ(checked, sizeof(kServicePins) / sizeof(kServicePins[0]));
}

TEST(ServiceSim, EmptyPhasesAreANoOp) {
  const auto scheduler = make_scheduler("easy");
  ServiceConfig config = small_config();
  config.phases = ServicePhases{0, 0, 0};
  const ServiceStepResult step =
      run_service_step(*scheduler, small_load(), 1, 10.0, config);
  EXPECT_EQ(step.arrivals, 0u);
  EXPECT_EQ(step.completed, 0u);
  EXPECT_FALSE(step.saturated);
}

}  // namespace
}  // namespace resched
