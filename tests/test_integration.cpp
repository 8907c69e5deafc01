// End-to-end integration: every registered scheduler, on every instance
// class, through the whole pipeline -- schedule, validate, bound-check,
// machine-assign, simulate, serialise and back.
#include <gtest/gtest.h>

#include <sstream>

#include "algorithms/lsrc.hpp"
#include "algorithms/online_batch.hpp"
#include "algorithms/scheduler.hpp"
#include "bounds/checker.hpp"
#include "bounds/lower_bounds.hpp"
#include "core/gantt.hpp"
#include "core/io.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "sim/cluster_sim.hpp"

namespace resched {
namespace {

TEST(Registry, ExpectedSchedulersPresent) {
  const auto names = registered_schedulers();
  for (const char* expected :
       {"lsrc", "lsrc-lpt", "fcfs", "conservative", "easy", "shelf-ff",
        "shelf-nf", "portfolio", "local-search"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " missing from registry";
  }
  EXPECT_THROW(make_scheduler("nope"), std::invalid_argument);
}

TEST(Registry, FactoriesProduceWorkingSchedulers) {
  const Instance instance(4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 2, 0, ""}});
  for (const auto& name : registered_schedulers()) {
    const auto scheduler = make_scheduler(name);
    const Schedule schedule = scheduler->schedule(instance).value();
    EXPECT_TRUE(schedule.validate(instance).ok) << name;
  }
}

struct PipelineCase {
  const char* label;
  std::uint64_t seed;
  bool with_reservations;
  bool online;
};

class FullPipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(FullPipeline, EveryOfflineSchedulerSurvivesTheWholeStack) {
  const PipelineCase param = GetParam();
  WorkloadConfig config;
  config.n = 35;
  config.m = 12;
  config.alpha = Rational(1, 2);
  if (param.online) config.mean_interarrival = 3.0;
  Instance instance = random_workload(config, param.seed);
  if (param.with_reservations) {
    AlphaReservationConfig resa;
    resa.alpha = Rational(1, 2);
    instance = with_alpha_restricted_reservations(instance, resa,
                                                  param.seed + 10);
  }

  for (const auto& name : registered_schedulers()) {
    const auto scheduler = make_scheduler(name);
    // Capability filtering instead of a hard-coded shelf special case: the
    // registry knows which schedulers cannot take this instance class.
    if (!scheduler->supports(instance)) {
      EXPECT_TRUE(name == "shelf-ff" || name == "shelf-nf")
          << name << " unexpectedly rejects " << param.label;
      continue;
    }

    SCOPED_TRACE(std::string(param.label) + " / " + name);
    const Schedule schedule = scheduler->schedule(instance).value();

    // 1. feasible;
    const ValidationResult valid = schedule.validate(instance);
    ASSERT_TRUE(valid.ok) << valid.error;
    // 2. never violates an applicable guarantee;
    const GuaranteeReport report = check_guarantee(instance, schedule);
    EXPECT_NE(report.compliance, Compliance::kViolated) << report.detail;
    // 3. maps to concrete machines;
    const MachineAssignment assignment = assign_machines(instance, schedule);
    EXPECT_TRUE(validate_assignment(instance, sweep_events(instance, schedule),
                                    assignment)
                    .ok);
    // 4. replays on the simulated cluster;
    const SimulationResult sim = simulate_cluster(instance, schedule);
    EXPECT_LE(sim.peak_busy, instance.m());
    // 5. renders;
    EXPECT_FALSE(ascii_gantt(instance, schedule).empty());
    // 6. round-trips through CSV.
    std::stringstream csv;
    save_schedule_csv(instance, schedule, csv);
    EXPECT_EQ(load_schedule_csv(instance, csv), schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classes, FullPipeline,
    ::testing::Values(
        PipelineCase{"rigid_offline", 1001, false, false},
        PipelineCase{"reserved_offline", 1002, true, false},
        PipelineCase{"rigid_online", 1003, false, true},
        PipelineCase{"reserved_online", 1004, true, true}),
    [](const ::testing::TestParamInfo<PipelineCase>& param_info) {
      return std::string(param_info.param.label);
    });

TEST(Pipeline, InstanceRoundTripPreservesSchedulerBehaviour) {
  WorkloadConfig config;
  config.n = 20;
  config.m = 8;
  Instance original = random_workload(config, 2024);
  AlphaReservationConfig resa;
  resa.alpha = Rational(1, 2);
  original = with_alpha_restricted_reservations(original, resa, 42);

  std::stringstream stream;
  save_instance(original, stream);
  const Instance loaded = load_instance(stream);
  ASSERT_EQ(loaded, original);

  const Schedule a = LsrcScheduler().schedule(original).value();
  const Schedule b = LsrcScheduler().schedule(loaded).value();
  EXPECT_EQ(a, b);  // schedulers are pure functions of the instance
}

TEST(Pipeline, OnlineBatchComposesWithRegistrySchedulers) {
  WorkloadConfig config;
  config.n = 25;
  config.m = 8;
  config.mean_interarrival = 4.0;
  const Instance instance = random_workload(config, 3030);
  for (const char* base : {"lsrc", "fcfs", "conservative", "easy"}) {
    OnlineBatchScheduler scheduler(make_scheduler(base));
    const Schedule schedule = scheduler.schedule(instance).value();
    EXPECT_TRUE(schedule.validate(instance).ok) << base;
    // Batch epochs respect releases by construction; the makespan can never
    // undercut the certified offline lower bound.
    EXPECT_GE(schedule.makespan(instance), makespan_lower_bound(instance))
        << base;
  }
}

TEST(Pipeline, SchedulersAreDeterministic) {
  WorkloadConfig config;
  config.n = 30;
  config.m = 10;
  const Instance instance = random_workload(config, 4040);
  for (const auto& name : registered_schedulers()) {
    const Schedule a = make_scheduler(name)->schedule(instance).value();
    const Schedule b = make_scheduler(name)->schedule(instance).value();
    EXPECT_EQ(a, b) << name;
  }
}

}  // namespace
}  // namespace resched
