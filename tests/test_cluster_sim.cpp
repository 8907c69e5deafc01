#include "sim/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "algorithms/lsrc.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

Instance demo_instance() {
  return Instance(3, {Job{0, 2, 4, 0, ""}, Job{1, 3, 2, 0, ""}},
                  {Reservation{0, 1, 3, 0, ""}});
}

Schedule demo_schedule() {
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 4);
  return schedule;
}

TEST(ClusterSim, TraceIsTimeOrderedAndComplete) {
  const SimulationResult result =
      simulate_cluster(demo_instance(), demo_schedule());
  // 2 jobs + 1 reservation => 6 events.
  EXPECT_EQ(result.trace.size(), 6u);
  for (std::size_t i = 1; i < result.trace.size(); ++i)
    EXPECT_GE(result.trace[i].time, result.trace[i - 1].time);
}

TEST(ClusterSim, PeakBusyMatchesLoad) {
  const SimulationResult result =
      simulate_cluster(demo_instance(), demo_schedule());
  // At t in [0,3): job0 (2) + reservation (1) = 3 busy.
  EXPECT_EQ(result.peak_busy, 3);
}

TEST(ClusterSim, MetricsMatchDirectComputation) {
  const SimulationResult result =
      simulate_cluster(demo_instance(), demo_schedule());
  const ScheduleMetrics direct =
      compute_metrics(demo_instance(), demo_schedule());
  EXPECT_EQ(result.metrics.makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(result.metrics.utilization, direct.utilization);
}

TEST(ClusterSim, BackToBackReuseIsClean) {
  // Two full-width jobs back to back: release at t=1 must precede the next
  // acquisition at t=1 (no "machine acquired twice").
  const Instance instance(2, {Job{0, 2, 1, 0, ""}, Job{1, 2, 1, 0, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 1);
  const SimulationResult result = simulate_cluster(instance, schedule);
  EXPECT_EQ(result.peak_busy, 2);
}

TEST(ClusterSim, TraceOrderAtEqualTicksIsPinned) {
  // At t = 4 a job and a reservation end while another reservation and two
  // jobs start: ends come before starts, reservations before jobs, and
  // lower ids first.
  const Instance instance(6,
                          {Job{0, 2, 4, 0, ""}, Job{1, 1, 2, 0, ""},
                           Job{2, 2, 3, 0, ""}, Job{3, 1, 10, 0, ""}},
                          {Reservation{0, 1, 4, 0, ""},
                           Reservation{1, 2, 3, 4, ""}});
  Schedule schedule(4);
  schedule.set_start(0, 0);
  schedule.set_start(1, 4);
  schedule.set_start(2, 4);
  schedule.set_start(3, 0);
  const SimulationResult result = simulate_cluster(instance, schedule);
  std::ostringstream csv;
  write_trace_csv(result.trace, csv);
  EXPECT_EQ(csv.str(),
            "time,event,id\n"
            "0,resa_start,0\n0,job_start,0\n0,job_start,3\n"
            "4,resa_end,0\n4,job_end,0\n"
            "4,resa_start,1\n4,job_start,1\n4,job_start,2\n"
            "6,job_end,1\n7,resa_end,1\n7,job_end,2\n10,job_end,3\n");
  EXPECT_EQ(result.peak_busy, 6);
}

TEST(ClusterSim, RejectsInfeasible) {
  const Instance instance(1, {Job{0, 1, 2, 0, ""}, Job{1, 1, 2, 0, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 1);  // overlap on one machine
  EXPECT_THROW(simulate_cluster(instance, schedule), std::invalid_argument);
}

TEST(ClusterSim, CsvFormat) {
  const SimulationResult result =
      simulate_cluster(demo_instance(), demo_schedule());
  std::ostringstream os;
  write_trace_csv(result.trace, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.find("time,event,id"), 0u);
  EXPECT_NE(csv.find("job_start"), std::string::npos);
  EXPECT_NE(csv.find("resa_end"), std::string::npos);
}

TEST(ClusterSim, RandomLsrcSchedulesSimulateCleanly) {
  for (const std::uint64_t seed : {91u, 92u, 93u}) {
    WorkloadConfig config;
    config.n = 30;
    config.m = 12;
    config.alpha = Rational(1, 2);
    const Instance base = random_workload(config, seed);
    AlphaReservationConfig resa;
    resa.alpha = Rational(1, 2);
    const Instance instance =
        with_alpha_restricted_reservations(base, resa, seed);
    const Schedule schedule = LsrcScheduler().schedule(instance).value();
    const SimulationResult result = simulate_cluster(instance, schedule);
    EXPECT_LE(result.peak_busy, instance.m());
    EXPECT_EQ(result.trace.size(),
              2 * (instance.n() + instance.n_reservations()));
  }
}

}  // namespace
}  // namespace resched
