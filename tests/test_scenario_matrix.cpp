// Scenario x scheduler matrix: verdict derivation (held / VIOLATED /
// out-of-domain), thread-count invariance of the whole matrix, the blocking
// workload witness, scenario windows in the service harness, and the CSV /
// survival-table report shapes.
#include "scenario/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "algorithms/scheduler.hpp"

namespace resched {
namespace {

[[nodiscard]] std::vector<ScenarioSpec> small_stock(ProcCount m) {
  // The held / VIOLATED / out-of-domain contrast at test size: soak's
  // blocking workload defeats fcfs, maintenance carries reservations that
  // shelf algorithms reject.
  std::vector<ScenarioSpec> specs;
  for (ScenarioSpec& spec : stock_scenarios(m))
    if (spec.program.name == "soak" || spec.program.name == "maintenance")
      specs.push_back(std::move(spec));
  return specs;
}

TEST(ScenarioMatrix, BlockingWorkloadShape) {
  const std::vector<Job> jobs = blocking_workload(8, 3, 5);
  ASSERT_EQ(jobs.size(), 6u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<JobId>(i));
    EXPECT_EQ(jobs[i].release, 0);
    if (i % 2 == 0) {
      EXPECT_EQ(jobs[i].q, 1);  // narrow-long
      EXPECT_EQ(jobs[i].p, 5);
    } else {
      EXPECT_EQ(jobs[i].q, 8);  // full-width blocker
      EXPECT_EQ(jobs[i].p, 1);
    }
  }
}

TEST(ScenarioMatrix, StockMatrixCoversEveryVerdictClass) {
  ScenarioMatrixConfig config;
  config.instances = 3;
  config.seed = 7;
  const ScenarioMatrixResult result =
      run_scenario_matrix(stock_scenarios(16), config);
  ASSERT_EQ(result.scenarios.size(), 6u);
  ASSERT_EQ(result.schedulers.size(), registered_schedulers().size());
  ASSERT_EQ(result.cells.size(),
            result.scenarios.size() * result.schedulers.size());
  EXPECT_EQ(result.instances, 3u);

  const auto row_of = [&](const std::string& name) {
    return static_cast<std::size_t>(
        std::find(result.scenarios.begin(), result.scenarios.end(), name) -
        result.scenarios.begin());
  };
  const auto col_of = [&](const std::string& name) {
    return static_cast<std::size_t>(
        std::find(result.schedulers.begin(), result.schedulers.end(), name) -
        result.schedulers.begin());
  };

  // soak (no reservations, blocking workload): fcfs exceeds Graham's
  // 2 - 1/m against the exact B&B reference, lsrc packs it optimally.
  const ScenarioCell& soak_fcfs = result.cell(row_of("soak"), col_of("fcfs"));
  EXPECT_EQ(soak_fcfs.verdict, CellVerdict::kViolated);
  EXPECT_GT(soak_fcfs.campaign.guarantee_violated, 0u);
  EXPECT_EQ(result.cell(row_of("soak"), col_of("lsrc")).verdict,
            CellVerdict::kHeld);

  // Reservation-bearing scenarios are outside the shelf algorithms' domain.
  const ScenarioCell& shelf =
      result.cell(row_of("daily_cycle"), col_of("shelf-ff"));
  EXPECT_EQ(shelf.verdict, CellVerdict::kOutOfDomain);
  EXPECT_EQ(shelf.campaign.scheduled, 0u);
  EXPECT_GT(shelf.campaign.skipped, 0u);

  // Every verdict string renders (the table never prints "?").
  for (const ScenarioCell& cell : result.cells)
    EXPECT_NE(to_string(cell.verdict), "?");
}

TEST(ScenarioMatrix, ResultIsIndependentOfThreadCount) {
  ScenarioMatrixConfig config;
  config.instances = 3;
  config.seed = 11;
  config.schedulers = {"fcfs", "lsrc", "easy"};
  std::string reference_csv;
  for (const std::size_t threads : {1u, 2u, 8u, 16u}) {
    config.threads = threads;
    const ScenarioMatrixResult result =
        run_scenario_matrix(small_stock(16), config);
    const std::string csv = result.to_csv();
    if (reference_csv.empty()) {
      reference_csv = csv;
    } else {
      EXPECT_EQ(csv, reference_csv) << "threads=" << threads;
    }
  }
}

TEST(ScenarioMatrix, CsvIsLongFormOnePerCell) {
  ScenarioMatrixConfig config;
  config.instances = 2;
  config.seed = 3;
  config.schedulers = {"fcfs", "lsrc"};
  const ScenarioMatrixResult result =
      run_scenario_matrix(small_stock(8), config);
  const std::string csv = result.to_csv();
  EXPECT_EQ(csv.rfind("scenario,scheduler,verdict,", 0), 0u);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            1 + result.cells.size());
  // The survival table has one row per scenario plus the header.
  EXPECT_EQ(result.survival_table().rows(), result.scenarios.size());
}

TEST(ScenarioMatrix, TraceWorkloadMakesEveryInstanceIdentical) {
  ScenarioSpec spec;
  spec.name = "trace";
  spec.program = soak_program(8);
  spec.workload = ScenarioWorkload::kTrace;
  spec.m = 8;
  spec.trace_jobs = {Job{0, 2, 5, 0, "a"}, Job{1, 8, 1, 3, "b"}};
  ScenarioMatrixConfig config;
  config.instances = 3;
  config.schedulers = {"easy"};
  const ScenarioMatrixResult result = run_scenario_matrix({spec}, config);
  const CampaignCell& cell = result.cell(0, 0).campaign;
  EXPECT_EQ(cell.scheduled, 3u);
  // Identical instances -> zero spread in the makespan aggregate.
  EXPECT_EQ(cell.makespan.min(), cell.makespan.max());
}

TEST(ScenarioMatrix, CommittedPwaSampleDrivesTheTraceRow) {
  // The committed synthetic PWA-style sample parses cleanly and becomes
  // the matrix's fixed-workload row via trace_scenario().
  const SwfTrace trace =
      load_swf(std::string(RESCHED_TEST_DATA_DIR) + "/pwa_sample.swf");
  EXPECT_EQ(trace.max_procs, 32);
  EXPECT_EQ(trace.parsed, 48u);
  EXPECT_EQ(trace.skipped, 0u);
  EXPECT_EQ(trace.clamped_procs, 0u);
  EXPECT_EQ(trace.clamped_times, 0u);
  ASSERT_EQ(trace.jobs.size(), 48u);
  for (const Job& job : trace.jobs) {
    EXPECT_GT(job.p, 0);
    EXPECT_GE(job.q, 1);
    EXPECT_LE(job.q, trace.max_procs);
    EXPECT_GE(job.release, 0);
  }

  const ScenarioSpec spec = trace_scenario(trace);
  EXPECT_EQ(spec.name, "trace");
  EXPECT_EQ(spec.m, 32);
  EXPECT_EQ(spec.workload, ScenarioWorkload::kTrace);
  EXPECT_EQ(spec.trace_jobs.size(), trace.jobs.size());

  // The stock-plus-trace overload appends exactly one row.
  const std::vector<ScenarioSpec> with_trace = stock_scenarios(16, trace);
  ASSERT_EQ(with_trace.size(), stock_scenarios(16).size() + 1);
  EXPECT_EQ(with_trace.back().name, "trace");
}

TEST(ScenarioMatrix, TraceWithReservationsIsRejected) {
  // A trace row schedules its jobs on the whole machine: a trace that
  // carries ;RESERVATION lines is refused, not run without them.
  const SwfTrace trace =
      load_swf(std::string(RESCHED_TEST_DATA_DIR) + "/tiny.swf");
  ASSERT_EQ(trace.reservations.size(), 1u);
  try {
    (void)trace_scenario(trace);
    ADD_FAILURE() << "trace_scenario accepted a trace with a reservation";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("RESERVATION 0"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)stock_scenarios(16, trace), std::invalid_argument);
}

TEST(ScenarioMatrix, TraceRowIsIndependentOfThreadCount) {
  const SwfTrace trace =
      load_swf(std::string(RESCHED_TEST_DATA_DIR) + "/pwa_sample.swf");
  ScenarioMatrixConfig config;
  config.instances = 2;
  config.seed = 5;
  config.schedulers = {"fcfs", "easy"};
  std::string reference_csv;
  for (const std::size_t threads : {1u, 4u}) {
    config.threads = threads;
    const ScenarioMatrixResult result =
        run_scenario_matrix({trace_scenario(trace)}, config);
    ASSERT_EQ(result.scenarios.size(), 1u);
    EXPECT_EQ(result.scenarios[0], "trace");
    // Identical fixed workload per instance: zero makespan spread.
    const CampaignCell& cell = result.cell(0, 0).campaign;
    EXPECT_EQ(cell.scheduled, 2u);
    EXPECT_EQ(cell.makespan.min(), cell.makespan.max());
    const std::string csv = result.to_csv();
    if (reference_csv.empty()) {
      reference_csv = csv;
    } else {
      EXPECT_EQ(csv, reference_csv) << "threads=" << threads;
    }
  }
}

TEST(ScenarioMatrix, ScenarioWindowsMirrorTheUnavailabilityRectangles) {
  const CompiledScenario compiled = compile_scenario(maintenance_program(8));
  const std::vector<AvailabilityWindow> windows =
      scenario_windows(compiled, 8);
  ASSERT_EQ(windows.size(), 1u);  // one half-machine rectangle
  EXPECT_EQ(windows.front(), (AvailabilityWindow{400, 600, 4}));

  // flash_crowd: four bursts -> four windows, one per repeat round.
  const std::vector<AvailabilityWindow> storm = scenario_windows(
      compile_scenario(flash_crowd_program(8)), 8);
  ASSERT_EQ(storm.size(), 4u);
  for (std::size_t i = 0; i < storm.size(); ++i) {
    EXPECT_EQ(storm[i].start, 250 * static_cast<Time>(i) + 200);
    EXPECT_EQ(storm[i].end, 250 * static_cast<Time>(i) + 250);
    EXPECT_EQ(storm[i].width, 6);
  }
}

TEST(ScenarioMatrix, ServiceStepAppliesWindowsDeterministically) {
  const auto scheduler = make_scheduler("easy");
  LoadGenConfig load;
  load.m = 32;
  load.p_min = 1;
  load.p_max = 20;
  ServiceConfig config;
  config.phases = ServicePhases{100, 600, 100};
  const ServiceStepResult a = run_scenario_service_step(
      *scheduler, maintenance_program(32), std::nullopt, load, 42, 150.0,
      config);
  const ServiceStepResult b = run_scenario_service_step(
      *scheduler, maintenance_program(32), std::nullopt, load, 42, 150.0,
      config);
  EXPECT_EQ(a.scenario_windows, 1u);
  EXPECT_GT(a.completed, 0u);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.sim_end, b.sim_end);

  // The window bites: the same load with the whole machine finishes no
  // later and completes at least as many jobs.
  const ServiceStepResult whole = run_scenario_service_step(
      *scheduler, soak_program(32), std::nullopt, load, 42, 150.0, config);
  EXPECT_EQ(whole.scenario_windows, 0u);
  EXPECT_GE(a.peak_queue_depth, whole.peak_queue_depth);
}

TEST(ScenarioMatrix, InfeasibleWindowIsAConfigError) {
  const auto scheduler = make_scheduler("easy");
  LoadGenConfig load;
  load.m = 4;
  ServiceConfig config;
  // maintenance_program(32) wants to withdraw 16 of 4 processors.
  EXPECT_THROW((void)run_scenario_service_step(*scheduler,
                                               maintenance_program(32),
                                               std::nullopt, load, 1, 50.0,
                                               config),
               std::exception);
}

}  // namespace
}  // namespace resched
