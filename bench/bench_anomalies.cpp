// Experiment E11 (library extension) -- scheduling anomalies of rigid jobs.
//
// Graham's anomaly phenomenon, rediscovered in the paper's setting: for
// independent RIGID jobs (no precedence constraints at all), "improving" an
// instance -- cancelling a job, a job finishing early, adding a machine --
// can increase the list schedule's makespan. This bench measures how often,
// for each scheduler, across random workloads, and verifies the growth never
// escapes the Theorem 2 envelope (2 - 1/m).
//
// The five-job witness (m = 3): removing one narrow job raises C_LSRC from
// 7 to 8; printed first with its Gantt charts.
#include "bench_util.hpp"

#include "algorithms/scheduler.hpp"
#include "bounds/anomalies.hpp"
#include "bounds/guarantees.hpp"
#include "core/gantt.hpp"
#include "generators/workload.hpp"
#include "sim/service_sim.hpp"
#include "util/strings.hpp"

namespace {

using namespace resched;

// ---- churn-scenario sweep (ROADMAP item 2 follow-on) -----------------------
//
// The service-level analog of the batch anomalies above: a cancellation only
// removes work, yet the rescheduled tail can WAIT LONGER than under the
// untouched queue -- the open-loop counterpart of Graham's job-removal
// anomaly. The sweep runs the service harness at a fixed sub-saturation rate
// under two churn mixes: "cancel" (cancellations only -- pure improvements,
// so any p99 growth is anomalous in Graham's sense) and "full" (drops and
// window moves too, which genuinely remove capacity and are expected to
// hurt). Fixed seed => deterministic tables.

constexpr std::uint64_t kChurnSeed = 42;

ServiceConfig churn_sweep_config(double rate, bool cancel_only) {
  ServiceConfig config;
  config.phases = ServicePhases{50, 250, 50};
  config.dispatch_window = 64;
  config.bail_queue_depth = 2000;
  config.record_wall_latency = false;  // fully deterministic step
  config.churn.events_per_kilotick = rate;
  if (cancel_only) {
    config.churn.availability_drop_weight = 0.0;
    config.churn.reservation_move_weight = 0.0;
  }
  return config;
}

LoadGenConfig churn_sweep_load() {
  LoadGenConfig load;
  load.m = 32;
  load.p_min = 1;
  load.p_max = 30;
  load.alpha = Rational(1, 2);
  return load;
}

void print_churn_sweep() {
  benchutil::print_header(
      "Churn-scenario sweep (service-level anomalies)",
      "Open-loop service (m = 32, rate 300/kt, seed 42) under deterministic "
      "churn.\n\"cancel\" mix only withdraws jobs -- a pure improvement, so "
      "wait-p99 growth over\nthe churn-free baseline (column `anomaly`) is "
      "Graham's removal anomaly in the\nonline setting. \"full\" mix adds "
      "availability drops + window moves.");

  const double offered = 300.0;
  Table table({"scheduler", "mix", "churn/kt", "events", "canceled",
               "wait p99", "resp p99", "sustained", "anomaly"});
  for (const char* name : {"easy", "conservative", "fcfs"}) {
    const auto scheduler = make_scheduler(name);
    const ServiceStepResult baseline = run_service_step(
        *scheduler, churn_sweep_load(), kChurnSeed, offered,
        churn_sweep_config(0.0, false));
    const std::int64_t base_wait = baseline.wait_ticks.count() > 0
                                       ? baseline.wait_ticks.percentile(0.99)
                                       : 0;
    table.add(name, "none", 0, 0, 0, base_wait,
              baseline.response_ticks.count() > 0
                  ? baseline.response_ticks.percentile(0.99)
                  : 0,
              format_double(baseline.sustained_rate, 1), "-");
    for (const bool cancel_only : {true, false}) {
      for (const double rate : {10.0, 30.0, 60.0}) {
        const ServiceStepResult step = run_service_step(
            *scheduler, churn_sweep_load(), kChurnSeed, offered,
            churn_sweep_config(rate, cancel_only));
        const std::int64_t wait = step.wait_ticks.count() > 0
                                      ? step.wait_ticks.percentile(0.99)
                                      : 0;
        // Anomalous only under the cancel-only mix: capacity never shrank,
        // yet the tail waits longer than with no churn at all.
        const bool anomalous = cancel_only && wait > base_wait;
        table.add(name, cancel_only ? "cancel" : "full",
                  format_double(rate, 0), step.churn_events, step.canceled,
                  wait,
                  step.response_ticks.count() > 0
                      ? step.response_ticks.percentile(0.99)
                      : 0,
                  format_double(step.sustained_rate, 1),
                  anomalous ? "YES" : "no");
      }
    }
  }
  benchutil::print_table(table);
  std::cout << "(cancel-mix rows marked YES waited longer at p99 than with "
               "no churn, despite\nchurn only ever removing work)\n";
}

void print_tables() {
  benchutil::print_header(
      "Scheduling anomalies of independent rigid jobs (extension E11)",
      "Minimal witness: removing job 1 raises the LSRC makespan 7 -> 8.");

  const Instance witness = removal_anomaly_example();
  const auto lsrc = make_scheduler("lsrc");
  {
    const Schedule before = lsrc->schedule(witness).value();
    const Instance reduced = without_job(witness, 1);
    const Schedule after = lsrc->schedule(reduced).value();
    GanttOptions options;
    options.width = 32;
    std::cout << "with all five jobs (C = "
              << before.makespan(witness) << "):\n"
              << ascii_gantt(witness, before, options) << "\n";
    std::cout << "job 1 removed (C = " << after.makespan(reduced) << "):\n"
              << ascii_gantt(reduced, after, options) << "\n";
  }

  benchutil::print_header(
      "Anomaly frequency across random workloads",
      "100 instances (n = 14, m = 6): share of instances with at least one "
      "anomaly of each\nkind, and the worst observed growth factor "
      "(Theorem 2 caps it at 2 - 1/m = 11/6).");

  Table table({"scheduler", "removal %", "shorter %", "extra-machine %",
               "worst growth", "envelope"});
  for (const char* name : {"lsrc", "lsrc-lpt", "fcfs", "conservative",
                           "easy"}) {
    const auto scheduler = make_scheduler(name);
    int removal = 0;
    int shorter = 0;
    int extra = 0;
    double worst_growth = 1.0;
    const int trials = 100;
    for (int trial = 0; trial < trials; ++trial) {
      WorkloadConfig config;
      config.n = 14;
      config.m = 6;
      config.p_max = 12;
      const Instance instance =
          random_workload(config, static_cast<std::uint64_t>(trial) + 1);
      const AnomalyScan scan = find_anomalies(instance, *scheduler);
      bool saw_removal = false;
      bool saw_shorter = false;
      bool saw_extra = false;
      for (const Anomaly& anomaly : scan.anomalies) {
        worst_growth = std::max(
            worst_growth, static_cast<double>(anomaly.makespan_after) /
                              static_cast<double>(anomaly.makespan_before));
        switch (anomaly.kind) {
          case AnomalyKind::kJobRemoval: saw_removal = true; break;
          case AnomalyKind::kShorterDuration: saw_shorter = true; break;
          case AnomalyKind::kExtraMachine: saw_extra = true; break;
        }
      }
      removal += saw_removal;
      shorter += saw_shorter;
      extra += saw_extra;
    }
    table.add(name, removal, shorter, extra,
              format_double(worst_growth, 4),
              format_double(graham_bound(6).to_double(), 4));
  }
  benchutil::print_table(table);
  std::cout << "(percentages are per-100-instances counts; every growth "
               "factor stays below the envelope)\n";

  print_churn_sweep();
}

// Timed churn-sweep step; exports the deterministic anomaly signal (wait-p99
// ratio vs the churn-free baseline under the cancel-only mix) so the JSON
// tracks it across PRs.
void BM_ChurnAnomaly(benchmark::State& state, const char* scheduler_name,
                     double churn_rate) {
  const auto scheduler = make_scheduler(scheduler_name);
  const ServiceStepResult baseline =
      run_service_step(*scheduler, churn_sweep_load(), kChurnSeed, 300.0,
                       churn_sweep_config(0.0, false));
  ServiceStepResult last;
  for (auto _ : state) {
    last = run_service_step(*scheduler, churn_sweep_load(), kChurnSeed, 300.0,
                            churn_sweep_config(churn_rate, true));
    benchmark::DoNotOptimize(last.completed);
  }
  state.counters["churn_events"] = static_cast<double>(last.churn_events);
  state.counters["canceled"] = static_cast<double>(last.canceled);
  const double base_wait =
      baseline.wait_ticks.count() > 0
          ? static_cast<double>(baseline.wait_ticks.percentile(0.99))
          : 0.0;
  const double wait =
      last.wait_ticks.count() > 0
          ? static_cast<double>(last.wait_ticks.percentile(0.99))
          : 0.0;
  state.counters["wait_p99"] = wait;
  state.counters["wait_p99_vs_baseline"] =
      base_wait > 0.0 ? wait / base_wait : 0.0;
}

BENCHMARK_CAPTURE(BM_ChurnAnomaly, easy_cancel30, "easy", 30.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChurnAnomaly, conservative_cancel30, "conservative",
                  30.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChurnAnomaly, fcfs_cancel30, "fcfs", 30.0)
    ->Unit(benchmark::kMillisecond);

void BM_AnomalyScan(benchmark::State& state) {
  WorkloadConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  config.m = 6;
  const Instance instance = random_workload(config, 99);
  const auto scheduler = make_scheduler("lsrc");
  for (auto _ : state) {
    const AnomalyScan scan = find_anomalies(instance, *scheduler);
    benchmark::DoNotOptimize(scan.anomalies.size());
  }
}
BENCHMARK(BM_AnomalyScan)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_anomalies.json")
