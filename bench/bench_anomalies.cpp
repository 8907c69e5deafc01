// Scheduling anomalies of rigid jobs (Graham's phenomenon under Theorem 2's
// 2 - 1/m): prints report/paper_tables' anomalies(), then times the anomaly
// scan and the cancel-only churn step.
#include "bench_util.hpp"

#include "algorithms/scheduler.hpp"
#include "bounds/anomalies.hpp"
#include "generators/workload.hpp"
#include "report/paper_tables.hpp"
#include "sim/service_sim.hpp"

namespace {

using namespace resched;

void print_tables() { std::cout << anomalies().text; }

// Timed churn-sweep step; exports the deterministic anomaly signal (wait-p99
// ratio vs the churn-free baseline under the cancel-only mix) so the JSON
// tracks it across PRs.
void BM_ChurnAnomaly(benchmark::State& state, const char* scheduler_name,
                     double churn_rate) {
  const auto scheduler = make_scheduler(scheduler_name);
  const ServiceStepResult baseline = churn_sweep_step(*scheduler, 0.0, false);
  ServiceStepResult last;
  for (auto _ : state) {
    last = churn_sweep_step(*scheduler, churn_rate, true);
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
