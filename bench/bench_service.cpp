// Saturation curves for the open-loop service harness.
//
// The table section runs a small fixed-seed rate sweep per scheduler and
// prints sustained throughput plus the saturation knee -- the per-PR
// "heavy traffic" curve the ROADMAP north star asks for. The benchmark
// section times single service steps below and above the knee (append-only
// suffix repair for conservative, decision-only passes at now for easy and
// lsrc) and under churn, and exports the sustained rate, decision counts,
// decision-latency p99 and the planning counters (suffix length replanned,
// frames rewound) so BENCH_service.json tracks harness cost and scheduler
// capacity across PRs.
#include <benchmark/benchmark.h>

#include <string>

#include "algorithms/scheduler.hpp"
#include "bench_util.hpp"
#include "sim/service_sim.hpp"
#include "util/strings.hpp"

namespace {

using namespace resched;

constexpr std::uint64_t kSeed = 42;

LoadGenConfig bench_load() {
  LoadGenConfig load;
  load.m = 32;
  load.p_min = 1;
  load.p_max = 30;
  load.alpha = Rational(1, 2);
  return load;
}

ServiceConfig bench_config() {
  ServiceConfig config;
  config.phases = ServicePhases{50, 250, 50};
  config.dispatch_window = 64;
  config.bail_queue_depth = 2000;
  return config;
}

void print_tables() {
  benchutil::print_header(
      "Service saturation sweep",
      "Open-loop stepped-rate service (m = 32, phases 50/250/50, seed 42): "
      "sustained jobs/kilotick per offered rate and the saturation knee -- "
      "the first step whose queue growth diverges.");
  for (const char* name : {"easy", "conservative", "fcfs", "lsrc"}) {
    const auto scheduler = make_scheduler(name);
    const ServiceSweepResult sweep = run_service_sweep(
        *scheduler, bench_load(), kSeed, 100.0, 700.0, bench_config());
    Table table({"rate/kt", "done", "wait p99", "q peak", "sustained",
                 "saturated"});
    for (const ServiceStepResult& step : sweep.steps)
      table.add(format_double(step.offered_rate, 0), step.completed,
                step.wait_ticks.count() > 0
                    ? std::to_string(step.wait_ticks.percentile(0.99))
                    : std::string("-"),
                step.peak_queue_depth,
                format_double(step.sustained_rate, 1),
                step.saturated ? "yes" : "no");
    std::cout << "--- " << name << " ---\n";
    benchutil::print_table(table);
    std::cout << (sweep.has_knee()
                      ? "knee: " + format_double(sweep.knee_rate(), 0) +
                            " jobs/kilotick\n\n"
                      : std::string("knee: none up to 700 jobs/kilotick\n\n"));
  }
}

// One full service step at a fixed offered rate; counters export the
// deterministic aggregates next to the wall-clock timing. `churn_rate`
// enables the deterministic churn stream.
void BM_ServiceStep(benchmark::State& state, const char* scheduler_name,
                    double rate, double churn_rate) {
  const auto scheduler = make_scheduler(scheduler_name);
  const LoadGenConfig load = bench_load();
  ServiceConfig config = bench_config();
  config.churn.events_per_kilotick = churn_rate;
  ServiceStepResult last;
  // The simulation is deterministic per iteration; only the wall-clock
  // decision latencies vary. Track the minimum p99 across iterations so
  // the exported figure reflects the path's cost, not scheduler noise on
  // the bench host.
  double best_p99 = 0.0;
  for (auto _ : state) {
    last = run_service_step(*scheduler, load, kSeed, rate, config);
    benchmark::DoNotOptimize(last.completed);
    if (last.decision_ns.count() > 0) {
      const double p99 =
          static_cast<double>(last.decision_ns.percentile(0.99));
      if (best_p99 == 0.0 || p99 < best_p99) best_p99 = p99;
    }
  }
  state.counters["sustained_per_kt"] = last.sustained_rate;
  state.counters["decisions"] = static_cast<double>(last.decisions);
  state.counters["decisions_incremental"] =
      static_cast<double>(last.decisions_incremental);
  state.counters["suffix_jobs_replanned"] =
      static_cast<double>(last.suffix_jobs_replanned);
  state.counters["plan_frames_rewound"] =
      static_cast<double>(last.plan_frames_rewound);
  state.counters["history_compactions"] =
      static_cast<double>(last.history_compactions);
  // Dispatches deferred to a same-tick completion; deterministic, so a
  // change to the service loop's event order shows here.
  state.counters["deferred_dispatches"] =
      static_cast<double>(last.deferred_dispatches);
  // Heap allocations per measure-window decision (global operator-new hook
  // plus the library's instrumented malloc sites). Deterministic; gated by
  // bench/alloc_budget.json in CI. Steady-state decisions target 0.
  state.counters["allocs_per_decision"] =
      last.decisions_measured > 0
          ? static_cast<double>(last.decision_allocs) /
                static_cast<double>(last.decisions_measured)
          : 0.0;
  state.counters["churn_events"] = static_cast<double>(last.churn_events);
  state.counters["canceled"] = static_cast<double>(last.canceled);
  state.counters["saturated"] = last.saturated ? 1.0 : 0.0;
  if (best_p99 > 0.0) state.counters["decision_p99_ns"] = best_p99;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(last.completed));
}

// Whole sweep incl. knee detection; knee_rate_per_kt is the tracked curve.
void BM_ServiceKnee(benchmark::State& state, const char* scheduler_name) {
  const auto scheduler = make_scheduler(scheduler_name);
  const LoadGenConfig load = bench_load();
  const ServiceConfig config = bench_config();
  ServiceSweepResult sweep;
  for (auto _ : state) {
    sweep = run_service_sweep(*scheduler, load, kSeed, 100.0, 700.0, config);
    benchmark::DoNotOptimize(sweep.knee_index);
  }
  state.counters["knee_rate_per_kt"] =
      sweep.has_knee() ? sweep.knee_rate() : 0.0;
}

BENCHMARK_CAPTURE(BM_ServiceStep, easy_subsat, "easy", 200.0, 0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, easy_saturated, "easy", 700.0, 0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, conservative_subsat, "conservative", 200.0,
                  0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, conservative_saturated, "conservative",
                  700.0, 0.0)
    ->Unit(benchmark::kMillisecond);
// The paper's list scheduler (LSRC, submission order) as a service.
BENCHMARK_CAPTURE(BM_ServiceStep, lsrc_subsat, "lsrc", 200.0, 0.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, lsrc_saturated, "lsrc", 700.0, 0.0)
    ->Unit(benchmark::kMillisecond);
// Churn-heavy step: cancellations, availability drops and window moves at
// 30 events/kilotick.
BENCHMARK_CAPTURE(BM_ServiceStep, easy_churn, "easy", 300.0, 30.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, conservative_churn, "conservative", 300.0,
                  30.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceStep, lsrc_churn, "lsrc", 300.0, 30.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceKnee, easy, "easy")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServiceKnee, conservative, "conservative")
    ->Unit(benchmark::kMillisecond);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_service.json")
