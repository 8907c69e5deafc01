// Sections 2.1 and 2.2 (FCFS pathology, release-time trap, online doubling
// batches): prints report/paper_tables' online_ladder(), then times EASY on
// the trap and the doubling wrapper.
#include "bench_util.hpp"

#include "algorithms/online_batch.hpp"
#include "algorithms/scheduler.hpp"
#include "generators/adversarial.hpp"
#include "generators/workload.hpp"
#include "report/paper_tables.hpp"

namespace {

using namespace resched;

void print_tables() { std::cout << online_ladder().text; }

void BM_SchedulerOnTrap(benchmark::State& state) {
  const Instance instance = cbf_trap_instance(state.range(0), 16, 50);
  const auto scheduler = make_scheduler("easy");
  for (auto _ : state) {
    const Schedule schedule = scheduler->schedule(instance).value();
    benchmark::DoNotOptimize(schedule.makespan(instance));
  }
}
BENCHMARK(BM_SchedulerOnTrap)->Arg(8)->Arg(32)->Arg(128);

void BM_OnlineBatchWrapper(benchmark::State& state) {
  WorkloadConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  config.m = 16;
  config.mean_interarrival = 3.0;
  const Instance instance = random_workload(config, 2222);
  for (auto _ : state) {
    OnlineBatchScheduler scheduler(make_scheduler("lsrc"));
    const Schedule schedule = scheduler.schedule(instance).value();
    benchmark::DoNotOptimize(schedule.makespan(instance));
  }
}
BENCHMARK(BM_OnlineBatchWrapper)->Arg(50)->Arg(200);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_online.json")
