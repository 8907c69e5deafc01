// Priority-rule ablation (the conclusion's LPT conjecture): prints
// report/paper_tables' priority_ablation(), then times LSRC under each list
// order.
#include "bench_util.hpp"

#include "algorithms/list_order.hpp"
#include "algorithms/lsrc.hpp"
#include "generators/workload.hpp"
#include "report/paper_tables.hpp"

namespace {

using namespace resched;

void print_tables() { std::cout << priority_ablation().text; }

void BM_OrderedLsrc(benchmark::State& state) {
  WorkloadConfig config;
  config.n = 200;
  config.m = 32;
  const Instance instance = random_workload(config, 4242);
  const auto order = all_list_orders()[static_cast<std::size_t>(
      state.range(0))];
  for (auto _ : state) {
    const Schedule schedule = LsrcScheduler(order, 1).schedule(instance).value();
    benchmark::DoNotOptimize(schedule.makespan(instance));
  }
  state.SetLabel(to_string(order));
}
BENCHMARK(BM_OrderedLsrc)->DenseRange(0, 7);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_priority_ablation.json")
