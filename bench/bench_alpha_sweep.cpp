// The alpha sweep (empirical companion to Prop. 3): prints
// report/paper_tables' alpha_sweep(), then times one LSRC cell.
#include "bench_util.hpp"

#include "algorithms/scheduler.hpp"
#include "report/paper_tables.hpp"

namespace {

using namespace resched;

void print_tables() { std::cout << alpha_sweep().text; }

void BM_AlphaSweepCell(benchmark::State& state) {
  const Rational alpha(1, state.range(0));
  const Instance instance = alpha_sweep_instance(99, alpha);
  const auto scheduler = make_scheduler("lsrc");
  for (auto _ : state) {
    const Schedule schedule = scheduler->schedule(instance).value();
    benchmark::DoNotOptimize(schedule.makespan(instance));
  }
}
BENCHMARK(BM_AlphaSweepCell)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_alpha_sweep.json")
