// Fig. 3 / Proposition 2 (the adversarial family): prints
// report/paper_tables' fig3_adversarial(), then times LSRC's bad order on the
// family and the family's construction.
#include "bench_util.hpp"

#include "algorithms/lsrc.hpp"
#include "generators/adversarial.hpp"
#include "report/paper_tables.hpp"

namespace {

using namespace resched;

void print_tables() { std::cout << fig3_adversarial().text; }

void BM_Prop2BadOrder(benchmark::State& state) {
  const Prop2Family family = prop2_instance(state.range(0));
  for (auto _ : state) {
    const Schedule schedule =
        LsrcScheduler().schedule(family.instance).value();
    benchmark::DoNotOptimize(schedule.makespan(family.instance));
  }
  state.counters["jobs"] = static_cast<double>(family.instance.n());
}
BENCHMARK(BM_Prop2BadOrder)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_Prop2InstanceConstruction(benchmark::State& state) {
  for (auto _ : state) {
    const Prop2Family family = prop2_instance(state.range(0));
    benchmark::DoNotOptimize(family.instance.total_work());
  }
}
BENCHMARK(BM_Prop2InstanceConstruction)->Arg(8)->Arg(32);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_fig3_adversarial.json")
