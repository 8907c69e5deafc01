// Fig. 2 / Proposition 1 (non-increasing reservations): prints
// report/paper_tables' fig2_nonincreasing(), then times LSRC on staircases
// and the I -> I'' head-job transform.
#include "bench_util.hpp"

#include "algorithms/lsrc.hpp"
#include "generators/transform.hpp"
#include "report/paper_tables.hpp"

namespace {

using namespace resched;

void print_tables() { std::cout << fig2_nonincreasing().text; }

void BM_LsrcOnStaircase(benchmark::State& state) {
  const Instance instance = fig2_staircase_instance(
      42, static_cast<std::size_t>(state.range(0)), 32);
  for (auto _ : state) {
    const Schedule schedule = LsrcScheduler().schedule(instance).value();
    benchmark::DoNotOptimize(schedule.makespan(instance));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LsrcOnStaircase)->Range(16, 1024)->Complexity();

void BM_HeadJobTransform(benchmark::State& state) {
  const Instance instance = fig2_staircase_instance(
      43, static_cast<std::size_t>(state.range(0)), 32);
  for (auto _ : state) {
    const HeadJobTransform transform = reservations_to_head_jobs(instance);
    benchmark::DoNotOptimize(transform.rigid.n());
  }
}
BENCHMARK(BM_HeadJobTransform)->Arg(64)->Arg(512);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_fig2_nonincreasing.json")
