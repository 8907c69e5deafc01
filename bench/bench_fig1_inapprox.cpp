// Fig. 1 / Theorem 1 (inapproximability): prints report/paper_tables'
// fig1_inapproximability(), then times the reduction's construction and the
// 3-PARTITION solver.
#include "bench_util.hpp"

#include "generators/adversarial.hpp"
#include "report/paper_tables.hpp"

namespace {

using namespace resched;

void print_tables() { std::cout << fig1_inapproximability().text; }

void BM_ReductionConstruction(benchmark::State& state) {
  Prng prng(7);
  const ThreePartitionInstance partition = random_strict_yes_instance(
      static_cast<std::size_t>(state.range(0)), 24, prng);
  for (auto _ : state) {
    const Theorem1Reduction reduction = theorem1_reduction(partition, 2);
    benchmark::DoNotOptimize(reduction.instance.n_reservations());
  }
}
BENCHMARK(BM_ReductionConstruction)->Arg(3)->Arg(6)->Arg(12);

void BM_ThreePartitionSolver(benchmark::State& state) {
  Prng prng(11);
  const ThreePartitionInstance partition = random_strict_yes_instance(
      static_cast<std::size_t>(state.range(0)), 40, prng);
  for (auto _ : state) {
    const ThreePartitionSolution solution = solve_three_partition(partition);
    benchmark::DoNotOptimize(solution.solvable);
  }
}
BENCHMARK(BM_ThreePartitionSolver)->Arg(3)->Arg(6)->Arg(9);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_fig1_inapprox.json")
