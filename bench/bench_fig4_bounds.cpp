// Fig. 4 (2/alpha and B1 >= B2): prints report/paper_tables' fig4_bounds(),
// then times the bound curves and the rational arithmetic behind them.
#include "bench_util.hpp"

#include "bounds/guarantees.hpp"
#include "report/paper_tables.hpp"

namespace {

using namespace resched;

void print_tables() { std::cout << fig4_bounds().text; }

void BM_BoundCurveEvaluation(benchmark::State& state) {
  for (auto _ : state) {
    Rational accumulator(0);
    for (int i = 1; i <= 100; ++i) {
      const Rational alpha(i, 100);
      accumulator += lsrc_lower_bound_b1(alpha) + lsrc_lower_bound_b2(alpha);
    }
    benchmark::DoNotOptimize(accumulator);
  }
}
BENCHMARK(BM_BoundCurveEvaluation);

void BM_RationalArithmetic(benchmark::State& state) {
  for (auto _ : state) {
    Rational product(1);
    for (std::int64_t k = 2; k <= 40; ++k)
      product = product * Rational(k, k + 1) + Rational(1, k);
    benchmark::DoNotOptimize(product);
  }
}
BENCHMARK(BM_RationalArithmetic);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_fig4_bounds.json")
