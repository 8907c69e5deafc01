// Experiment E9b -- data-structure microbenchmarks.
//
// StepProfile is the single structure under every scheduler; these benches
// pin down the cost of its core operations as the segment count grows.
#include "bench_util.hpp"

#include "core/arena.hpp"
#include "core/profile_allocator.hpp"
#include "core/step_profile.hpp"
#include "util/prng.hpp"

namespace {

using namespace resched;

StepProfile busy_profile(std::int64_t segments, std::uint64_t seed) {
  StepProfile profile(256);
  Prng prng(seed);
  for (std::int64_t i = 0; i < segments; ++i) {
    const Time start = prng.uniform_int(0, 100'000);
    const Time len = prng.uniform_int(1, 500);
    profile.add(start, start + len, prng.uniform_int(-2, 2));
  }
  // Keep it a valid capacity profile.
  if (profile.min_value() < 0) {
    StepProfile lifted(256 - profile.min_value());
    return lifted.plus(profile.minus(StepProfile(256)));
  }
  return profile;
}

void print_tables() {
  benchutil::print_header(
      "StepProfile microbenchmarks (E9)",
      "Core profile operations vs segment count; timings below.");
}

void BM_ProfileAdd(benchmark::State& state) {
  Prng prng(1);
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    StepProfile profile = busy_profile(state.range(0), 2);
    state.ResumeTiming();
    const Time start = prng.uniform_int(0, 100'000);
    const std::uint64_t allocs_begin = alloc_count();
    profile.add(start, start + 200, -1);
    allocs += alloc_count() - allocs_begin;
    ++ops;
    benchmark::DoNotOptimize(profile.segment_count());
  }
  state.counters["allocs_per_op"] =
      ops > 0 ? static_cast<double>(allocs) / static_cast<double>(ops) : 0.0;
}
BENCHMARK(BM_ProfileAdd)->Range(64, 4096);

void BM_ProfileMinIn(benchmark::State& state) {
  const StepProfile profile = busy_profile(state.range(0), 3);
  Prng prng(4);
  for (auto _ : state) {
    const Time start = prng.uniform_int(0, 100'000);
    benchmark::DoNotOptimize(profile.min_in(start, start + 1000));
  }
}
BENCHMARK(BM_ProfileMinIn)->Range(64, 16384);

void BM_ProfileMinInWide(benchmark::State& state) {
  // Windows spanning a quarter of the horizon: the regime where a linear
  // scan visits thousands of segments per query.
  const StepProfile profile = busy_profile(state.range(0), 3);
  Prng prng(4);
  for (auto _ : state) {
    const Time start = prng.uniform_int(0, 75'000);
    benchmark::DoNotOptimize(profile.min_in(start, start + 25'000));
  }
}
BENCHMARK(BM_ProfileMinInWide)->Range(64, 16384);

void BM_ProfileFirstBelow(benchmark::State& state) {
  const StepProfile profile = busy_profile(state.range(0), 3);
  // A threshold at the profile floor forces the worst case: the whole
  // window is searched and nothing is found.
  const std::int64_t floor = profile.min_value();
  Prng prng(11);
  for (auto _ : state) {
    const Time start = prng.uniform_int(0, 100'000);
    benchmark::DoNotOptimize(profile.first_below(start, start + 50'000, floor));
  }
}
BENCHMARK(BM_ProfileFirstBelow)->Range(64, 16384);

void BM_ProfileIntegral(benchmark::State& state) {
  // Whole-horizon window: the scan visits every segment (the /16384 profile
  // holds ~22k of them).
  const StepProfile profile = busy_profile(state.range(0), 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(profile.integral(0, 100'000));
}
BENCHMARK(BM_ProfileIntegral)->Range(64, 16384);

void BM_TimeToAccumulate(benchmark::State& state) {
  // Target sized to ~3/4 of the horizon's area, so the lower-bound style
  // query (lower_bounds.cpp, bnb.cpp) has to cross most of the profile
  // before finding its answer.
  const StepProfile profile = busy_profile(state.range(0), 5);
  const std::int64_t target = profile.integral(0, 100'000) * 3 / 4;
  Prng prng(13);
  for (auto _ : state) {
    const Time from = prng.uniform_int(0, 10'000);
    benchmark::DoNotOptimize(profile.time_to_accumulate(from, target));
  }
}
BENCHMARK(BM_TimeToAccumulate)->Range(64, 16384);

void BM_EarliestFit(benchmark::State& state) {
  FreeProfile free(busy_profile(state.range(0), 6));
  Prng prng(7);
  for (auto _ : state) {
    const ProcCount q = prng.uniform_int(1, 200);
    benchmark::DoNotOptimize(free.earliest_fit(0, q, 300));
  }
}
BENCHMARK(BM_EarliestFit)->Range(64, 16384);

void BM_EarliestFitHoles(benchmark::State& state) {
  // The first fit lies past N holes too short for the job: N deficient runs
  // of two segments each, separated by 4-tick holes at full capacity, then
  // free capacity for good. BM_EarliestFit fits almost immediately; here
  // the search walks across 3N segments before it fits.
  const std::int64_t holes = state.range(0);
  StepProfile capacity(256);
  for (std::int64_t k = 0; k < holes; ++k) {
    const Time start = k * 10;
    capacity.add(start, start + 3, -192);
    capacity.add(start + 3, start + 6, -160);
  }
  FreeProfile free(std::move(capacity));
  const Time expected = holes * 10 - 4;  // the tail after the last run
  Time t0 = 0;
  ProcCount q = 128;
  Time p = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t0);
    benchmark::DoNotOptimize(q);
    benchmark::DoNotOptimize(p);
    const Time t = free.earliest_fit(t0, q, p);
    if (t != expected) state.SkipWithError("unexpected first fit");
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_EarliestFitHoles)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void BM_BackfillChurn(benchmark::State& state) {
  // Branch-and-bound-shaped probe loop (exact/bnb.cpp's DFS): commit a
  // candidate as a recorded frame, run a wide windowed query, rewind. The
  // undo log reverts in O(touched).
  FreeProfile free(busy_profile(state.range(0), 6));
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();
  Prng prng(21);
  std::uint64_t allocs = 0;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    const Time t = prng.uniform_int(0, 50'000);
    const ProcCount q = prng.uniform_int(1, 64);
    if (!free.fits_at(t, q, 300)) continue;
    const std::uint64_t allocs_begin = alloc_count();
    free.commit_fitted(t, q, 300);
    benchmark::DoNotOptimize(free.profile().min_in(0, 100'000));
    free.rewind_to(before);
    allocs += alloc_count() - allocs_begin;
    ++probes;
  }
  // Steady-state commit/probe/rewind cycles should be allocation-free:
  // undo frames come from the spare pool, segment edits reuse capacity.
  state.counters["allocs_per_probe"] =
      probes > 0 ? static_cast<double>(allocs) / static_cast<double>(probes)
                 : 0.0;
}
BENCHMARK(BM_BackfillChurn)->Range(64, 4096);

void BM_ProfilePlus(benchmark::State& state) {
  const StepProfile a = busy_profile(state.range(0), 8);
  const StepProfile b = busy_profile(state.range(0), 9);
  for (auto _ : state) benchmark::DoNotOptimize(a.plus(b).segment_count());
}
BENCHMARK(BM_ProfilePlus)->Range(64, 4096);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_profile_ops.json")
