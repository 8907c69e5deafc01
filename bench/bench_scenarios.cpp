// Scenario subsystem costs: program compilation, skyline decomposition,
// SWF parsing, the scenario x scheduler survival matrix, and a
// resident-service step running under a scenario's availability windows.
//
// The table section prints the stock survival matrix (the qualitative
// verdict grid) on stdout; the timing section exports cell
// counts, verdict tallies and parse/skip counters so BENCH_scenarios.json
// tracks both the subsystem's speed and its deterministic aggregates
// across PRs.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "algorithms/scheduler.hpp"
#include "bench_util.hpp"
#include "core/swf.hpp"
#include "scenario/matrix.hpp"
#include "scenario/scn_format.hpp"

namespace {

using namespace resched;

constexpr std::uint64_t kSeed = 42;

void print_tables() {
  benchutil::print_header(
      "Scenario survival matrix",
      "Six stock availability/workload scenarios x the scheduler registry "
      "(m = 32, 4 instances per cell, seed 42): held / VIOLATED / "
      "out-of-domain / inconclusive per cell.");
  ScenarioMatrixConfig config;
  config.instances = 4;
  config.seed = kSeed;
  const ScenarioMatrixResult result =
      run_scenario_matrix(stock_scenarios(32), config);
  benchutil::print_table(result.survival_table());
}

// Compile one stock program and decompose its curve into reservations --
// the per-scenario setup cost the matrix pays once per row.
void BM_CompileScenario(benchmark::State& state, const char* which) {
  const ProcCount m = 32;
  ScenarioProgram program;
  std::optional<ScenarioProgram> reference;
  if (std::string(which) == "daily_intensity") {
    program = daily_intensity_program(1440);
  } else if (std::string(which) == "brownout") {
    program = brownout_program(m);
    reference = daily_intensity_program(1440);
  } else {
    program = flash_crowd_program(m);
  }
  std::optional<CompiledScenario> compiled_reference;
  if (reference.has_value())
    compiled_reference = compile_scenario(*reference);
  CompiledScenario compiled;
  std::size_t reservations = 0;
  for (auto _ : state) {
    compiled = compile_scenario(program, compiled_reference.has_value()
                                             ? &compiled_reference->curve
                                             : nullptr);
    if (compiled.curve.max_value() <= m)
      reservations =
          unavailability_to_reservations(scenario_unavailability(compiled, m))
              .size();
    benchmark::DoNotOptimize(compiled.horizon);
  }
  state.counters["segments"] =
      static_cast<double>(compiled.curve.segments().size());
  state.counters["reservations"] = static_cast<double>(reservations);
}

// Round-trip the committed grammar: serialize + reparse one stock program.
void BM_ScnRoundTrip(benchmark::State& state) {
  const ScenarioProgram program = daily_intensity_program(1440);
  ScenarioProgram reparsed;
  for (auto _ : state) {
    reparsed = parse_scn(serialize_scn(program));
    benchmark::DoNotOptimize(reparsed.steps.size());
  }
  state.counters["steps"] = static_cast<double>(reparsed.steps.size());
}

// SWF parse over a synthesized in-memory trace: 2000 records, a
// deterministic sprinkle of every skip reason plus clamped fields.
void BM_SwfParse(benchmark::State& state) {
  std::ostringstream trace;
  trace << "; MaxProcs: 64\n; MaxRuntime: 100000\n";
  for (int i = 1; i <= 2000; ++i) {
    if (i % 97 == 0) {
      trace << i << " 10 0 5\n";  // truncated: 4 fields
    } else if (i % 89 == 0) {
      trace << i << " 10 0 xx 4 -1 -1 -1 -1 -1 0 1 -1 -1 -1 -1 -1 -1\n";
    } else {
      // status 5 every 101st record (cancelled), procs 80 every 53rd
      // (clamped to MaxProcs), otherwise a clean record.
      const int procs = i % 53 == 0 ? 80 : 1 + i % 8;
      const int status = i % 101 == 0 ? 5 : 1;
      trace << i << ' ' << i % 500 << " 0 " << 1 + i % 120 << ' ' << procs
            << " -1 -1 -1 -1 -1 " << status << " 1 -1 -1 -1 -1 -1 -1\n";
    }
  }
  const std::string text = trace.str();
  SwfTrace parsed;
  for (auto _ : state) {
    parsed = parse_swf(text);
    benchmark::DoNotOptimize(parsed.jobs.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["parsed"] = static_cast<double>(parsed.parsed);
  state.counters["skipped"] = static_cast<double>(parsed.skipped);
  state.counters["clamped_procs"] = static_cast<double>(parsed.clamped_procs);
}

// A 2 x 2 corner of the matrix with single-threaded campaigns: the
// held / VIOLATED contrast (soak's blocking workload defeats fcfs) at a
// size CI can afford per run.
void BM_ScenarioMatrix(benchmark::State& state) {
  std::vector<ScenarioSpec> specs;
  for (ScenarioSpec& spec : stock_scenarios(16))
    if (spec.program.name == "soak" || spec.program.name == "ramp")
      specs.push_back(std::move(spec));
  ScenarioMatrixConfig config;
  config.instances = 2;
  config.seed = kSeed;
  config.threads = 1;
  config.schedulers = {"fcfs", "lsrc"};
  ScenarioMatrixResult result;
  for (auto _ : state) {
    result = run_scenario_matrix(specs, config);
    benchmark::DoNotOptimize(result.cells.size());
  }
  double violated = 0, out_of_domain = 0, held = 0;
  for (const ScenarioCell& cell : result.cells) {
    if (cell.verdict == CellVerdict::kViolated) ++violated;
    if (cell.verdict == CellVerdict::kOutOfDomain) ++out_of_domain;
    if (cell.verdict == CellVerdict::kHeld) ++held;
  }
  state.counters["cells"] = static_cast<double>(result.cells.size());
  state.counters["held"] = held;
  state.counters["violated"] = violated;
  state.counters["out_of_domain"] = out_of_domain;
}

// One resident-service step with the maintenance program's unavailability
// rectangles installed as availability windows.
void BM_ScenarioServiceStep(benchmark::State& state) {
  const auto scheduler = make_scheduler("easy");
  LoadGenConfig load;
  load.m = 32;
  load.p_min = 1;
  load.p_max = 30;
  load.alpha = Rational(1, 2);
  ServiceConfig config;
  config.phases = ServicePhases{50, 250, 50};
  config.dispatch_window = 64;
  config.bail_queue_depth = 2000;
  ServiceStepResult last;
  for (auto _ : state) {
    last = run_scenario_service_step(*scheduler, maintenance_program(32),
                                     std::nullopt, load, kSeed, 200.0, config);
    benchmark::DoNotOptimize(last.completed);
  }
  state.counters["scenario_windows"] =
      static_cast<double>(last.scenario_windows);
  state.counters["completed"] = static_cast<double>(last.completed);
  state.counters["saturated"] = last.saturated ? 1.0 : 0.0;
}

BENCHMARK_CAPTURE(BM_CompileScenario, daily_intensity, "daily_intensity")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CompileScenario, flash_crowd, "flash_crowd")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CompileScenario, brownout, "brownout")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ScnRoundTrip)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SwfParse)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ScenarioMatrix)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScenarioServiceStep)->Unit(benchmark::kMillisecond);

}  // namespace

RESCHED_BENCH_MAIN(print_tables, "BENCH_scenarios.json")
