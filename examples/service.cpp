// Open-loop service harness: schedulers as a resident cluster service.
//
// Sweeps the offered arrival rate from --step-size up to --step-stop (jobs
// per kilotick, mutated-client style) for each requested scheduler, running
// warmup/measure/cooldown phases per step on the service's event loop, and
// prints one row per rate step: decision-latency percentiles, wait-time
// percentiles, queue depth, sustained throughput, and whether the step
// saturated. The detected saturation knee -- the first rate whose queue
// growth diverges -- closes each scheduler's section.
//
// Decision accounting: `decisions` counts every scheduler invocation across
// all three phases, while the dec_ns_* percentiles sample only the
// `decisions_measured` invocations that fell inside the open measure window
// (the two were conflated before the counters were split). Every decision
// plans through the scheduler's replan() on the persistent absolute-time
// profile, so only schedulers with a replan mode (fcfs, conservative, easy,
// lsrc, lsrc-lpt) are accepted; any other is an error. --verify-incremental
// also solves each decision from scratch and cross-checks the two. --churn
// enables the deterministic churn stream (cancellations, availability
// drops, window moves) at the given events-per-kilotick rate.
//
// With a fixed --seed every simulated quantity (arrivals, waits, queue
// depths, knee) is bit-identical across runs and across schedulers at the
// same rate step. Wall-clock decision latency is real measured time and
// therefore run-to-run noisy; pass --stable to blank those columns when
// diffing output (goldens, CI). Invalid arguments (negative counts,
// non-finite or too finely divided rates) print an error and exit 1.
//
// Run: ./build/examples/service --schedulers=easy,conservative
//      [--m=64] [--step-size=20] [--step-stop=200] [--seed=42]
//      [--warmup=100] [--measure=500] [--cooldown=100] [--window=128]
//      [--verify-incremental] [--churn=0]
//      [--machine-readable] [--stable]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/scheduler.hpp"
#include "sim/service_sim.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace resched;

constexpr double kQuantiles[] = {0.50, 0.99, 0.999};

// "p50/p99/p999" cells for one recorder; "-" when nothing was recorded or
// the column is blanked for stable output.
std::vector<std::string> quantile_cells(const LatencyRecorder& recorder,
                                        bool blank) {
  if (blank || recorder.count() == 0) return {"-", "-", "-"};
  std::vector<std::string> cells;
  for (const std::int64_t v : recorder.percentiles(kQuantiles))
    cells.push_back(std::to_string(v));
  return cells;
}

WidthDistribution parse_width(const std::string& name) {
  if (name == "pow2") return WidthDistribution::kPowersOfTwo;
  if (name == "uniform") return WidthDistribution::kUniform;
  if (name == "narrow") return WidthDistribution::kMostlyNarrow;
  throw std::invalid_argument("unknown width distribution: " + name +
                              " (expected pow2|uniform|narrow)");
}

Rational parse_alpha(const std::string& text) {
  const std::vector<std::string> parts = split(text, '/');
  if (parts.size() == 1) return Rational(std::stoll(parts[0]));
  if (parts.size() == 2)
    return Rational(std::stoll(parts[0]), std::stoll(parts[1]));
  throw std::invalid_argument("alpha must be an integer or a fraction p/q");
}

// Job and queue counts: a negative value would wrap through the unsigned
// cast into a huge count (or a phase total that wraps to zero).
std::uint64_t get_count(const CliParser& cli, const std::string& name) {
  const std::int64_t value = cli.get_int(name);
  RESCHED_REQUIRE_MSG(value >= 0, "--" + name + " must be non-negative");
  return static_cast<std::uint64_t>(value);
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli("service",
                "open-loop saturation sweep: schedulers as a resident "
                "cluster service");
  cli.add_option("schedulers", "comma-separated registry names",
                 "easy,conservative");
  cli.add_option("m", "processors", "64");
  cli.add_option("step-size", "rate increment, jobs per kilotick", "20");
  cli.add_option("step-stop", "maximum rate, jobs per kilotick", "200");
  cli.add_option("seed", "root seed (per-step seeds derive from it)", "42");
  cli.add_option("warmup", "warmup jobs per step", "100");
  cli.add_option("measure", "measured jobs per step", "500");
  cli.add_option("cooldown", "cooldown jobs per step", "100");
  cli.add_option("window", "dispatch window (jobs per decision)", "128");
  cli.add_option("bail", "bail-out queue depth", "5000");
  cli.add_option("p-min", "minimum service time (ticks)", "1");
  cli.add_option("p-max", "maximum service time (ticks)", "100");
  cli.add_option("width", "width distribution: pow2|uniform|narrow", "pow2");
  cli.add_option("alpha", "width cap as a fraction of m", "1/2");
  cli.add_option("churn", "churn events per kilotick (0 = off)", "0");
  cli.add_option("compact", "history compaction interval, ticks", "256");
  cli.add_flag("verify-incremental",
               "also solve each decision from scratch and check replan()");
  cli.add_flag("machine-readable", "CSV rows instead of aligned tables");
  cli.add_flag("stable", "blank wall-clock columns (deterministic output)");
  if (!cli.parse(argc, argv)) return 0;

  using namespace resched;
  LoadGenConfig load;
  load.m = cli.get_int("m");
  load.p_min = cli.get_int("p-min");
  load.p_max = cli.get_int("p-max");
  load.width = parse_width(cli.get_string("width"));
  load.alpha = parse_alpha(cli.get_string("alpha"));

  ServiceConfig config;
  config.phases.warmup = get_count(cli, "warmup");
  config.phases.measure = get_count(cli, "measure");
  config.phases.cooldown = get_count(cli, "cooldown");
  config.dispatch_window = get_count(cli, "window");
  config.bail_queue_depth = get_count(cli, "bail");
  config.verify_incremental = cli.get_flag("verify-incremental");
  config.churn.events_per_kilotick = cli.get_double("churn");
  config.compact_interval = cli.get_int("compact");
  const bool stable = cli.get_flag("stable");
  config.record_wall_latency = !stable;

  const double step_size = cli.get_double("step-size");
  const double step_stop = cli.get_double("step-stop");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const bool csv = cli.get_flag("machine-readable");

  if (csv)
    std::cout << "record,scheduler,rate,arrivals,completed,wait_p50,"
                 "wait_p99,wait_p999,dec_ns_p50,dec_ns_p99,dec_ns_p999,"
                 "queue_mean,queue_peak,queue_end,sustained,saturated,"
                 "decisions,decisions_measured,suffix_jobs,frames_rewound,"
                 "deferred_dispatches,canceled,churn_events\n";

  for (const std::string& name : split(cli.get_string("schedulers"), ',')) {
    const auto scheduler = make_scheduler(name);
    const ServiceSweepResult sweep = run_service_sweep(
        *scheduler, load, seed, step_size, step_stop, config);

    if (!csv)
      std::cout << "=== " << name << " ===  (m = " << load.m
                << ", phases " << config.phases.warmup << "/"
                << config.phases.measure << "/" << config.phases.cooldown
                << ", seed " << seed << ")\n";
    Table table({"rate/kt", "arrived", "done", "wait p50", "wait p99",
                 "wait p999", "dec ns p50", "dec ns p99", "dec ns p999",
                 "q mean", "q peak", "q end", "decisions", "sustained",
                 "sat"});
    for (const ServiceStepResult& step : sweep.steps) {
      const auto wait = quantile_cells(step.wait_ticks, false);
      const auto dec = quantile_cells(step.decision_ns, stable);
      const std::string queue_mean =
          step.queue_depth.count() == 0
              ? "-"
              : format_double(step.queue_depth.mean(), 1);
      if (csv) {
        std::cout << "service," << name << ','
                  << format_double(step.offered_rate, 3) << ','
                  << step.arrivals << ',' << step.completed << ','
                  << join(wait, ",") << ',' << join(dec, ",") << ','
                  << queue_mean << ',' << step.peak_queue_depth << ','
                  << step.end_queue_depth << ','
                  << format_double(step.sustained_rate, 3) << ','
                  << (step.saturated ? 1 : 0) << ','
                  << step.decisions << ',' << step.decisions_measured << ','
                  << step.suffix_jobs_replanned << ','
                  << step.plan_frames_rewound << ','
                  << step.deferred_dispatches << ',' << step.canceled << ','
                  << step.churn_events << "\n";
      } else {
        table.add(format_double(step.offered_rate, 1), step.arrivals,
                  step.completed, wait[0], wait[1], wait[2], dec[0], dec[1],
                  dec[2], queue_mean, step.peak_queue_depth,
                  step.end_queue_depth, step.decisions,
                  format_double(step.sustained_rate, 2),
                  step.saturated ? "yes" : "no");
      }
    }
    if (!csv) table.print(std::cout);

    if (csv) {
      std::cout << "knee," << name << ','
                << (sweep.has_knee() ? format_double(sweep.knee_rate(), 3)
                                     : std::string("none"))
                << ",,,,,,,,,,,,,,,,,,,,\n";
    } else if (sweep.has_knee()) {
      std::cout << "saturation knee: " << format_double(sweep.knee_rate(), 1)
                << " jobs/kilotick (step " << sweep.knee_index + 1 << ")\n\n";
    } else {
      std::cout << "no saturation knee up to "
                << format_double(step_stop, 1) << " jobs/kilotick\n\n";
    }
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
