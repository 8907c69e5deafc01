// Online cluster operation (paper section 2.1).
//
// Jobs arrive over time (Poisson stream); periodic maintenance windows
// reserve part of the machine. Two ways to run the cluster:
//   * reactive schedulers (FCFS / conservative / EASY / LSRC) that handle
//     releases natively, and
//   * the Shmoys-Wein-Williamson doubling-batch wrapper around an offline
//     algorithm, whose makespan is provably <= 2 rho times optimal.
// The example simulates both, prints the comparison and dumps the execution
// trace of the winner.
//
// Run: ./build/examples/online_cluster [--n=80] [--m=32] [--seed=7]
//      [--interarrival=3.0] [--trace=trace.csv]
#include <fstream>
#include <iostream>

#include "algorithms/online_batch.hpp"
#include "algorithms/scheduler.hpp"
#include "bounds/lower_bounds.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "sim/cluster_sim.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace resched;
  CliParser cli("online_cluster",
                "online arrivals + maintenance reservations, reactive vs "
                "batch-doubling scheduling");
  cli.add_option("n", "number of arriving jobs", "80");
  cli.add_option("m", "processors", "32");
  cli.add_option("seed", "workload seed", "7");
  cli.add_option("interarrival", "mean inter-arrival time", "3.0");
  cli.add_option("trace", "write best schedule's event trace CSV here", "");
  if (!cli.parse(argc, argv)) return 0;

  WorkloadConfig config;
  config.n = static_cast<std::size_t>(cli.get_int("n"));
  config.m = cli.get_int("m");
  config.alpha = Rational(1, 2);
  config.p_max = 30;
  config.mean_interarrival = cli.get_double("interarrival");
  Instance instance =
      random_workload(config, static_cast<std::uint64_t>(cli.get_int("seed")));
  // Nightly maintenance: a quarter of the machine, every 100 ticks.
  instance = with_periodic_maintenance(instance, config.m / 4, 90, 100, 10, 5);

  const Time lb = makespan_lower_bound(instance);
  std::cout << "Online stream: " << instance.n() << " jobs, m = "
            << instance.m() << ", " << instance.n_reservations()
            << " maintenance windows; certified offline LB = " << lb
            << "\n\n";

  Table table({"scheduler", "C_max", "ratio vs LB", "mean wait",
               "mean bounded slowdown"});
  std::string best_name;
  Time best_makespan = kTimeInfinity;
  Schedule best_schedule(instance.n());

  auto evaluate = [&](const std::string& label, const Schedule& schedule) {
    const ScheduleMetrics metrics = compute_metrics(instance, schedule);
    table.add(label, metrics.makespan,
              format_double(static_cast<double>(metrics.makespan) /
                                static_cast<double>(lb),
                            3),
              format_double(metrics.mean_wait, 1),
              format_double(metrics.mean_bounded_slowdown, 2));
    if (metrics.makespan < best_makespan) {
      best_makespan = metrics.makespan;
      best_name = label;
      best_schedule = schedule;
    }
  };

  for (const char* name : {"fcfs", "conservative", "easy", "lsrc"})
    evaluate(name, make_scheduler(name)->schedule(instance).value());
  for (const char* base : {"lsrc", "conservative"}) {
    OnlineBatchScheduler wrapper(make_scheduler(base));
    std::vector<BatchInfo> batches;
    const Schedule schedule =
        wrapper.schedule_with_batches(instance, batches).value();
    evaluate(wrapper.name() + " [" + std::to_string(batches.size()) +
                 " batches]",
             schedule);
  }
  table.print(std::cout);
  std::cout << "\nbest: " << best_name << " at C_max = " << best_makespan
            << "\n";

  const std::string trace_path = cli.get_string("trace");
  if (!trace_path.empty()) {
    const SimulationResult sim = simulate_cluster(instance, best_schedule);
    std::ofstream os(trace_path);
    write_trace_csv(sim.trace, os);
    std::cout << "trace written to " << trace_path << " ("
              << sim.trace.size() << " events)\n";
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
