// Demo-day scenario (paper section 1.2, motivation 2).
//
// A user books the whole visualisation partition for a live demo at a fixed
// meeting time. The cluster must drain onto the remaining processors around
// the slot. This example renders the four schedulers' Gantt charts around
// the demo reservation and prints the fairness/utilisation trade-off table
// (strict FCFS idles half the machine; LSRC fills every hole but starves
// wide jobs).
//
// Run: ./build/examples/demo_day [--svg-prefix=demo_day_]
#include <fstream>
#include <iostream>

#include "algorithms/scheduler.hpp"
#include "bounds/lower_bounds.hpp"
#include "core/gantt.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scn_format.hpp"
#include "sim/cluster_sim.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

// The demo slot as a scenario program -- byte-for-byte the committed
// tests/data/demo_day.scn (tests/test_scenario.cpp pins the equivalence,
// and that compiling it reproduces the original hand-built reservation
// exactly): the 12-processor machine drops to 4 during [20, 30).
constexpr const char* kDemoDayScn =
    "scenario demo_day\n"
    "initial 12\n"
    "  soak_at 12 20\n"
    "  jump_to 4\n"
    "  soak_at 4 10\n"
    "  jump_to 12\n"
    "end\n";

}  // namespace

int main(int argc, char** argv) try {
  using namespace resched;
  CliParser cli("demo_day",
                "schedule a mixed queue around a demo-slot reservation");
  cli.add_option("svg-prefix",
                 "write one SVG per scheduler with this filename prefix", "");
  if (!cli.parse(argc, argv)) return 0;

  // 12-processor cluster; the demo-day availability program books 8
  // processors during [20, 30). The queue mixes narrow-long and wide-short
  // jobs; ids are submission order.
  const ScenarioProgram program = parse_scn(kDemoDayScn);
  Instance instance = scenario_instance(
      12,
      {
          Job{0, 4, 18, 0, "cfd"},
          Job{1, 2, 30, 0, "md-long"},
          Job{2, 8, 6, 0, "fft-wide"},
          Job{3, 1, 12, 0, "post"},
          Job{4, 6, 8, 0, "train"},
          Job{5, 2, 10, 0, "stats"},
          Job{6, 4, 4, 0, "viz-prep"},
          Job{7, 3, 14, 0, "assim"},
      },
      compile_scenario(program));
  // One rectangle: 8 processors over [20, 30). Keep the demo's marquee name.
  {
    std::vector<Reservation> reservations = instance.reservations();
    RESCHED_CHECK_MSG(reservations.size() == 1,
                      "demo_day program should compile to one reservation");
    reservations[0].name = "DEMO";
    instance = Instance(instance.m(), instance.jobs(),
                        std::move(reservations));
  }

  std::cout << "Demo day: 8 of 12 processors reserved during [20, 30); "
            << instance.n() << " jobs queued.\n";
  std::cout << "Certified lower bound on OPT: "
            << makespan_lower_bound(instance) << "\n\n";

  Table table({"algorithm", "C_max", "utilization", "mean wait", "max wait",
               "peak busy"});
  for (const char* name : {"fcfs", "conservative", "easy", "lsrc",
                           "lsrc-lpt"}) {
    const Schedule schedule = make_scheduler(name)->schedule(instance).value();
    const SimulationResult sim = simulate_cluster(instance, schedule);
    table.add(name, sim.metrics.makespan,
              format_double(sim.metrics.utilization, 3),
              format_double(sim.metrics.mean_wait, 1), sim.metrics.max_wait,
              sim.peak_busy);

    std::cout << "--- " << name << " ---\n";
    GanttOptions options;
    options.width = 72;
    options.show_legend = name == std::string("fcfs");
    std::cout << ascii_gantt(instance, schedule, options) << "\n";

    const std::string prefix = cli.get_string("svg-prefix");
    if (!prefix.empty()) {
      std::ofstream os(prefix + name + ".svg");
      os << svg_gantt(instance, schedule);
    }
  }
  table.print(std::cout);
  std::cout << "\nReading the charts: FCFS leaves the left of the demo block "
               "idle whenever the\nqueue head is too wide; LSRC backfills "
               "everything but pushes wide jobs behind\nthe demo slot.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
