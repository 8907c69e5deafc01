// Grid co-allocation scenario (paper section 1.2, motivation 1).
//
// A user runs a multi-site application: a cross-site slot must be reserved
// in advance so the application starts simultaneously everywhere. On *this*
// site, that reservation removes a block of processors from the batch
// scheduler's control. This example quantifies the impact on the local
// batch queue: we schedule the same workload with every algorithm, with and
// without the co-allocation reservation, and report makespans, waits and
// the alpha-guarantee that the paper attaches to the reserved case.
//
// Run: ./build/examples/grid_coallocation [--m=64] [--n=60] [--seed=1]
//      [--resa-frac=0.5] [--svg=coalloc.svg]
#include <fstream>
#include <iostream>

#include "algorithms/scheduler.hpp"
#include "bounds/checker.hpp"
#include "bounds/lower_bounds.hpp"
#include "core/availability.hpp"
#include "core/gantt.hpp"
#include "generators/workload.hpp"
#include "sim/metrics.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace resched;
  CliParser cli("grid_coallocation",
                "impact of a cross-site co-allocation reservation on the "
                "local batch queue");
  cli.add_option("m", "processors on the local site", "64");
  cli.add_option("n", "jobs in the local queue", "60");
  cli.add_option("seed", "workload seed", "1");
  cli.add_option("resa-frac",
                 "fraction of the site reserved for the co-allocation",
                 "0.5");
  cli.add_option("svg", "write an SVG Gantt of the LSRC schedule here", "");
  if (!cli.parse(argc, argv)) return 0;

  const ProcCount m = cli.get_int("m");
  const double frac = cli.get_double("resa-frac");
  if (frac <= 0.0 || frac >= 1.0) {
    std::cerr << "--resa-frac must lie in (0, 1)\n";
    return 1;
  }

  WorkloadConfig config;
  config.n = static_cast<std::size_t>(cli.get_int("n"));
  config.m = m;
  config.p_max = 40;
  // Keep jobs narrow enough that the alpha guarantee applies after the
  // reservation: q <= (1 - frac) m.
  config.alpha = Rational(static_cast<std::int64_t>((1.0 - frac) * 100), 100);
  const Instance open_site =
      random_workload(config, static_cast<std::uint64_t>(cli.get_int("seed")));

  // The co-allocation slot: frac*m processors for 30 ticks, starting at 40.
  const auto reserved_q = static_cast<ProcCount>(
      static_cast<double>(m) * frac);
  const Instance reserved_site(
      m, open_site.jobs(),
      {Reservation{0, reserved_q, 30, 40, "co-allocation"}});

  std::cout << "Local site: m = " << m << ", " << open_site.n()
            << " queued jobs; co-allocation reserves " << reserved_q
            << " processors during [40, 70).\n";
  if (const auto alpha = best_alpha(reserved_site); alpha.has_value()) {
    std::cout << "Instance is alpha-restricted with alpha = "
              << alpha->to_string()
              << "  =>  LSRC guarantee 2/alpha = "
              << (Rational(2) / *alpha).to_string() << " (Prop. 3)\n\n";
  }

  Table table({"algorithm", "C_max (open)", "C_max (reserved)", "delta %",
               "mean wait (reserved)", "compliance"});
  for (const auto& name : registered_schedulers()) {
    const auto scheduler = make_scheduler(name);
    // Capability filtering: the comparison needs both sites in-domain.
    if (!scheduler->supports(reserved_site) || !scheduler->supports(open_site))
      continue;
    const Schedule open_schedule = scheduler->schedule(open_site).value();
    const Schedule reserved_schedule = scheduler->schedule(reserved_site).value();
    const ScheduleMetrics metrics =
        compute_metrics(reserved_site, reserved_schedule);
    const GuaranteeReport report =
        check_guarantee(reserved_site, reserved_schedule);
    const double open_cmax =
        static_cast<double>(open_schedule.makespan(open_site));
    const double res_cmax = static_cast<double>(metrics.makespan);
    table.add(name, open_schedule.makespan(open_site), metrics.makespan,
              format_double(100.0 * (res_cmax - open_cmax) / open_cmax, 1),
              format_double(metrics.mean_wait, 1),
              to_string(report.compliance));
  }
  table.print(std::cout);

  const std::string svg_path = cli.get_string("svg");
  if (!svg_path.empty()) {
    const Schedule schedule = make_scheduler("lsrc")->schedule(reserved_site).value();
    std::ofstream os(svg_path);
    os << svg_gantt(reserved_site, schedule);
    std::cout << "\nSVG Gantt written to " << svg_path << "\n";
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
