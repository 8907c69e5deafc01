// Campaign runner: print the paper's figure tables as CSV, or sweep all
// schedulers over seeded random instances in parallel.
//
// A thin driver over the library:
//
//   ./build/examples/campaign --experiment=fig3 > fig3.csv
//   ./build/examples/campaign --experiment=fig4 > fig4.csv
//   ./build/examples/campaign --experiment=alpha > alpha.csv
//   ./build/examples/campaign --experiment=sweep --instances=64 --threads=8
//
// fig3, fig4 and alpha are the tables the bench binaries print
// (report/paper_tables.hpp), one CSV block per table; a figure with several
// tables heads each block with a "# <label>" line. --dump-instances also
// writes the generated instances behind their rows as SWF files in the
// working directory.
//
// The sweep experiment is powered by sim/campaign.hpp's run_campaign: same
// seed means the same aggregated table for any --threads value.
#include <fstream>
#include <iostream>

#include "core/swf.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "report/paper_tables.hpp"
#include "sim/campaign.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace resched;

int print_figure(const PaperFigure& figure, bool dump) {
  for (const auto& [label, table] : figure.tables) {
    if (figure.tables.size() > 1) std::cout << "# " << label << "\n";
    std::cout << table.to_csv();
  }
  if (dump) {
    for (const auto& [stem, instance] : figure.instances) {
      std::ofstream os(stem + ".swf");
      write_swf(instance, os);
    }
  }
  return 0;
}

int run_sweep(const CliParser& cli) {
  CampaignConfig config;
  config.instances = static_cast<std::size_t>(cli.get_int("instances"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.threads = static_cast<std::size_t>(cli.get_int("threads"));
  config.share_instances = cli.get_flag("share");
  const std::string schedulers = cli.get_string("schedulers");
  if (!schedulers.empty()) config.schedulers = split(schedulers, ',');

  const std::size_t n = static_cast<std::size_t>(cli.get_int("n"));
  const ProcCount m = cli.get_int("m");
  const std::int64_t reservations = cli.get_int("reservations");
  const InstanceGenerator generator =
      [n, m, reservations](std::size_t, std::uint64_t seed) {
        WorkloadConfig workload;
        workload.n = n;
        workload.m = m;
        workload.alpha = Rational(1, 2);
        Instance instance = random_workload(workload, seed);
        if (reservations > 0) {
          AlphaReservationConfig resa;
          resa.alpha = Rational(1, 2);
          resa.count = static_cast<std::size_t>(reservations);
          resa.horizon = 2000;
          resa.max_duration = 200;
          instance = with_alpha_restricted_reservations(
              instance, resa, seed ^ 0x9e3779b97f4a7c15ull);
        }
        return instance;
      };

  const CampaignResult result = run_campaign(generator, config);
  std::cout << "campaign: " << result.instances << " instances, seed "
            << config.seed
            << (config.share_instances ? ", shared instances"
                                       : ", regenerated instances")
            << "\n\n";
  result.to_table().print(std::cout);
  // Typed skip reasons (DomainError), not just a bare count.
  for (const CampaignCell& cell : result.cells)
    if (cell.skipped > 0)
      std::cout << "skips[" << cell.scheduler << "]: " << cell.skip_reasons()
                << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace resched;
  CliParser cli("campaign", "CSV sweep runner for the paper's figures");
  cli.add_option("experiment", "one of: fig3, fig4, alpha, sweep", "fig3");
  cli.add_option("instances", "sweep: number of generated instances", "32");
  cli.add_option("seed", "sweep: master seed", "1");
  cli.add_option("threads", "sweep: worker threads (0 = all cores)", "0");
  cli.add_option("schedulers",
                 "sweep: comma-separated scheduler names (empty = all)", "");
  cli.add_option("n", "sweep: jobs per instance", "120");
  cli.add_option("m", "sweep: processors", "64");
  cli.add_option("reservations", "sweep: reservations per instance", "8");
  cli.add_flag("share",
               "sweep: generate each instance once and share it across "
               "scheduler tasks (same table as regenerating)");
  cli.add_flag("dump-instances",
               "fig3, fig4, alpha: also write the instances behind the rows "
               "as SWF");
  if (!cli.parse(argc, argv)) return 0;

  const std::string experiment = cli.get_string("experiment");
  const bool dump = cli.get_flag("dump-instances");
  if (experiment == "fig3") return print_figure(fig3_adversarial(), dump);
  if (experiment == "fig4") return print_figure(fig4_bounds(), dump);
  if (experiment == "alpha") return print_figure(alpha_sweep(), dump);
  if (experiment == "sweep") return run_sweep(cli);
  std::cerr << "unknown experiment '" << experiment << "'\n" << cli.usage();
  return 1;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
