// resched_tool: command-line frontend for the whole library.
//
//   # schedule an instance file (native or SWF) and print the result
//   resched_tool schedule --input=cluster.inst --algorithm=lsrc-lpt
//
//   # compare every registered scheduler on one instance
//   resched_tool compare --input=cluster.swf
//
//   # inspect an instance: classification, bounds, applicable guarantee
//   resched_tool info --input=cluster.inst
//
//   # hunt for scheduling anomalies under a given algorithm
//   resched_tool anomalies --input=cluster.inst --algorithm=lsrc
//
//   # print the registry: every scheduler, its description and capabilities
//   resched_tool list-schedulers
//
//   # check scenario programs / SWF traces without running a campaign
//   resched_tool scenario validate tests/data/*.scn
//   resched_tool trace info trace.swf
//
// Input format is auto-detected (native "# resched instance" vs SWF).
#include <algorithm>
#include <cctype>
#include <fstream>
#include <utility>
#include <iostream>
#include <sstream>
#include <vector>

#include "resched.hpp"

namespace {

using namespace resched;

// "parsed=5 skipped=5 (...)" plus the clamp counts that are non-zero.
std::string read_summary(const SwfTrace& trace) {
  std::string summary = trace.skip_summary();
  if (trace.clamped_procs > 0)
    summary += ", clamped-procs " + std::to_string(trace.clamped_procs);
  if (trace.clamped_times > 0)
    summary += ", clamped-times " + std::to_string(trace.clamped_times);
  return summary;
}

// A file is SWF when its first non-blank line is a ';' header comment or,
// in a headerless archive trace, a job record's leading digits; native
// records start with '#', 'm', 'job' or 'resa'. SWF goes through the one
// tolerant reader, which reports on stderr only when it skipped or clamped
// something.
Instance load_any(const std::string& path) {
  std::ifstream probe(path);
  RESCHED_REQUIRE_MSG(probe.good(), "cannot open: " + path);
  std::string line;
  while (std::getline(probe, line) && trim(line).empty()) {
  }
  const std::string_view first = trim(line);
  const bool swf = !first.empty() &&
                   (first.front() == ';' ||
                    std::isdigit(static_cast<unsigned char>(first.front())));
  probe.clear();
  probe.seekg(0);
  if (!swf) return load_instance(probe);
  const SwfTrace trace = load_swf(path);
  if (trace.skipped > 0 || trace.clamped_procs > 0 || trace.clamped_times > 0)
    std::cerr << path << ": " << read_summary(trace) << "\n";
  return trace.to_instance();
}

int cmd_info(const Instance& instance) {
  std::cout << "m = " << instance.m() << ", n = " << instance.n()
            << " jobs, n' = " << instance.n_reservations()
            << " reservations\n";
  std::cout << "total work W = " << instance.total_work()
            << ", p_max = " << instance.p_max()
            << ", q_max = " << instance.q_max() << "\n";
  std::cout << "release times: "
            << (instance.has_release_times() ? "yes (online)" : "no (offline)")
            << "\n";
  std::cout << "unavailability non-increasing: "
            << (has_non_increasing_unavailability(instance) ? "yes" : "no")
            << "\n";
  if (const auto alpha = best_alpha(instance); alpha.has_value()) {
    std::cout << "alpha-restricted with alpha = " << alpha->to_string()
              << " (LSRC guarantee 2/alpha = "
              << alpha_upper_bound(*alpha).to_string() << ")\n";
  } else {
    std::cout << "not alpha-restricted for any alpha (Theorem 1 territory)\n";
  }
  std::cout << "certified lower bound on C*: "
            << makespan_lower_bound(instance) << "\n";
  return 0;
}

int cmd_schedule(const Instance& instance, const std::string& algorithm,
                 const std::string& out_csv, const std::string& out_svg,
                 bool show_gantt) {
  ScheduleOutcome outcome = make_scheduler(algorithm)->schedule(instance);
  if (!outcome.ok()) {
    std::cerr << "instance outside the domain of '" << algorithm
              << "' (" << to_string(outcome.error().reason)
              << "): " << outcome.error().message << "\n";
    return 1;
  }
  const Schedule schedule = std::move(outcome).value();
  const ValidationResult valid = schedule.validate(instance);
  RESCHED_CHECK_MSG(valid.ok, "scheduler produced infeasible schedule: " +
                                  valid.error);
  const GuaranteeReport report = check_guarantee(instance, schedule);
  std::cout << "algorithm: " << algorithm << "\n";
  std::cout << "makespan: " << schedule.makespan(instance) << "\n";
  std::cout << "lower bound: " << report.reference << "\n";
  std::cout << "guarantee: " << report.guarantee << " -> "
            << to_string(report.compliance) << "\n";
  if (show_gantt) std::cout << "\n" << ascii_gantt(instance, schedule);
  if (!out_csv.empty()) {
    std::ofstream os(out_csv);
    save_schedule_csv(instance, schedule, os);
    std::cout << "schedule CSV written to " << out_csv << "\n";
  }
  if (!out_svg.empty()) {
    std::ofstream os(out_svg);
    os << svg_gantt(instance, schedule);
    std::cout << "SVG written to " << out_svg << "\n";
  }
  return 0;
}

int cmd_compare(const Instance& instance) {
  const Time lb = makespan_lower_bound(instance);
  Table table({"algorithm", "C_max", "ratio vs LB", "utilization",
               "mean wait", "compliance"});
  for (const auto& name : registered_schedulers()) {
    // Typed outcome instead of throw-and-catch: a DomainError row names its
    // reason; a genuine precondition violation still aborts the command.
    ScheduleOutcome outcome = make_scheduler(name)->schedule(instance);
    if (!outcome.ok()) {
      table.add(name, "-", "-", "-", "-",
                "outside domain (" + to_string(outcome.error().reason) + ")");
      continue;
    }
    const Schedule schedule = std::move(outcome).value();
    const ScheduleMetrics metrics = compute_metrics(instance, schedule);
    const GuaranteeReport report = check_guarantee(instance, schedule);
    table.add(name, metrics.makespan,
              format_double(static_cast<double>(metrics.makespan) /
                                static_cast<double>(std::max<Time>(1, lb)),
                            4),
              format_double(metrics.utilization, 3),
              format_double(metrics.mean_wait, 1),
              to_string(report.compliance));
  }
  table.print(std::cout);
  return 0;
}

int cmd_list_schedulers() {
  Table table({"scheduler", "release times", "reservations", "description"});
  for (const SchedulerInfo& info : registered_scheduler_info())
    table.add(info.name, info.capabilities.release_times ? "yes" : "no",
              info.capabilities.reservations ? "yes" : "no",
              info.description);
  table.print(std::cout);
  return 0;
}

int cmd_anomalies(const Instance& instance, const std::string& algorithm) {
  const auto scheduler = make_scheduler(algorithm);
  const AnomalyScan scan = find_anomalies(instance, *scheduler);
  std::cout << "baseline C_max(" << algorithm << ") = " << scan.baseline
            << "\n";
  if (!scan.any()) {
    std::cout << "no anomalies found (every tested improvement helped or "
                 "was neutral)\n";
    return 0;
  }
  Table table({"kind", "job", "new p", "C before", "C after"});
  for (const Anomaly& anomaly : scan.anomalies)
    table.add(to_string(anomaly.kind),
              anomaly.job >= 0 ? std::to_string(anomaly.job) : "-",
              anomaly.kind == AnomalyKind::kShorterDuration
                  ? std::to_string(anomaly.new_duration)
                  : "-",
              anomaly.makespan_before, anomaly.makespan_after);
  table.print(std::cout);
  return 0;
}

// `scenario validate FILE...`: parse + structurally validate each program,
// compile it when self-contained, and report errors with their position.
// Exit code 1 when any file is malformed or unreadable.
int cmd_scenario_validate(const std::vector<std::string>& files) {
  RESCHED_REQUIRE_MSG(!files.empty(),
                      "usage: resched_tool scenario validate FILE...");
  int failures = 0;
  for (const std::string& path : files) {
    try {
      const ScenarioProgram program = load_scn(path);
      std::cout << path << ": ok -- scenario '" << program.name << "', "
                << program.steps.size() << " step(s)";
      if (program.repeat != 1) std::cout << " x " << program.repeat;
      const bool needs_reference = std::any_of(
          program.steps.begin(), program.steps.end(), [](const ScenarioStep& s) {
            return s.kind == ScenarioStepKind::kWaitToCross;
          });
      if (needs_reference) {
        std::cout << " (wait_to_cross: compiles against a reference curve)\n";
      } else {
        const CompiledScenario compiled = compile_scenario(program);
        std::cout << ", horizon " << compiled.horizon << ", level range ["
                  << compiled.curve.min_value() << ", "
                  << compiled.curve.max_value() << "]\n";
      }
    } catch (const ScnParseError& error) {
      std::cerr << path << ":" << error.what() << "\n";
      ++failures;
    } catch (const std::exception& error) {
      std::cerr << path << ": error: " << error.what() << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// `trace info FILE...`: SWF summary -- machine size, parsed and skipped
// record counts (by reason), clamps, reservations, header directives. Exit
// code 1 when a file is unreadable or malformed, or yields no jobs at all.
int cmd_trace_info(const std::vector<std::string>& files) {
  RESCHED_REQUIRE_MSG(!files.empty(), "usage: resched_tool trace info FILE...");
  int failures = 0;
  for (const std::string& path : files) {
    try {
      const SwfTrace trace = load_swf(path);
      std::cout << path << ": MaxProcs " << trace.max_procs << ", "
                << read_summary(trace) << ", " << trace.reservations.size()
                << " reservation(s), " << trace.directives.size()
                << " header directive(s)\n";
      if (trace.parsed == 0) {
        std::cerr << path << ": error: no schedulable job records\n";
        ++failures;
      }
    } catch (const std::exception& error) {
      std::cerr << path << ": error: " << error.what() << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resched;
  CliParser cli("resched_tool",
                "schedule / compare / info / anomalies on instance files");
  cli.add_option("input", "instance file (native or SWF; auto-detected)", "");
  cli.add_option("algorithm", "scheduler name (see `compare` for the list)",
                 "lsrc");
  cli.add_option("out-csv", "write the schedule as CSV", "");
  cli.add_option("out-svg", "write an SVG Gantt chart", "");
  cli.add_flag("no-gantt", "suppress the ASCII Gantt chart");

  try {
    if (!cli.parse(argc, argv)) return 0;
    RESCHED_REQUIRE_MSG(!cli.positional().empty(),
                        "usage: resched_tool <schedule|compare|info|"
                        "anomalies|list-schedulers> --input=FILE | "
                        "resched_tool <scenario validate|trace info> FILE...");
    const std::string command = cli.positional().front();
    if (command == "list-schedulers") return cmd_list_schedulers();
    if (command == "scenario" || command == "trace") {
      const auto& positional = cli.positional();
      RESCHED_REQUIRE_MSG(
          positional.size() >= 2 &&
              positional[1] == (command == "scenario" ? "validate" : "info"),
          command == "scenario" ? "usage: resched_tool scenario validate FILE..."
                                : "usage: resched_tool trace info FILE...");
      const std::vector<std::string> files(positional.begin() + 2,
                                           positional.end());
      return command == "scenario" ? cmd_scenario_validate(files)
                                   : cmd_trace_info(files);
    }
    const std::string input = cli.get_string("input");
    RESCHED_REQUIRE_MSG(!input.empty(), "--input is required");
    const Instance instance = load_any(input);

    if (command == "info") return cmd_info(instance);
    if (command == "schedule")
      return cmd_schedule(instance, cli.get_string("algorithm"),
                          cli.get_string("out-csv"), cli.get_string("out-svg"),
                          !cli.get_flag("no-gantt"));
    if (command == "compare") return cmd_compare(instance);
    if (command == "anomalies")
      return cmd_anomalies(instance, cli.get_string("algorithm"));
    std::cerr << "unknown command '" << command << "'\n" << cli.usage();
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
