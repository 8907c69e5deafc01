#include "sim/cluster_sim.hpp"

#include <algorithm>
#include <ostream>

#include "core/load_sweep.hpp"
#include "util/require.hpp"

namespace resched {

namespace {
const char* kind_name(TraceEntry::Kind kind) {
  switch (kind) {
    case TraceEntry::Kind::kJobStart: return "job_start";
    case TraceEntry::Kind::kJobEnd: return "job_end";
    case TraceEntry::Kind::kReservationStart: return "resa_start";
    case TraceEntry::Kind::kReservationEnd: return "resa_end";
  }
  return "?";
}
}  // namespace

SimulationResult simulate_cluster(const Instance& instance,
                                  const Schedule& schedule) {
  SimulationResult result;
  // assign_machines throws std::invalid_argument on an infeasible schedule,
  // before anything is replayed.
  const CheckedSweep sweep = schedule.checked_sweep(instance);
  result.assignment = assign_machines(instance, sweep);
  result.metrics = metrics_of_feasible(instance, schedule);
  const ValidationResult assignment_ok =
      validate_assignment(instance, sweep.events, result.assignment);
  RESCHED_CHECK_MSG(assignment_ok.ok, assignment_ok.error);

  result.trace.reserve(sweep.events.size());
  for (const LoadEvent& ev : sweep.events) {
    using Kind = TraceEntry::Kind;
    const Kind kind = ev.is_reservation()
                          ? (ev.is_start() ? Kind::kReservationStart
                                           : Kind::kReservationEnd)
                          : (ev.is_start() ? Kind::kJobStart : Kind::kJobEnd);
    result.trace.push_back({ev.tick(), kind, ev.id()});
  }
  // Each occupant holds q machines (validate_assignment), so the busy
  // machines at any instant are the load.
  for (const LoadStep& step : sweep.steps)
    result.peak_busy = std::max(result.peak_busy, step.load);
  return result;
}

void write_trace_csv(const std::vector<TraceEntry>& trace, std::ostream& os) {
  os << "time,event,id\n";
  for (const TraceEntry& entry : trace)
    os << entry.time << ',' << kind_name(entry.kind) << ',' << entry.id
       << "\n";
}

}  // namespace resched
