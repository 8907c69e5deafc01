#include "sim/cluster_sim.hpp"

#include <algorithm>
#include <ostream>

#include "core/load_sweep.hpp"
#include "util/checked.hpp"
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
  // assign_machines validates the schedule: an infeasible one throws
  // std::invalid_argument there, before anything is replayed.
  result.assignment = assign_machines(instance, schedule);
  result.metrics = metrics_of_feasible(instance, schedule);
  const ValidationResult assignment_ok =
      validate_assignment(instance, schedule, result.assignment);
  RESCHED_CHECK_MSG(assignment_ok.ok, assignment_ok.error);

  // Live machine state: whether each machine is held by an occupant.
  std::vector<bool> busy(static_cast<std::size_t>(instance.m()), false);
  ProcCount busy_count = 0;
  const std::vector<LoadEvent> events = sweep_events(instance, schedule);
  result.trace.reserve(events.size());
  for (const LoadEvent& ev : events) {
    const auto index = static_cast<std::size_t>(ev.id());
    const std::vector<MachineIndex>& machines =
        ev.is_reservation() ? result.assignment.reservation_machines[index]
                            : result.assignment.job_machines[index];
    using Kind = TraceEntry::Kind;
    const Kind kind = ev.is_reservation()
                          ? (ev.is_start() ? Kind::kReservationStart
                                           : Kind::kReservationEnd)
                          : (ev.is_start() ? Kind::kJobStart : Kind::kJobEnd);
    result.trace.push_back({ev.tick(), kind, ev.id()});
    for (const MachineIndex machine : machines) {
      const auto slot = static_cast<std::size_t>(machine);
      if (ev.is_start())
        RESCHED_CHECK_MSG(!busy[slot], "machine acquired twice");
      else
        RESCHED_CHECK_MSG(busy[slot], "idle machine released");
      busy[slot] = ev.is_start();
    }
    const auto count = static_cast<ProcCount>(machines.size());
    busy_count = ev.is_start() ? checked_add(busy_count, count)
                               : checked_sub(busy_count, count);
    result.peak_busy = std::max(result.peak_busy, busy_count);
  }
  RESCHED_CHECK_MSG(busy_count == 0, "machines still busy after simulation");
  return result;
}

void write_trace_csv(const std::vector<TraceEntry>& trace, std::ostream& os) {
  os << "time,event,id\n";
  for (const TraceEntry& entry : trace)
    os << entry.time << ',' << kind_name(entry.kind) << ',' << entry.id
       << "\n";
}

}  // namespace resched
