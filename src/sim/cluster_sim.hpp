// Cluster execution simulator.
//
// Replays a schedule on a concrete cluster over one checked load sweep
// (core/load_sweep.hpp): Schedule::checked_sweep checks capacity,
// assign_machines gives each job and reservation its machines, and
// validate_assignment checks per-machine occupancy on the same events. The
// replay then maps each event to a trace row and reads the peak machine
// usage from the load steps. Produces a per-job execution trace for the
// examples and the online experiments.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/instance.hpp"
#include "core/machine_assignment.hpp"
#include "core/schedule.hpp"
#include "sim/metrics.hpp"

namespace resched {

struct TraceEntry {
  enum class Kind { kJobStart, kJobEnd, kReservationStart, kReservationEnd };
  Time time = 0;
  Kind kind = Kind::kJobStart;
  std::int32_t id = 0;  // job or reservation id
};

struct SimulationResult {
  // In load-sweep order: by time; at equal times ends before starts,
  // reservations before jobs, lower id first.
  std::vector<TraceEntry> trace;
  ScheduleMetrics metrics;
  MachineAssignment assignment;
  // Highest simultaneous machine usage observed (jobs + reservations).
  ProcCount peak_busy = 0;
};

// Requires a fully scheduled, feasible schedule: throws
// std::invalid_argument otherwise, and std::logic_error when the machine
// assignment fails validate_assignment.
[[nodiscard]] SimulationResult simulate_cluster(const Instance& instance,
                                                const Schedule& schedule);

// Trace as CSV: "time,event,id".
void write_trace_csv(const std::vector<TraceEntry>& trace, std::ostream& os);

}  // namespace resched
