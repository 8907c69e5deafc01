// Cluster execution simulator.
//
// Replays a schedule on a concrete cluster: it walks the load sweep
// (core/load_sweep.hpp), acquiring each job's and reservation's assigned
// machines at its start and returning them at its end. The replay shares
// its event order with Schedule::validate and assign_machines; what it
// checks on its own is per-machine occupancy, against the live machine
// state: no machine is acquired while held or released while idle, and
// every machine is idle at the end. Produces a per-job execution trace for
// the examples and the online experiments.
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
// std::invalid_argument otherwise, and throws on any internal inconsistency
// (double acquisition, release of an idle machine).
[[nodiscard]] SimulationResult simulate_cluster(const Instance& instance,
                                                const Schedule& schedule);

// Trace as CSV: "time,event,id".
void write_trace_csv(const std::vector<TraceEntry>& trace, std::ostream& os);

}  // namespace resched
