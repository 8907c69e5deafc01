// Mapping a capacity-feasible schedule onto concrete machines.
//
// The model deliberately ignores contiguity (paper section 2.1): processors
// are identical and fully connected, so a schedule is feasible iff the
// *count* constraint holds at every instant. This module constructively
// proves that claim for every schedule we produce: a left-to-right walk over
// the load sweep's events always finds enough free machine indices,
// yielding an explicit machine set per job and per reservation. The
// assignment is what the Gantt renderers and the cluster simulator consume.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/load_sweep.hpp"
#include "core/schedule.hpp"

namespace resched {

using MachineIndex = std::int32_t;

struct MachineAssignment {
  // job_machines[i] = sorted machine indices used by job i.
  std::vector<std::vector<MachineIndex>> job_machines;
  // reservation_machines[j] = sorted machine indices pinned by reservation j.
  std::vector<std::vector<MachineIndex>> reservation_machines;
};

// Requires schedule.validate(instance): throws std::invalid_argument
// otherwise. Deterministic: machines are assigned smallest-index-first in
// load-sweep order (core/load_sweep.hpp: at equal ticks, releases before
// acquisitions, reservations before jobs, lower id first).
[[nodiscard]] MachineAssignment assign_machines(const Instance& instance,
                                                const Schedule& schedule);
// The same on a sweep already checked, for a caller that walks it again;
// requires sweep.verdict.ok.
[[nodiscard]] MachineAssignment assign_machines(const Instance& instance,
                                                const CheckedSweep& sweep);

// Independent checker: replays the assignment on `events`, the sweep of a
// fully scheduled schedule (sweep_events). Each start must bring exactly q
// machines in [0, m), none already held (a machine listed twice is), and
// each end frees them; ends come first at equal ticks.
[[nodiscard]] ValidationResult validate_assignment(
    const Instance& instance, std::span<const LoadEvent> events,
    const MachineAssignment& assignment);

}  // namespace resched
