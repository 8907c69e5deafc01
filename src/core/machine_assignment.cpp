#include "core/machine_assignment.hpp"

#include <set>
#include <string>

#include "util/require.hpp"

namespace resched {

namespace {

// "job 3" or "reservation 1".
std::string occupant_name(std::uint32_t occupant) {
  const LoadEvent event{0, occupant};
  return (event.is_reservation() ? "reservation " : "job ") +
         std::to_string(event.id());
}

}  // namespace

MachineAssignment assign_machines(const Instance& instance,
                                  const Schedule& schedule) {
  return assign_machines(instance, schedule.checked_sweep(instance));
}

MachineAssignment assign_machines(const Instance& instance,
                                  const CheckedSweep& sweep) {
  RESCHED_REQUIRE_MSG(sweep.verdict.ok,
                      "cannot assign machines: " + sweep.verdict.error);

  std::set<MachineIndex> free;
  for (ProcCount r = 0; r < instance.m(); ++r)
    free.insert(static_cast<MachineIndex>(r));

  MachineAssignment out;
  out.job_machines.resize(instance.n());
  out.reservation_machines.resize(instance.n_reservations());

  for (const LoadEvent& ev : sweep.events) {
    auto& target =
        ev.is_reservation()
            ? out.reservation_machines[static_cast<std::size_t>(ev.id())]
            : out.job_machines[static_cast<std::size_t>(ev.id())];
    if (!ev.is_start()) {
      for (const MachineIndex machine : target) free.insert(machine);
      continue;
    }
    const ProcCount need = demand(instance, ev);
    RESCHED_CHECK_MSG(static_cast<ProcCount>(free.size()) >= need,
                      "machine sweep ran out of processors despite a "
                      "capacity-feasible schedule");
    auto it = free.begin();
    for (ProcCount taken = 0; taken < need; ++taken) {
      target.push_back(*it);
      it = free.erase(it);
    }
  }
  return out;
}

ValidationResult validate_assignment(const Instance& instance,
                                     std::span<const LoadEvent> events,
                                     const MachineAssignment& assignment) {
  if (assignment.job_machines.size() != instance.n() ||
      assignment.reservation_machines.size() != instance.n_reservations())
    return {false, "assignment shape does not match instance"};

  // holder[machine] is the occupant holding it. Occupant ids stay below
  // kReservationBit, so no occupant equals kIdle.
  constexpr std::uint32_t kIdle = ~0u;
  std::vector<std::uint32_t> holder(static_cast<std::size_t>(instance.m()),
                                    kIdle);
  for (const LoadEvent& ev : events) {
    const auto index = static_cast<std::size_t>(ev.id());
    const std::vector<MachineIndex>& machines =
        ev.is_reservation() ? assignment.reservation_machines[index]
                            : assignment.job_machines[index];
    if (!ev.is_start()) {
      for (const MachineIndex machine : machines)
        holder[static_cast<std::size_t>(machine)] = kIdle;
      continue;
    }
    const ProcCount q = demand(instance, ev);
    if (static_cast<ProcCount>(machines.size()) != q)
      return {false, occupant_name(ev.occupant) + " got " +
                         std::to_string(machines.size()) +
                         " machines, needs " + std::to_string(q)};
    for (const MachineIndex machine : machines) {
      if (machine < 0 || machine >= instance.m())
        return {false, occupant_name(ev.occupant) +
                           " uses a machine index outside [0, m)"};
      std::uint32_t& held = holder[static_cast<std::size_t>(machine)];
      if (held != kIdle)
        return {false, "machine " + std::to_string(machine) +
                           " double-booked: " + occupant_name(held) + " and " +
                           occupant_name(ev.occupant)};
      held = ev.occupant;
    }
  }
  return {true, ""};
}

}  // namespace resched
