#include "core/machine_assignment.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "core/load_sweep.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

MachineAssignment assign_machines(const Instance& instance,
                                  const Schedule& schedule) {
  const ValidationResult valid = schedule.validate(instance);
  RESCHED_REQUIRE_MSG(valid.ok, "cannot assign machines: " + valid.error);

  std::set<MachineIndex> free;
  for (ProcCount r = 0; r < instance.m(); ++r)
    free.insert(static_cast<MachineIndex>(r));

  MachineAssignment out;
  out.job_machines.resize(instance.n());
  out.reservation_machines.resize(instance.n_reservations());

  for (const LoadEvent& ev : sweep_events(instance, schedule)) {
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
                                     const Schedule& schedule,
                                     const MachineAssignment& assignment) {
  if (assignment.job_machines.size() != instance.n() ||
      assignment.reservation_machines.size() != instance.n_reservations())
    return {false, "assignment shape does not match instance"};

  // Per-occupant sanity: q distinct machines inside [0, m).
  auto check_set = [&](const std::vector<MachineIndex>& machines,
                       ProcCount q, const std::string& what) -> std::string {
    if (static_cast<ProcCount>(machines.size()) != q)
      return what + " got " + std::to_string(machines.size()) +
             " machines, needs " + std::to_string(q);
    std::set<MachineIndex> distinct(machines.begin(), machines.end());
    if (distinct.size() != machines.size())
      return what + " has duplicate machines";
    if (!machines.empty() &&
        (*distinct.begin() < 0 ||
         *distinct.rbegin() >= static_cast<MachineIndex>(instance.m())))
      return what + " uses a machine index outside [0, m)";
    return "";
  };
  for (const Job& job : instance.jobs()) {
    const std::string err =
        check_set(assignment.job_machines[static_cast<std::size_t>(job.id)],
                  job.q, "job " + std::to_string(job.id));
    if (!err.empty()) return {false, err};
  }
  for (const Reservation& resa : instance.reservations()) {
    const std::string err = check_set(
        assignment.reservation_machines[static_cast<std::size_t>(resa.id)],
        resa.q, "reservation " + std::to_string(resa.id));
    if (!err.empty()) return {false, err};
  }

  // Overlap check per machine: collect intervals and sweep.
  struct Use {
    Time start;
    Time end;
    std::string who;
  };
  std::map<MachineIndex, std::vector<Use>> uses;
  for (const Job& job : instance.jobs()) {
    if (!schedule.is_scheduled(job.id)) continue;
    const Time start = schedule.start(job.id);
    for (const MachineIndex machine :
         assignment.job_machines[static_cast<std::size_t>(job.id)])
      uses[machine].push_back(
          {start, checked_add(start, job.p), "job " + std::to_string(job.id)});
  }
  for (const Reservation& resa : instance.reservations()) {
    for (const MachineIndex machine :
         assignment.reservation_machines[static_cast<std::size_t>(resa.id)])
      uses[machine].push_back(
          {resa.start, resa.end(), "reservation " + std::to_string(resa.id)});
  }
  for (auto& [machine, list] : uses) {
    std::sort(list.begin(), list.end(),
              [](const Use& a, const Use& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i].start < list[i - 1].end)
        return {false, "machine " + std::to_string(machine) +
                           " double-booked: " + list[i - 1].who + " and " +
                           list[i].who};
    }
  }
  return {true, ""};
}

}  // namespace resched
