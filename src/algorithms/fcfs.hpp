// Strict First Come First Served (paper section 2.2).
//
// Jobs are considered in arrival order (release time, then submission
// index); each job starts at the earliest instant where it fits, *but never
// before the job ahead of it in the queue has started* (non-overtaking).
// This is the "perfectly understood by users" policy the paper describes,
// and the one with the pathological behaviour: a wide job at the head of the
// queue blocks everything behind it, which is why FCFS has no constant
// guarantee -- on fcfs_bad_instance(m) its makespan is ~m times optimal
// (experiment E5).
#pragma once

#include "algorithms/scheduler.hpp"

namespace resched {

class FcfsScheduler final : public Scheduler {
 public:
  // Unrestricted domain: the outcome is always a schedule.
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override;
  // Incremental path: the same placement loop run against a persistent
  // absolute-time profile (see ReplanRequest in scheduler.hpp).
  [[nodiscard]] Schedule replan(const ReplanRequest& request) const override;
  [[nodiscard]] std::string name() const override { return "fcfs"; }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.replan = ReplanMode::kAppendOnly};
  }
};

}  // namespace resched
