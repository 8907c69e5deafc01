// EASY (aggressive) backfilling (paper section 2.2).
//
// The queue is FCFS, but only the *head* job is protected: when the head
// cannot start, it receives a reservation at its earliest feasible start
// time, and any later job may backfill right now provided doing so does not
// push the head's reservation back. More aggressive than conservative
// backfilling (non-head jobs carry no protection and can be overtaken
// repeatedly), less aggressive than LSRC (which protects nobody). The
// bench/bench_online experiment shows the resulting ladder:
// FCFS >= conservative ~ EASY >= LSRC on trap instances.
//
// The batch loop passes at the profile's capacity rises and at releases
// only. Its starts are those of a pass at every completion, reservation
// end and release: in between, the blocked head and every rejected
// backfill candidate still meet a dip (the no-rise corollary,
// core/profile_allocator.hpp).
#pragma once

#include "algorithms/scheduler.hpp"

namespace resched {

class EasyBackfillScheduler final : public Scheduler {
 public:
  // Unrestricted domain: the outcome is always a schedule.
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override;
  // Decision-only incremental path (see ReplanRequest in scheduler.hpp):
  // the batch loop's pass run once, at now, against the service's
  // persistent absolute-time profile. It commits and returns only the jobs
  // starting now; the rest stay unscheduled for the next event.
  [[nodiscard]] Schedule replan(const ReplanRequest& request) const override;
  [[nodiscard]] std::string name() const override { return "easy"; }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.incremental_replan = true};
  }
};

}  // namespace resched
