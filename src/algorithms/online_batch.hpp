// Batch-doubling online wrapper (paper section 2.1, citing Shmoys, Wein &
// Williamson).
//
// "Any off-line algorithm may be used in an on-line fashion, with a doubling
// factor for the performance ratio": jobs are grouped into successive
// batches; jobs arriving while a batch executes are only considered once the
// whole batch has finished. The wrapper turns any of our offline schedulers
// into an online one for instances with release times; with a
// rho-approximate base algorithm the resulting makespan is at most 2 rho
// times the optimal offline makespan (checked as a property test against the
// certified lower bound).
//
// Reservations are absolute calendar objects, so each batch sub-instance
// keeps the full reservation set and constrains its jobs to start no earlier
// than the batch epoch.
#pragma once

#include <memory>

#include "algorithms/scheduler.hpp"

namespace resched {

struct BatchInfo {
  Time epoch;            // instant the batch was formed
  Time completion;       // when its last job finishes
  std::size_t job_count;
};

class OnlineBatchScheduler final : public Scheduler {
 public:
  // Takes ownership of the base offline scheduler. The base algorithm must
  // support release times >= epoch (all of lsrc/fcfs/conservative/easy do;
  // shelf does not -- constructing the wrapper over it is a precondition
  // violation, surfaced through capabilities()).
  explicit OnlineBatchScheduler(std::unique_ptr<Scheduler> base);

  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override;
  [[nodiscard]] std::string name() const override;
  // Inherited from the base scheduler: a batch sub-instance keeps the full
  // reservation set and carries release times (= the batch epoch), so the
  // wrapper accepts exactly the instances its base does and requires the
  // base to accept release times. The replan mode is not inherited:
  // the wrapper has no replan(), and batching is not the base's decision.
  [[nodiscard]] Capabilities capabilities() const override {
    Capabilities caps = base_->capabilities();
    caps.replan = ReplanMode::kNone;
    return caps;
  }

  // Like schedule(), additionally reporting the batch structure (left
  // empty on a DomainError outcome).
  [[nodiscard]] ScheduleOutcome schedule_with_batches(
      const Instance& instance, std::vector<BatchInfo>& batches) const;

 private:
  std::unique_ptr<Scheduler> base_;
};

}  // namespace resched
