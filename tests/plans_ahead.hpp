// Test fake: forwards to a registry scheduler, but its replan() also
// "plans" the queue's last job one tick after now -- a decision-only
// scheduler breaking the ReplanRequest contract. The service loop commits
// decision-only plans permanently, so such a start would leak capacity;
// the suites use this fake to show the loop rejects it.
#pragma once

#include <memory>
#include <string>

#include "algorithms/scheduler.hpp"
#include "util/checked.hpp"

namespace resched {

class PlansAhead final : public Scheduler {
 public:
  explicit PlansAhead(const std::string& name)
      : inner_(make_scheduler(name)) {}
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override {
    return inner_->schedule(instance);
  }
  [[nodiscard]] Schedule replan(const ReplanRequest& request) const override {
    Schedule plan = inner_->replan(request);
    if (!request.queue.empty())
      plan.set_start(static_cast<JobId>(request.queue.size() - 1),
                     checked_add(request.now, Time{1}));
    return plan;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Capabilities capabilities() const override {
    return inner_->capabilities();
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

}  // namespace resched
