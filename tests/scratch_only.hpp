// Test fake: forwards to a registry scheduler but hides its
// incremental_replan capability, so the service loop plans every decision
// on the scratch path. Lets the suites compare the two planning paths on
// the same algorithm.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "algorithms/scheduler.hpp"

namespace resched {

class ScratchOnly final : public Scheduler {
 public:
  explicit ScratchOnly(const std::string& name)
      : inner_(make_scheduler(name)) {}
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override {
    return inner_->schedule(instance);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] Capabilities capabilities() const override {
    Capabilities caps = inner_->capabilities();
    caps.incremental_replan = false;
    caps.append_only_replan = false;
    return caps;
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

}  // namespace resched
