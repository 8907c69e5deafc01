#include "core/schedule.hpp"

#include <algorithm>
#include <vector>

#include "core/availability.hpp"
#include "core/load_sweep.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

Schedule::Schedule(std::size_t n_jobs, Arena* scratch)
    : starts_(n_jobs, ArenaAlloc<std::optional<Time>>(scratch)) {}

void Schedule::set_start(JobId job, Time start) {
  RESCHED_REQUIRE(job >= 0 && static_cast<std::size_t>(job) < starts_.size());
  RESCHED_REQUIRE_MSG(start >= 0, "job start must be >= 0");
  starts_[static_cast<std::size_t>(job)] = start;
}

bool Schedule::is_scheduled(JobId job) const {
  RESCHED_REQUIRE(job >= 0 && static_cast<std::size_t>(job) < starts_.size());
  return starts_[static_cast<std::size_t>(job)].has_value();
}

Time Schedule::start(JobId job) const {
  RESCHED_REQUIRE(is_scheduled(job));
  return *starts_[static_cast<std::size_t>(job)];
}

Time Schedule::completion(const Instance& instance, JobId job) const {
  return checked_add(start(job), instance.job(job).p);
}

bool Schedule::all_scheduled() const noexcept {
  return std::all_of(starts_.begin(), starts_.end(),
                     [](const auto& s) { return s.has_value(); });
}

Time Schedule::makespan(const Instance& instance) const {
  RESCHED_REQUIRE_MSG(starts_.size() == instance.n(),
                      "schedule size does not match instance");
  Time result = 0;
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    if (!starts_[i].has_value()) continue;
    result = std::max(
        result, checked_add(*starts_[i], instance.jobs()[i].p));
  }
  return result;
}

ValidationResult Schedule::validate(const Instance& instance) const {
  return checked_sweep(instance).verdict;
}

CheckedSweep Schedule::checked_sweep(const Instance& instance) const {
  if (starts_.size() != instance.n())
    return {{false, "schedule covers " + std::to_string(starts_.size()) +
                        " jobs but instance has " +
                        std::to_string(instance.n())}};
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    if (!starts_[i].has_value())
      return {{false, "job " + std::to_string(i) + " is not scheduled"}};
    const Job& job = instance.jobs()[i];
    if (*starts_[i] < job.release)
      return {{false, "job " + std::to_string(i) + " starts at " +
                          std::to_string(*starts_[i]) + " before its release " +
                          std::to_string(job.release)}};
  }
  // Capacity: usage + unavailability must never exceed m. Each load step
  // holds until the next one, so an overloaded run ends at the next step.
  CheckedSweep sweep;  // verdict ok
  sweep.events = sweep_events(instance, *this);
  sweep.steps = load_steps(instance, sweep.events);
  const std::vector<LoadStep>& steps = sweep.steps;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (steps[k].load <= instance.m()) continue;
    // The last step closes every window, so an overload is never last.
    return {{false, "capacity exceeded: " + std::to_string(steps[k].load) +
                        " > m = " + std::to_string(instance.m()) +
                        " during [" + std::to_string(steps[k].tick) + ", " +
                        std::to_string(steps[k + 1].tick) + ")"}};
  }
  return sweep;
}

std::int64_t Schedule::idle_area(const Instance& instance) const {
  const Time horizon = makespan(instance);
  if (horizon == 0) return 0;
  const std::int64_t available = available_area(instance, horizon);
  std::int64_t placed = 0;
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    if (!starts_[i].has_value()) continue;
    placed = checked_add(placed, instance.jobs()[i].area());
  }
  return checked_sub(available, placed);
}

double Schedule::utilization(const Instance& instance) const {
  const Time horizon = makespan(instance);
  if (horizon == 0) return 1.0;
  const std::int64_t available = available_area(instance, horizon);
  if (available == 0) return 1.0;
  return static_cast<double>(instance.total_work()) /
         static_cast<double>(available);
}

}  // namespace resched
