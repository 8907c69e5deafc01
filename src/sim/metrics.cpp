
#include "sim/metrics.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"
#include <algorithm>

namespace resched {

ScheduleMetrics compute_metrics(const Instance& instance,
                                const Schedule& schedule, Time tau) {
  const ValidationResult valid = schedule.validate(instance);
  RESCHED_REQUIRE_MSG(valid.ok, "metrics need a feasible schedule: " +
                                    valid.error);
  return metrics_of_feasible(instance, schedule, tau);
}

ScheduleMetrics metrics_of_feasible(const Instance& instance,
                                    const Schedule& schedule, Time tau) {
  RESCHED_REQUIRE(tau >= 1);
  ScheduleMetrics metrics;
  metrics.makespan = schedule.makespan(instance);
  metrics.utilization = schedule.utilization(instance);
  if (instance.n() == 0) return metrics;

  double wait_sum = 0.0;
  double slowdown_sum = 0.0;
  for (const Job& job : instance.jobs()) {
    const Time wait = checked_sub(schedule.start(job.id), job.release);
    wait_sum += static_cast<double>(wait);
    metrics.max_wait = std::max(metrics.max_wait, wait);
    const double denom = static_cast<double>(std::max(job.p, tau));
    const double slowdown =
        std::max(1.0, static_cast<double>(checked_add(wait, job.p)) / denom);
    slowdown_sum += slowdown;
    metrics.max_bounded_slowdown =
        std::max(metrics.max_bounded_slowdown, slowdown);
  }
  const double n = static_cast<double>(instance.n());
  metrics.mean_wait = wait_sum / n;
  metrics.mean_bounded_slowdown = slowdown_sum / n;
  return metrics;
}

}  // namespace resched
