// Schedule quality metrics beyond the makespan.
//
// The paper's criterion is C_max, but its practical discussion (FCFS
// starvation, aggressive backfilling trading fairness for utilisation) is
// about waiting: these metrics quantify that trade-off in the online
// experiments (E5/E10).
#pragma once

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace resched {

struct ScheduleMetrics {
  Time makespan = 0;
  double utilization = 0.0;       // work / available area in [0, C_max)
  double mean_wait = 0.0;         // avg (start - release)
  Time max_wait = 0;
  // Bounded slowdown: max(1, (wait + p) / max(p, tau)); the standard metric
  // for "small jobs should not starve behind big ones".
  double mean_bounded_slowdown = 0.0;
  double max_bounded_slowdown = 0.0;
};

// Requires a fully scheduled, feasible schedule: validates it first and
// throws std::invalid_argument with validate's error otherwise. tau is the
// bounded-slowdown threshold (default 10 ticks).
[[nodiscard]] ScheduleMetrics compute_metrics(const Instance& instance,
                                              const Schedule& schedule,
                                              Time tau = 10);

// The same metrics without the check. Precondition: schedule.validate(
// instance) has just returned ok -- for a caller that reports its own
// validation failure and must not pay for a second check. On any other
// schedule the numbers are meaningless. Requires tau >= 1.
[[nodiscard]] ScheduleMetrics metrics_of_feasible(const Instance& instance,
                                                  const Schedule& schedule,
                                                  Time tau = 10);

}  // namespace resched
