// Instance and schedule (de)serialization in resched's native formats:
//  * instances ("# resched instance v1"): loss-free round-trip of m, jobs
//    (q, p, release, name) and reservations (q, p, start, name);
//  * schedules as CSV.
// The Standard Workload Format (SWF) lives in core/swf.hpp.
#pragma once

#include <iosfwd>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace resched {

// Native format.
void save_instance(const Instance& instance, std::ostream& os);
[[nodiscard]] Instance load_instance(std::istream& is);

// Schedule as CSV: header "job,start,end" then one row per scheduled job.
void save_schedule_csv(const Instance& instance, const Schedule& schedule,
                       std::ostream& os);
[[nodiscard]] Schedule load_schedule_csv(const Instance& instance,
                                         std::istream& is);

}  // namespace resched
