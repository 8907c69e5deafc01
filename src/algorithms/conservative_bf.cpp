#include "algorithms/conservative_bf.hpp"

#include <algorithm>
#include <vector>

#include "algorithms/list_order.hpp"
#include "core/arena.hpp"
#include "core/profile_allocator.hpp"

namespace resched {
namespace {

// Shared core of schedule() and replan(): place each job, in arrival order,
// at its earliest fit no sooner than max(t0, release). schedule() runs it
// with a fresh profile and t0 = 0; the incremental path runs it with the
// service's persistent absolute-time profile and t0 = now. Same computation
// up to time translation (the churn oracle fuzz pins the bit-identity).
Schedule conservative_run(FreeProfile& free, const std::vector<Job>& jobs,
                          Time t0, Arena* scratch) {
  Schedule schedule(jobs.size(), scratch);
  for (const JobId id : release_order(jobs, scratch)) {
    const Job& job = jobs[static_cast<std::size_t>(id)];
    const Time start = free.place(std::max(t0, job.release), job.q, job.p);
    schedule.set_start(id, start);
  }
  return schedule;
}

}  // namespace

ScheduleOutcome ConservativeBackfillScheduler::schedule(
    const Instance& instance) const {
  FreeProfile free = FreeProfile::for_instance(instance);
  return conservative_run(free, instance.jobs(), 0, nullptr);
}

Schedule ConservativeBackfillScheduler::replan(
    const ReplanRequest& request) const {
  return conservative_run(request.free, request.queue, request.now,
                          request.scratch);
}

}  // namespace resched
