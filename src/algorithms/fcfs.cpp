#include "algorithms/fcfs.hpp"

#include <algorithm>
#include <vector>

#include "algorithms/list_order.hpp"
#include "core/arena.hpp"
#include "core/profile_allocator.hpp"
#include "util/require.hpp"

namespace resched {
namespace {

// Shared core of schedule() and replan(): non-overtaking placement in
// arrival order, starting no sooner than max(t0, release, previous start).
// schedule() runs it with a fresh profile and t0 = 0; the incremental path
// runs it with the service's persistent absolute-time profile and t0 = now.
// `floor` seeds the non-overtaking chain for append-mode suffix planning:
// when `jobs` is the tail of a longer queue whose prefix is already planned
// on `free`, the chain must continue from the prefix's last start, not
// restart at t0 (ReplanMode::kAppendOnly in scheduler.hpp).
Schedule fcfs_run(FreeProfile& free, const std::vector<Job>& jobs, Time t0,
                  Time floor, Arena* scratch) {
  Schedule schedule(jobs.size(), scratch);
  Time previous_start = std::max(t0, floor);
  for_each_by_release(jobs, scratch, [&](JobId id) {
    const Job& job = jobs[static_cast<std::size_t>(id)];
    const Time ready = std::max(previous_start, job.release);
    const Time start = free.place(ready, job.q, job.p);
    schedule.set_start(id, start);
    previous_start = start;  // no later job may start before this one
  });
  return schedule;
}

}  // namespace

ScheduleOutcome FcfsScheduler::schedule(const Instance& instance) const {
  FreeProfile free = FreeProfile::for_instance(instance);
  return fcfs_run(free, instance.jobs(), 0, 0, nullptr);
}

Schedule FcfsScheduler::replan(const ReplanRequest& request) const {
  return fcfs_run(request.free, request.queue, request.now,
                  request.not_before, request.scratch);
}

}  // namespace resched
