#include "algorithms/conservative_bf.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

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
  ScratchVec<JobId> queue(jobs.size(), JobId{0}, ArenaAlloc<JobId>(scratch));
  std::iota(queue.begin(), queue.end(), JobId{0});
  // (release, id) is a total order, so this in-place sort produces exactly
  // the permutation a stable sort by release would -- without stable_sort's
  // unconditional heap-allocated merge buffer (one alloc per decision).
  std::sort(queue.begin(), queue.end(), [&](JobId a, JobId b) {
    const Time ra = jobs[static_cast<std::size_t>(a)].release;
    const Time rb = jobs[static_cast<std::size_t>(b)].release;
    if (ra != rb) return ra < rb;
    return a < b;
  });

  for (const JobId id : queue) {
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
