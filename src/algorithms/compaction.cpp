#include "algorithms/compaction.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/profile_allocator.hpp"
#include "util/require.hpp"

namespace resched {

CompactionResult compact_schedule(const Instance& instance,
                                  const Schedule& schedule) {
  const ValidationResult valid = schedule.validate(instance);
  RESCHED_REQUIRE_MSG(valid.ok, "compaction needs a feasible schedule: " +
                                    valid.error);
  CompactionResult result{Schedule(instance.n()), 0,
                          schedule.makespan(instance), 0};

  // Process jobs in non-decreasing original start order (ties by id) and
  // re-place each at its earliest fit against the jobs already re-placed.
  std::vector<JobId> order(instance.n());
  std::iota(order.begin(), order.end(), JobId{0});
  std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return schedule.start(a) < schedule.start(b);
  });

  FreeProfile free = FreeProfile::for_instance(instance);
  for (const JobId id : order) {
    const Job& job = instance.job(id);
    const Time start = free.place(job.release, job.q, job.p);
    // Left shifts only: the original position is always available because
    // every job placed so far starts no later than it originally did, so
    // capacity at and after the original start can only have increased.
    RESCHED_CHECK_MSG(start <= schedule.start(id),
                      "compaction tried to move a job right");
    if (start < schedule.start(id)) ++result.moved_jobs;
    result.schedule.set_start(id, start);
  }
  result.makespan_after = result.schedule.makespan(instance);
  RESCHED_CHECK(result.makespan_after <= result.makespan_before);
  return result;
}

}  // namespace resched
