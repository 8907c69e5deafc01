#include "generators/transform.hpp"

#include "core/availability.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

namespace resched {

Instance truncate_availability(const Instance& instance, Time reference) {
  RESCHED_REQUIRE(reference >= 0);
  RESCHED_REQUIRE_MSG(has_non_increasing_unavailability(instance),
                      "truncation transform needs non-increasing U");
  const StepProfile unavailable = unavailability_profile(instance);
  const std::int64_t u_ref = unavailable.value_at(reference);
  const ProcCount m_prime = checked_sub(instance.m(), u_ref);
  RESCHED_REQUIRE_MSG(m_prime >= 1, "no machine available at the reference");

  // U'(t) = min(U(t), ...) - u_ref clipped to [0, reference); since U is
  // non-increasing, U(t) >= u_ref for t <= reference.
  StepProfile truncated(0);
  for (const auto& segment : unavailable.segments_in(0, reference)) {
    const std::int64_t excess = checked_sub(segment.value, u_ref);
    if (excess > 0) truncated.add(segment.start, segment.end, excess);
  }
  return Instance(m_prime, instance.jobs(),
                  unavailability_to_reservations(truncated));
}

HeadJobTransform reservations_to_head_jobs(const Instance& instance) {
  RESCHED_REQUIRE_MSG(has_non_increasing_unavailability(instance),
                      "head-job transform needs non-increasing U");
  const std::vector<Reservation> blocks =
      unavailability_to_reservations(unavailability_profile(instance));

  HeadJobTransform out;
  std::vector<Job> jobs;
  jobs.reserve(blocks.size() + instance.n());
  for (const Reservation& block : blocks) {
    const JobId id = static_cast<JobId>(jobs.size());
    jobs.push_back(Job{id, block.q, block.p, 0, tag("head", id)});
    out.head_ids.push_back(id);
  }
  const JobId offset = static_cast<JobId>(jobs.size());
  out.job_map.reserve(instance.n());
  for (const Job& original : instance.jobs()) {
    Job copy = original;
    copy.id = static_cast<JobId>(offset + original.id);
    out.job_map.push_back(copy.id);
    jobs.push_back(std::move(copy));
  }
  out.rigid = Instance(instance.m(), std::move(jobs));
  return out;
}

}  // namespace resched
