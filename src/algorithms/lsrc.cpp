#include "algorithms/lsrc.hpp"

#include <algorithm>
#include <vector>

#include "algorithms/backfill_queue.hpp"
#include "core/arena.hpp"
#include "core/profile_allocator.hpp"
#include "util/require.hpp"

namespace resched {
namespace {

// One LSRC pass at the cursor's instant t: in priority order, start every
// pending job that fits for its whole duration from t, committing it
// through the cursor and reporting it through `on_start(job)`. Every read
// and take works from the index the cursor holds. Only buckets with
// q <= capacity at t wake up, and a demand-q job (q, p) fits iff
// t + p <= F(q), the first dip below q (the cursor's fit_deadline). A
// rejected job's dip is the demand's exact deadline until the next take,
// so BackfillQueue::next skips the demand's later rejects unseen. run()
// walks one cursor over passes at successive wake-ups; replan() runs
// exactly one pass, at now.
template <class OnStart>
std::size_t lsrc_pass(FreeProfile::Cursor& at, const std::vector<Job>& jobs,
                      BackfillQueue& pending, OnStart&& on_start) {
  std::size_t started = 0;
  const Time t = at.instant();
  const auto limit = [&](ProcCount q, Time p) {
    return deadline_limit(at.fit_deadline(q, p), t);
  };
  pending.begin_pass(at.capacity());
  while (const auto candidate = pending.next(at.capacity(), limit)) {
    const Job& job = jobs[static_cast<std::size_t>(candidate->id)];
    at.take(job.q, job.p);
    on_start(job);
    ++started;
    pending.take();
  }
  pending.end_pass();
  return started;
}

}  // namespace

LsrcScheduler::LsrcScheduler(ListOrder order, std::uint64_t seed)
    : order_(order), seed_(seed), use_explicit_(false) {}

LsrcScheduler::LsrcScheduler(std::vector<JobId> explicit_list)
    : order_(ListOrder::kSubmission),
      seed_(0),
      explicit_list_(std::move(explicit_list)),
      use_explicit_(true) {}

std::string LsrcScheduler::name() const {
  if (use_explicit_) return "lsrc[explicit]";
  return "lsrc[" + to_string(order_) + "]";
}

ScheduleOutcome LsrcScheduler::schedule(const Instance& instance) const {
  const std::vector<JobId> list =
      use_explicit_ ? explicit_list_ : make_list(instance, order_, seed_);
  return run(instance, list);
}

Schedule LsrcScheduler::run(const Instance& instance,
                            std::span<const JobId> list) {
  RESCHED_REQUIRE_MSG(list.size() == instance.n(),
                      "priority list must mention every job exactly once");
  {
    std::vector<bool> seen(instance.n(), false);
    for (const JobId id : list) {
      RESCHED_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < instance.n());
      RESCHED_REQUIRE_MSG(!seen[static_cast<std::size_t>(id)],
                          "duplicate job in priority list");
      seen[static_cast<std::size_t>(id)] = true;
    }
  }

  Schedule schedule(instance.n());
  if (instance.n() == 0) return schedule;

  FreeProfile free = FreeProfile::for_instance(instance);
  // Indexed directly below: every id is in [0, n) by construction, so the
  // hot sort and feed skip Instance::job's out-of-line bounds check.
  const std::vector<Job>& jobs = instance.jobs();

  // Pending jobs, event-indexed by processor demand; rank = priority-list
  // position, so a pass examines them in exactly the list order the seed's
  // linear rescan used. Unreleased jobs stay out of the queue entirely (the
  // rescan re-skipped them at every event) and enter when t reaches their
  // release, via the release-sorted feed below.
  std::vector<std::int64_t> rank_of(instance.n());
  for (std::size_t r = 0; r < list.size(); ++r)
    rank_of[static_cast<std::size_t>(list[r])] = static_cast<std::int64_t>(r);
  const ReleaseFeed by_release(jobs, nullptr);
  const auto release_at = [&](std::size_t position) {
    return jobs[static_cast<std::size_t>(by_release[position])].release;
  };

  // One cursor, opened at the first release, walks from pass to pass: the
  // next pass is at the profile's next capacity rise or the next release,
  // whichever comes first. A pass anywhere else would start nothing (the
  // no-rise corollary, profile_allocator.hpp).
  FreeProfile::Cursor at = free.at(release_at(0));
  BackfillQueue pending(instance.m(), jobs);
  std::size_t next_release = 0;
  std::size_t remaining = instance.n();
  while (remaining > 0) {
    const Time t = at.instant();
    while (next_release < jobs.size() && release_at(next_release) <= t) {
      const Job& job =
          jobs[static_cast<std::size_t>(by_release[next_release++])];
      pending.insert(job.id, rank_of[static_cast<std::size_t>(job.id)],
                     job.q, job.p);
    }

    // Single pass in priority order: start everything that fits now.
    remaining -= lsrc_pass(at, jobs, pending, [&](const Job& job) {
      schedule.set_start(job.id, t);
    });
    if (remaining == 0) break;

    Time next = at.next_rise();
    if (next_release < jobs.size())
      next = std::min(next, release_at(next_release));
    RESCHED_CHECK_MSG(next < kTimeInfinity,
                      "LSRC stalled: pending jobs but no future event -- "
                      "instance must be infeasible");
    at.advance_to(next);
  }
  return schedule;
}

Capabilities LsrcScheduler::capabilities() const {
  return Capabilities{.replan = (!use_explicit_ && order_ != ListOrder::kRandom)
                                    ? ReplanMode::kDecisionOnly
                                    : ReplanMode::kNone};
}

Schedule LsrcScheduler::replan(const ReplanRequest& request) const {
  RESCHED_CHECK_MSG(capabilities().replan == ReplanMode::kDecisionOnly,
                    name() + " has no decision-only replan");
  const std::vector<Job>& jobs = request.queue;
  Schedule schedule(jobs.size(), request.scratch);
  // The list make_list builds for the scratch translation (every release
  // 0, ids in queue order).
  ScratchVec<JobId> list(jobs.size(), JobId{0},
                         ArenaAlloc<JobId>(request.scratch));
  fill_list(list, jobs, order_);
  BackfillQueue pending(request.m, jobs, request.scratch);
  for (std::size_t r = 0; r < list.size(); ++r) {
    const Job& job = jobs[static_cast<std::size_t>(list[r])];
    pending.insert(job.id, static_cast<std::int64_t>(r), job.q, job.p);
  }
  FreeProfile::Cursor at = request.free.at(request.now);
  (void)lsrc_pass(at, jobs, pending, [&](const Job& job) {
    schedule.set_start(job.id, request.now);
  });
  return schedule;
}

}  // namespace resched
