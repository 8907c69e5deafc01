#include "algorithms/easy_bf.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "algorithms/backfill_queue.hpp"
#include "core/arena.hpp"
#include "core/profile_allocator.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {
namespace {

// One EASY pass at instant t over the released waiting jobs: start heads
// while they fit, then reserve the blocked head's earliest start and
// backfill at t whatever neither fails to fit nor pushes that reservation
// back. Every start is committed on `free` and reported through
// `on_start(job)`. schedule() loops over passes at successive events;
// replan() runs exactly one, at now -- the first pass alone decides every
// job that starts at its instant, so the two agree on the starts at t0 by
// construction.
template <class OnStart>
std::size_t easy_pass(FreeProfile& free, const std::vector<Job>& jobs,
                      BackfillQueue& waiting, Time t, OnStart&& on_start) {
  std::size_t started = 0;
  std::int64_t capacity = free.capacity_at(t);
  waiting.begin_pass();

  // Phase 1: start the head (and successive heads) while they fit now.
  // The head is the globally lowest-ranked waiting job regardless of its
  // bucket's capacity threshold, hence ignore_capacity.
  const Job* blocked = nullptr;
  while (const auto candidate =
             waiting.next(capacity, /*ignore_capacity=*/true)) {
    const Job& head = jobs[static_cast<std::size_t>(candidate->id)];
    if (!free.fits_at(t, head.q, head.p)) {
      blocked = &head;
      waiting.keep();
      break;
    }
    free.commit_fitted(t, head.q, head.p);
    on_start(head);
    // resched-lint: time-arith-audited(admitted q keeps capacity in [0, m])
    capacity -= head.q;
    waiting.take();
    ++started;
  }

  // Phase 2: head blocked -> reserve its start, then backfill the rest in
  // FCFS order. Only buckets with q <= capacity wake up; the retired ones
  // would have failed fits_at outright.
  if (blocked != nullptr) {
    const Job& head = *blocked;
    const Time head_start = free.earliest_fit(t, head.q, head.p);
    const Time head_end = checked_add(head_start, head.p);
    // Probe-window invariant: the head fits at head_start right now
    // (earliest_fit established it, and every accepted candidate below
    // re-establishes it). A candidate's commit only removes job.q on its
    // own window [t, job_end), so "head not pushed back" only needs the
    // windowed min over the *overlap* of that window with the head's
    // reservation window -- and a candidate ending at or before
    // head_start cannot push the head at all. head_start > t (the head
    // does not fit at t), so for a candidate with job_end > head_start
    // the overlap [head_start, min(head_end, job_end)) lies inside
    // [t, job_end), where the committed profile would read exactly
    // job.q lower than it does now. "Committed value < head.q" is
    // therefore "current value < head.q + job.q": one read on the
    // uncommitted profile decides the candidate, and a rejected one
    // costs no frame, undo record or rollback.
    while (const auto candidate = waiting.next(capacity)) {
      const Job& job = jobs[static_cast<std::size_t>(candidate->id)];
      if (!free.fits_at(t, job.q, job.p)) {
        waiting.keep();
        continue;
      }
      const Time job_end = checked_add(t, job.p);
      if (job_end > head_start &&
          free.profile().first_below(head_start, std::min(head_end, job_end),
                                     checked_add(head.q, job.q)) !=
              kTimeInfinity) {
        waiting.keep();
        continue;
      }
      free.commit_fitted(t, job.q, job.p);
      on_start(job);
      // resched-lint: time-arith-audited(admitted q keeps capacity in [0, m])
      capacity -= job.q;
      waiting.take();
      ++started;
    }
  }
  waiting.end_pass();
  return started;
}

}  // namespace

ScheduleOutcome EasyBackfillScheduler::schedule(
    const Instance& instance) const {
  const std::vector<Job>& jobs = instance.jobs();
  Schedule schedule(jobs.size());
  if (jobs.empty()) return schedule;
  FreeProfile free = FreeProfile::for_instance(instance);
  EventTimes events;
  for (const Reservation& resa : instance.reservations())
    events.push(resa.end());

  ScratchVec<JobId> arrival(jobs.size(), JobId{0},
                            ArenaAlloc<JobId>(nullptr));
  std::iota(arrival.begin(), arrival.end(), JobId{0});
  // (release, id) is a total order, so this in-place sort produces exactly
  // the permutation a stable sort by release would -- without stable_sort's
  // unconditional heap-allocated merge buffer.
  std::sort(arrival.begin(), arrival.end(), [&](JobId a, JobId b) {
    const Time ra = jobs[static_cast<std::size_t>(a)].release;
    const Time rb = jobs[static_cast<std::size_t>(b)].release;
    if (ra != rb) return ra < rb;
    return a < b;
  });

  Time t = jobs[static_cast<std::size_t>(arrival[0])].release;
  for (const Job& job : jobs)
    if (job.release > t) events.push(job.release);

  // Waiting jobs, event-indexed by processor demand; rank = arrival-order
  // position, so passes examine candidates in exactly the FCFS order the
  // seed's deque walk used.
  BackfillQueue waiting(instance.m());
  std::size_t next_arrival = 0;
  std::size_t started = 0;
  while (started < jobs.size()) {
    while (next_arrival < arrival.size() &&
           jobs[static_cast<std::size_t>(arrival[next_arrival])].release <=
               t) {
      const Job& job = jobs[static_cast<std::size_t>(arrival[next_arrival])];
      waiting.insert(job.id, static_cast<std::int64_t>(next_arrival), job.q);
      ++next_arrival;
    }
    started += easy_pass(free, jobs, waiting, t, [&](const Job& job) {
      schedule.set_start(job.id, t);
      events.push(checked_add(t, job.p));
    });
    if (started == jobs.size()) break;

    const Time next = events.next_after(t);
    RESCHED_CHECK_MSG(next < kTimeInfinity,
                      "EASY stalled: waiting jobs but no future event");
    t = next;
  }
  return schedule;
}

Schedule EasyBackfillScheduler::replan(const ReplanRequest& request) const {
  const std::vector<Job>& jobs = request.queue;
  Schedule schedule(jobs.size(), request.scratch);
  // Every queued job is released by now and the queue is in FCFS order, so
  // rank = id is exactly the arrival order the batch loop sorts into.
  BackfillQueue waiting(request.m, request.scratch);
  for (const Job& job : jobs)
    waiting.insert(job.id, static_cast<std::int64_t>(job.id), job.q);
  (void)easy_pass(request.free, jobs, waiting, request.now,
                  [&](const Job& job) {
                    schedule.set_start(job.id, request.now);
                  });
  return schedule;
}

}  // namespace resched
