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

// Shared core of schedule() and replan(): EASY's event loop over an explicit
// job vector (ids == positions), a pre-seeded wake-up set and a start clock.
// schedule() calls it with a fresh profile, reservation-end events and
// t0 = 0; the incremental path calls it with the service's persistent
// absolute-time profile, the running-job/window wake-ups and t0 = now. The
// two are the same computation up to time translation, which is what keeps
// the incremental plan bit-identical to the full re-solve oracle.
Schedule easy_run(FreeProfile& free, ProcCount m, const std::vector<Job>& jobs,
                  EventTimes events, Time t0, Arena* scratch) {
  Schedule schedule(jobs.size(), scratch);
  if (jobs.empty()) return schedule;

  ScratchVec<JobId> arrival(jobs.size(), JobId{0}, ArenaAlloc<JobId>(scratch));
  std::iota(arrival.begin(), arrival.end(), JobId{0});
  // (release, id) is a total order, so this in-place sort produces exactly
  // the permutation a stable sort by release would -- without stable_sort's
  // unconditional heap-allocated merge buffer (one alloc per decision).
  std::sort(arrival.begin(), arrival.end(), [&](JobId a, JobId b) {
    const Time ra = jobs[static_cast<std::size_t>(a)].release;
    const Time rb = jobs[static_cast<std::size_t>(b)].release;
    if (ra != rb) return ra < rb;
    return a < b;
  });

  Time t = std::max(t0, jobs[static_cast<std::size_t>(arrival[0])].release);
  for (const Job& job : jobs)
    if (job.release > t) events.push(job.release);

  // Waiting jobs, event-indexed by processor demand; rank = arrival-order
  // position, so passes examine candidates in exactly the FCFS order the
  // seed's deque walk used.
  BackfillQueue waiting(m, scratch);
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

    std::int64_t capacity = free.capacity_at(t);
    waiting.begin_pass();

    // Phase 1: start the head (and successive heads) while they fit now.
    // The head is the globally lowest-ranked waiting job regardless of its
    // bucket's capacity threshold, hence ignore_capacity.
    bool head_blocked = false;
    JobId head_id = -1;
    while (const auto candidate =
               waiting.next(capacity, /*ignore_capacity=*/true)) {
      const Job& head = jobs[static_cast<std::size_t>(candidate->id)];
      if (!free.fits_at(t, head.q, head.p)) {
        head_id = head.id;
        head_blocked = true;
        waiting.keep();
        break;
      }
      free.commit_fitted(t, head.q, head.p);
      schedule.set_start(head.id, t);
      events.push(checked_add(t, head.p));
      // resched-lint: time-arith-audited(admitted q keeps capacity in [0, m])
      capacity -= head.q;
      waiting.take();
      ++started;
    }

    // Phase 2: head blocked -> reserve its start, then backfill the rest in
    // FCFS order. Only buckets with q <= capacity wake up; the retired ones
    // would have failed fits_at outright.
    if (head_blocked) {
      const Job& head = jobs[static_cast<std::size_t>(head_id)];
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
            free.profile().first_below(head_start,
                                       std::min(head_end, job_end),
                                       checked_add(head.q, job.q)) !=
                kTimeInfinity) {
          waiting.keep();
          continue;
        }
        free.commit_fitted(t, job.q, job.p);
        schedule.set_start(job.id, t);
        events.push(job_end);
        // resched-lint: time-arith-audited(admitted q keeps capacity in [0, m])
        capacity -= job.q;
        waiting.take();
        ++started;
      }
    }
    waiting.end_pass();

    if (started == jobs.size()) break;

    const Time next = events.next_after(t);
    RESCHED_CHECK_MSG(next < kTimeInfinity,
                      "EASY stalled: waiting jobs but no future event");
    t = next;
  }
  return schedule;
}

}  // namespace

ScheduleOutcome EasyBackfillScheduler::schedule(
    const Instance& instance) const {
  if (instance.n() == 0) return Schedule(0);
  FreeProfile free = FreeProfile::for_instance(instance);
  EventTimes events;
  for (const Reservation& resa : instance.reservations())
    events.push(resa.end());
  return easy_run(free, instance.m(), instance.jobs(), std::move(events), 0,
                  nullptr);
}

Schedule EasyBackfillScheduler::replan(const ReplanRequest& request) const {
  EventTimes events(request.scratch);
  for (const Time wakeup : request.wakeups)
    if (wakeup > request.now) events.push(wakeup);
  return easy_run(request.free, request.m, request.queue, std::move(events),
                  request.now, request.scratch);
}

}  // namespace resched
