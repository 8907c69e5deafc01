#include "algorithms/easy_bf.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "algorithms/backfill_queue.hpp"
#include "core/arena.hpp"
#include "core/profile_allocator.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {
namespace {

// The blocked head's reservation as of a profile version. schedule()
// carries it across passes: while the same head stays blocked, the only
// mutations are the protected backfill commits of its own passes, which
// keep it fitting at `start` and only remove capacity, so no earlier start
// can appear and earliest_fit would return `start` again; easy_pass
// re-stamps the version after them. Any other mutation (a phase-1 start, a
// new head) moves the version or the id and forces a recompute. (In
// schedule() a head changes only by starting, so the id alone would tell;
// the version keeps that argument local.) replan() starts from an empty
// cache.
struct HeadCache {
  JobId id = -1;
  Time start = 0;
  std::uint64_t version = 0;
};

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
                      BackfillQueue& waiting, Time t, HeadCache& cache,
                      OnStart&& on_start) {
  std::size_t started = 0;
  // The pass's one search: every read, test and take at t below works from
  // the index of t it locates.
  FreeProfile::Cursor at = free.at(t);
  waiting.begin_pass(at.capacity());

  // Phase 1: start the head (and successive heads) while they fit now.
  // The head is the globally lowest-ranked waiting job regardless of its
  // bucket's capacity threshold, hence next_head().
  const Job* blocked = nullptr;
  while (const auto candidate = waiting.next_head()) {
    const Job& head = jobs[static_cast<std::size_t>(candidate->id)];
    if (!at.try_take(head.q, head.p)) {
      blocked = &head;
      waiting.keep();
      break;
    }
    on_start(head);
    waiting.take();
    ++started;
  }

  // Phase 2: head blocked -> reserve its start, then backfill the rest in
  // FCFS order through one deadline per demand. The reservation is made
  // when the first bucket passes the capacity gate: a pass with no such
  // bucket backfills nothing and needs none.
  if (blocked != nullptr) {
    const Job& head = *blocked;
    std::optional<HeadReservation> reservation;
    const auto book_head = [&] {
      if (cache.id != head.id || cache.version != free.profile().version()) {
        cache = HeadCache{head.id, at.earliest_fit(head.q, head.p),
                          free.profile().version()};
      }
      RESCHED_ASSERT(cache.start == at.earliest_fit(head.q, head.p));
      return HeadReservation{head.q, cache.start,
                             checked_add(cache.start, head.p)};
    };
    // D(q), the deadline a demand-q candidate (q, p) must end by: the head
    // fits at head_start > t right now (earliest_fit established it, and
    // every accepted candidate re-establishes it). The candidate starts iff
    // (a) it fits, min over [t, t + p) >= q, i.e. t + p <= F(q), the first
    // dip below q; and (b) its commit, which removes q on [t, t + p) only,
    // leaves min >= head.q over the head's window. (b) can only fail on the
    // overlap [head_start, min(head_end, t + p)), where the committed
    // profile reads exactly q lower than it does now: "committed value <
    // head.q" is "current value < head.q + q", so (b) is t + p <= G(q), the
    // first dip below head.q + q in [head_start, head_end) -- a candidate
    // ending at or before head_start passes since G >= head_start. Read
    // over the candidate's own window, F and G stop at t + p: under (a)
    // the candidate ends by min(F, t + p), so G's window can stop there,
    // and is empty (G free) when that is at or before head_start. Hence:
    // start iff t + p <= D(q) = min(F, G). A rejected candidate has its
    // dip inside the window, which makes D exact for every duration, so
    // BackfillQueue::next skips the demand's later rejects unseen. D is a
    // pure read of the uncommitted profile: a rejected candidate mutates
    // nothing, so nothing has to be given back. F and G are both first
    // points of the window [t, t + p) after t, so the cursor reads D in one
    // forward walk from its index, stopping at whichever comes first.
    const auto limit = [&](ProcCount q, Time p) {
      if (!reservation) reservation = book_head();
      return deadline_limit(at.backfill_deadline(q, p, *reservation), t);
    };
    while (const auto candidate = waiting.next(at.capacity(), limit)) {
      const Job& job = jobs[static_cast<std::size_t>(candidate->id)];
      at.take(job.q, job.p);
      RESCHED_ASSERT(free.fits_at(reservation->start, head.q, head.p));
      on_start(job);
      waiting.take();
      ++started;
    }
    // Protected commits leave the reservation where it is.
    if (reservation) cache.version = free.profile().version();
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
  HeadCache head_cache;
  std::size_t next_arrival = 0;
  std::size_t started = 0;
  while (started < jobs.size()) {
    while (next_arrival < arrival.size() &&
           jobs[static_cast<std::size_t>(arrival[next_arrival])].release <=
               t) {
      const Job& job = jobs[static_cast<std::size_t>(arrival[next_arrival])];
      waiting.insert(job.id, static_cast<std::int64_t>(next_arrival), job.q,
                     job.p);
      ++next_arrival;
    }
    started += easy_pass(free, jobs, waiting, t, head_cache,
                         [&](const Job& job) {
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
    waiting.insert(job.id, static_cast<std::int64_t>(job.id), job.q, job.p);
  HeadCache head_cache;
  (void)easy_pass(request.free, jobs, waiting, request.now, head_cache,
                  [&](const Job& job) {
                    schedule.set_start(job.id, request.now);
                  });
  return schedule;
}

}  // namespace resched
