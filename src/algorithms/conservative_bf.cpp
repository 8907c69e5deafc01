#include "algorithms/conservative_bf.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "algorithms/list_order.hpp"
#include "core/arena.hpp"
#include "core/profile_allocator.hpp"

namespace resched {
namespace {

// floor(log2 x) and ceil(log2 x) of a job's width or duration, x >= 1.
struct Log2Class {
  unsigned floor;
  unsigned ceil;
};
Log2Class log2_class(std::int64_t x) {
  const std::uint64_t u = static_cast<std::uint64_t>(x);
  const unsigned below = static_cast<unsigned>(std::bit_width(u)) - 1u;
  return {below, below + static_cast<unsigned>((u & (u - 1u)) != 0)};
}

// The dominance floors of one conservative_run call (lemma and cost in
// conservative_bf.hpp). Cell (a, b) holds the latest start the call gave a
// job with ceil log2 q == a and ceil log2 p == b, or t0. Every such job has
// q <= 2^a and p <= 2^b, so it dominates every later job whose floor log2
// classes are at least (a, b).
class DominanceFloors {
 public:
  explicit DominanceFloors(Time t0) { cells_.fill(t0); }

  // A lower bound on the earliest fit of a job of classes (q, p) from t0:
  // the single cell (q.floor, p.floor), clamped to the last row and column.
  [[nodiscard]] Time floor_of(Log2Class q, Log2Class p) const {
    return cells_[index(std::min(q.floor, kRows - 1u),
                        std::min(p.floor, kCols - 1u))];
  }

  // Records a placed job. Classes past the table are not stored.
  void record(Log2Class q, Log2Class p, Time start) {
    if (q.ceil >= kRows || p.ceil >= kCols) return;
    Time& cell = cells_[index(q.ceil, p.ceil)];
    cell = std::max(cell, start);
  }

 private:
  static constexpr unsigned kRows = 8;  // widths up to 2^7
  static constexpr unsigned kCols = 8;  // durations up to 2^7

  static std::size_t index(unsigned a, unsigned b) {
    return std::size_t{a} * kCols + b;
  }

  std::array<Time, std::size_t{kRows} * kCols> cells_;
};

// Shared core of schedule() and replan(): place each job, in arrival order,
// at its earliest fit no sooner than max(t0, release). schedule() runs it
// with a fresh profile and t0 = 0; the incremental path runs it with the
// service's persistent absolute-time profile and t0 = now. Same computation
// up to time translation (the churn oracle fuzz pins the bit-identity).
// Each search starts at the job's dominance floor; a one-job call (nearly
// every service decision) has none to read and builds no table.
Schedule conservative_run(FreeProfile& free, const std::vector<Job>& jobs,
                          Time t0, Arena* scratch) {
  Schedule schedule(jobs.size(), scratch);
  if (jobs.size() == 1) {
    const Job& job = jobs.front();
    schedule.set_start(0, free.place(std::max(t0, job.release), job.q, job.p));
    return schedule;
  }
  DominanceFloors floors(t0);
  for_each_by_release(jobs, scratch, [&](JobId id) {
    const Job& job = jobs[static_cast<std::size_t>(id)];
    const Log2Class q = log2_class(job.q);
    const Log2Class p = log2_class(job.p);
    const Time start =
        free.place(std::max(job.release, floors.floor_of(q, p)), job.q, job.p);
    floors.record(q, p, start);
    schedule.set_start(id, start);
  });
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
