// A solution to an instance: a start time for every job (paper section 3.1).
//
// The schedule stores sigma_i per job; feasibility means
//   forall t:  sum_{i running at t} q_i  <=  m - U(t)
// and sigma_i >= release_i. Validation recomputes everything from scratch
// on the load sweep (core/load_sweep.hpp), which shares no code with
// StepProfile, the structure the schedulers plan on (defence in depth).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/instance.hpp"

namespace resched {

struct ValidationResult {
  bool ok = true;
  std::string error;  // empty iff ok

  explicit operator bool() const noexcept { return ok; }
};

struct CheckedSweep;  // core/load_sweep.hpp

class Schedule {
 public:
  // A schedule over no jobs (default-constructible for result structs).
  Schedule() = default;
  // An empty schedule for n jobs (all unscheduled). With a scratch arena the
  // start array is bump-allocated from it (the replan hot path): such a
  // schedule must be consumed before the arena resets -- copying it (or
  // copy-assigning from it) lands on the plain heap, moving it keeps the
  // arena backing.
  explicit Schedule(std::size_t n_jobs, Arena* scratch = nullptr);

  void set_start(JobId job, Time start);
  [[nodiscard]] bool is_scheduled(JobId job) const;
  // Requires is_scheduled(job).
  [[nodiscard]] Time start(JobId job) const;
  [[nodiscard]] Time completion(const Instance& instance, JobId job) const;

  [[nodiscard]] std::size_t size() const noexcept { return starts_.size(); }
  [[nodiscard]] bool all_scheduled() const noexcept;

  // C_max = max_i (sigma_i + p_i); 0 when nothing is scheduled. Reservations
  // do not count toward the makespan (they are constraints, not work).
  [[nodiscard]] Time makespan(const Instance& instance) const;

  // Full feasibility check; explains the first violation found. Checks run
  // in order: size mismatch, then per job (by id) unscheduled and start
  // before release, then capacity, reported as
  //   "capacity exceeded: L > m = M during [a, b)"
  // for the earliest maximal interval of constant overloaded load L. Throws
  // std::overflow_error when a window's end overflows int64.
  [[nodiscard]] ValidationResult validate(const Instance& instance) const;
  // validate's checks and verdict, keeping on success the load sweep they
  // walked for the checkers that walk the schedule next.
  [[nodiscard]] CheckedSweep checked_sweep(const Instance& instance) const;

  // Area available to the scheduler in [0, makespan) minus the work placed
  // there: integral of (m - U - r) over [0, C_max). Zero idle area means the
  // schedule keeps every available processor busy until C_max.
  [[nodiscard]] std::int64_t idle_area(const Instance& instance) const;

  // total_work / (available area in [0, C_max)); in [0, 1] for a feasible
  // schedule. 1.0 when the instance has no jobs.
  [[nodiscard]] double utilization(const Instance& instance) const;

  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  std::vector<std::optional<Time>, ArenaAlloc<std::optional<Time>>> starts_;
};

}  // namespace resched
