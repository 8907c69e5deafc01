// LSRC: List Scheduling with Resource Constraints (Garey & Graham 1975),
// the algorithm the paper analyses.
//
// Semantics (paper sections 2.2 and 3.1): maintain a priority list of jobs.
// Whenever processors free up (t = 0, a job completes, a reservation ends),
// scan the not-yet-started jobs in list order and start every job that can
// run *for its entire duration* from the current instant -- i.e. q_i
// processors are free during all of [t, t + p_i) against both the running
// jobs and every reservation. This duration look-ahead is what feasibility
// in the reservation model requires (a job must never overlap a reservation
// that would overload the machine mid-execution).
//
// This equals the "most aggressive back-filling" variant of section 2.2: any
// job may overtake any other as long as it can start now.
//
// Correctness of the event loop: capacity only decreases when jobs start, so
// a single in-order pass per event is enough (starting one job can never make
// a previously skipped job fit). By the candidate-start lemma
// (profile_allocator.hpp), fits can only appear at capacity-increase
// breakpoints, and those lie at completions and reservation ends; release
// times are additional wake-ups in the online extension. The loop wakes at
// the profile's next rise or the next release, whichever is first, by
// walking one pass cursor forward. It skips the completions and
// reservation ends where capacity does not rise, and the starts are still
// bit-identical to a pass at every completion, reservation end and
// release: a pass at an instant with no rise since the last pass starts
// nothing (the no-rise corollary, profile_allocator.hpp).
//
// The resident service (sim/service_sim.hpp) runs the same pass through
// replan(): at each event it asks only who starts now, so one pass over the
// waiting window at now is the whole decision (decision-only, see
// ReplanRequest in scheduler.hpp).
//
// Guarantees proved in the paper, all checked by tests/benches:
//   * no reservations:      C_LSRC <= (2 - 1/m) C*            (Theorem 2)
//   * non-increasing U:     C_LSRC <= (2 - 1/m(C*)) C*        (Prop. 1)
//   * alpha-restricted:     C_LSRC <= (2/alpha) C*            (Prop. 3)
//   * lower bound:          ratio can reach 2/alpha - 1 + alpha/2 (Prop. 2)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algorithms/list_order.hpp"
#include "algorithms/scheduler.hpp"

namespace resched {

class LsrcScheduler final : public Scheduler {
 public:
  explicit LsrcScheduler(ListOrder order = ListOrder::kSubmission,
                         std::uint64_t seed = 0);
  // Fixed explicit priority list (the local search's candidate orders).
  explicit LsrcScheduler(std::vector<JobId> explicit_list);

  // Unrestricted domain (release times and reservations are the algorithm's
  // native model), so the outcome is always a schedule; a malformed explicit
  // list is a precondition violation and throws.
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override;
  [[nodiscard]] std::string name() const override;
  // Decision-only incremental path (see ReplanRequest in scheduler.hpp):
  // one pass at now over the queue in this scheduler's priority order.
  // Offered for the deterministic orders; an explicit list names instance
  // ids and a kRandom list depends on the whole instance, so neither can
  // be rebuilt from a queue window.
  [[nodiscard]] Capabilities capabilities() const override;
  [[nodiscard]] Schedule replan(const ReplanRequest& request) const override;

  // One-shot run with an explicit list (priority = position in `list`).
  [[nodiscard]] static Schedule run(const Instance& instance,
                                    std::span<const JobId> list);

 private:
  ListOrder order_;
  std::uint64_t seed_;
  std::vector<JobId> explicit_list_;
  bool use_explicit_;
};

}  // namespace resched
