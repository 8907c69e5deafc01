// The paper's constructed instances, in exact scaled-integer form.
//
//  * prop2_instance(k)       -- Proposition 2 / Figure 3: the alpha = 2/k
//                               family where LSRC with a bad list order is
//                               exactly (2/alpha - 1 + alpha/2) = k - 1 + 1/k
//                               times optimal. Times are scaled by k (as in
//                               the paper's own figure: k = 6 gives C* = 6,
//                               C_LSRC = 31).
//  * graham_tight_instance(m)-- the classical family on which LSRC with a
//                               bad order approaches Theorem 2's 2 - 1/m.
//  * fcfs_bad_instance(m)    -- section 2.2's "optimal ~1, FCFS ~m" family.
//  * cbf_trap_instance(...)  -- release-time family separating the
//                               backfilling ladder (FCFS >> conservative ~
//                               EASY > LSRC).
//  * theorem1_reduction(...) -- Figure 1: the 3-PARTITION -> RESASCHEDULING
//                               (m = 1) gap reduction of Theorem 1, with the
//                               schedule <-> partition converters used to
//                               verify both directions of the proof.
//  * add_gap_reservation(...)-- the n' = 1 reduction shape: one full-width
//                               reservation right after a target makespan
//                               turns any makespan question into a gap.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "exact/three_partition.hpp"

namespace resched {

// Both LSRC families below are built in their bad list order, so plain
// LsrcScheduler() (submission order) realises the lower bound.
struct Prop2Family {
  Instance instance;
  Schedule optimal_schedule;      // constructive optimum (validates)
  Time optimal_makespan = 0;      // = k (scaled)
  Time lsrc_makespan = 0;         // = k^2 - k + 1 (scaled)
  std::int64_t k = 0;             // alpha = 2/k
};

// Requires k >= 2 (k = 2 is the degenerate alpha = 1 case, which needs no
// reservation). m = k^2 (k - 1).
[[nodiscard]] Prop2Family prop2_instance(std::int64_t k);

struct GrahamTightFamily {
  Instance instance;             // shorts before the long job
  Time optimal_makespan = 0;     // = m
  Time lsrc_makespan = 0;        // = 2m - 1
};

// Requires m >= 2. m(m-1) unit jobs + one length-m job, all q = 1.
[[nodiscard]] GrahamTightFamily graham_tight_instance(ProcCount m);

struct FcfsBadFamily {
  Instance instance;
  Time optimal_makespan = 0;  // = m^2 + m
  Time fcfs_makespan = 0;     // = m (m^2 + 1)
};

// Requires m >= 2. Submission order alternates narrow-long / full-width
// jobs; strict FCFS serialises every pair.
[[nodiscard]] FcfsBadFamily fcfs_bad_instance(ProcCount m);

// Online trap: rounds of (narrow F released at 2i, full-width G released at
// 2i+1). Conservative/EASY protect the G's at bounded cost; strict FCFS
// serialises; LSRC starves the G's and stays near optimal. Requires
// m >= 2, rounds >= 1, narrow_duration >= 2.
[[nodiscard]] Instance cbf_trap_instance(std::int64_t rounds, ProcCount m,
                                         Time narrow_duration);

struct Theorem1Reduction {
  Instance instance;          // m = 1, 3k jobs, k reservations
  std::int64_t k = 0;
  std::int64_t B = 0;
  std::int64_t rho = 0;
  Time opt_if_solvable = 0;   // k (B + 1) - 1
  // Any schedule strictly below this threshold fits every job between the
  // reservations and therefore encodes a valid 3-partition.
  Time gap_threshold = 0;     // rho * k * (B + 1)
};

// Figure 1's construction. rho >= 1 plays the role of the hypothetical
// approximation guarantee being refuted.
[[nodiscard]] Theorem1Reduction theorem1_reduction(
    const ThreePartitionInstance& partition, std::int64_t rho);

// Schedules group l's three jobs inside gap l (requires a valid partition).
[[nodiscard]] Schedule schedule_from_partition(
    const Theorem1Reduction& reduction,
    const std::vector<std::vector<std::size_t>>& groups);

// Inverse direction of the proof: a feasible schedule with makespan below
// the gap threshold yields a valid 3-partition; nullopt otherwise.
[[nodiscard]] std::optional<std::vector<std::vector<std::size_t>>>
partition_from_schedule(const Theorem1Reduction& reduction,
                        const ThreePartitionInstance& partition,
                        const Schedule& schedule);

// Strict-item YES instance for the reduction experiments: every item lies in
// (B/4, B/2), so any B-sum group has exactly three items. Requires B >= 13.
[[nodiscard]] ThreePartitionInstance random_strict_yes_instance(
    std::size_t k, std::int64_t B, Prng& prng);

// n' = 1 reduction shape: appends one reservation of all m processors on
// [gap_start, gap_start + gap_length) to the instance.
[[nodiscard]] Instance add_gap_reservation(const Instance& base,
                                           Time gap_start, Time gap_length);

}  // namespace resched
