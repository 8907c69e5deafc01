// The instance transformations of Proposition 1's proof (Figure 2).
//
// For instances with non-increasing unavailability U the paper argues in two
// steps:
//   I  -> I'  : cap the machine count at m(T) (availability at a reference
//               time T, in the proof T = C*) while keeping m(t) for t <= T;
//   I' -> I'' : replace the (non-increasing) reservations by k-1 ordinary
//               rigid jobs -- step j of the staircase becomes a job with
//               q = U_j - U_{j+1} and p = t_{j+1} -- placed at the *head* of
//               the priority list, so LSRC starts them all at time 0 and
//               reproduces the original unavailability exactly.
//
// Both transformations are implemented verbatim and tested: LSRC on I''
// (head jobs first) gives every original job the same start time as LSRC on
// I, which is the hinge of the proof.
#pragma once

#include <vector>

#include "core/instance.hpp"

namespace resched {

// I -> I': new machine count m' = m(T); unavailability becomes
// U'(t) = U(t) - U(T) for t < T and 0 afterwards. Requires non-increasing
// unavailability. Jobs are copied unchanged (jobs with q > m' would make I'
// invalid; the proof applies it with T = C*, where every job fits by
// feasibility of the optimal schedule).
[[nodiscard]] Instance truncate_availability(const Instance& instance,
                                             Time reference);

struct HeadJobTransform {
  // I'': no reservations; job ids 0..h-1 are the head (ex-reservation) jobs,
  // ids h..h+n-1 are the original jobs shifted by h.
  Instance rigid;
  // Head jobs come first in submission order, so plain LsrcScheduler()
  // on `rigid` reproduces LSRC-on-I.
  std::vector<JobId> head_ids;
  // Mapping: original job id j -> id in `rigid` (= h + j).
  std::vector<JobId> job_map;
};

// I' -> I''. Requires non-increasing unavailability.
[[nodiscard]] HeadJobTransform reservations_to_head_jobs(
    const Instance& instance);

}  // namespace resched
