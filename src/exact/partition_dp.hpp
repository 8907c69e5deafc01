// Pseudo-polynomial exact algorithms for the weakly NP-hard special cases
// the paper points at (section 2.1, footnote 1: scheduling sequential tasks
// on two processors "is exactly PARTITION, and thus optimally solvable in
// pseudo-polynomial time").
//
//  * subset_sums       -- the reachable-sum bitset DP underlying PARTITION;
//  * two_machine_optimal -- exact C* for m = 2, unit-width (q = 1) jobs
//                          without reservations: the best split is the
//                          smallest reachable sum >= ceil(total/2).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"

namespace resched {

// All sums reachable by subsets of `values` up to and including `cap`.
// Index s of the result is true iff some subset sums to exactly s.
// O(n * cap / 64) time via a bitset sweep.
[[nodiscard]] std::vector<bool> subset_sums(
    const std::vector<std::int64_t>& values, std::int64_t cap);

// Exact optimal makespan for m = 2, all q_i = 1, no reservations, no
// releases. Throws std::invalid_argument outside this domain.
[[nodiscard]] Time two_machine_optimal(const Instance& instance);

}  // namespace resched
