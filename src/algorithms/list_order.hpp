// List priority orders.
//
// A list algorithm is parameterised by the order in which it considers ready
// jobs. The paper proves its bounds for *any* order ("the general list
// algorithm") and conjectures in its conclusion that sorting by decreasing
// durations improves the constant -- the priority-ablation experiment (E6)
// measures exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/instance.hpp"

namespace resched {

enum class ListOrder {
  kSubmission,  // instance order (FCFS-like priority)
  kLpt,         // longest processing time first (decreasing p)
  kSpt,         // shortest processing time first (increasing p)
  kWidest,      // decreasing q
  kNarrowest,   // increasing q
  kMaxArea,     // decreasing q*p
  kMinArea,     // increasing q*p
  kRandom,      // seeded shuffle
};

[[nodiscard]] std::string to_string(ListOrder order);
[[nodiscard]] ListOrder list_order_from_string(const std::string& name);
[[nodiscard]] std::vector<ListOrder> all_list_orders();

// Returns job ids sorted by the given priority. All orders break ties by
// submission index, so they are total and deterministic; kRandom uses the
// seed.
[[nodiscard]] std::vector<JobId> make_list(const Instance& instance,
                                           ListOrder order,
                                           std::uint64_t seed = 0);

// True iff the releases of `jobs` are non-decreasing in index order, so
// that index order is their arrival order. O(n). It holds on every service
// call (the queue is kept in arrival order) and every generated instance.
[[nodiscard]] bool released_in_order(const std::vector<Job>& jobs);

// Indices into `jobs` in arrival order: ascending (release, index), on the
// scratch arena (null = plain counted heap). (release, index) is a total
// order, so the in-place sort gives exactly the permutation a stable sort
// by release would, without stable_sort's heap-allocated merge buffer. A
// feed released in order gets the identity, with no sort.
[[nodiscard]] ScratchVec<JobId> release_order(const std::vector<Job>& jobs,
                                              Arena* scratch);

// Calls visit(id) for every index of `jobs` in release_order's order. A
// feed released in order is visited by index, and no order is built.
template <class Visit>
void for_each_by_release(const std::vector<Job>& jobs, Arena* scratch,
                         Visit&& visit) {
  if (released_in_order(jobs)) {
    for (std::size_t i = 0; i < jobs.size(); ++i)
      visit(static_cast<JobId>(i));
    return;
  }
  for (const JobId id : release_order(jobs, scratch)) visit(id);
}

// Sort key of a deterministic order: make_list lists the jobs by ascending
// (list_key(order, job), id). Requires order != kRandom.
[[nodiscard]] std::int64_t list_key(ListOrder order, const Job& job);

}  // namespace resched
