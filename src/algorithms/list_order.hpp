// List priority orders.
//
// A list algorithm is parameterised by the order in which it considers ready
// jobs. The paper proves its bounds for *any* order ("the general list
// algorithm") and conjectures in its conclusion that sorting by decreasing
// durations improves the constant -- the priority-ablation experiment (E6)
// measures exactly that.
#pragma once

#include <cstdint>
#include <span>
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
// by release would, without stable_sort's heap-allocated merge buffer.
// The schedulers call it only on feeds that are not released in order
// (ReleaseFeed, for_each_by_release).
[[nodiscard]] ScratchVec<JobId> release_order(const std::vector<Job>& jobs,
                                              Arena* scratch);

// release_order(jobs) read position by position, for a caller that feeds
// jobs in step with a clock. A feed released in order reads position i as
// job i, and no order is built.
class ReleaseFeed {
 public:
  ReleaseFeed(const std::vector<Job>& jobs, Arena* scratch)
      : sorted_(ArenaAlloc<JobId>(scratch)) {
    if (!released_in_order(jobs)) sorted_ = release_order(jobs, scratch);
  }

  [[nodiscard]] JobId operator[](std::size_t i) const {
    return sorted_.empty() ? static_cast<JobId>(i) : sorted_[i];
  }

 private:
  ScratchVec<JobId> sorted_;  // empty when released in order
};

// Calls visit(id) for every index of `jobs` in release_order's order. A
// feed released in order is visited by index, and no order is built.
template <class Visit>
void for_each_by_release(const std::vector<Job>& jobs, Arena* scratch,
                         Visit&& visit) {
  const ReleaseFeed feed(jobs, scratch);
  for (std::size_t i = 0; i < jobs.size(); ++i) visit(feed[i]);
}

// Sort key of a deterministic order: make_list lists the jobs by ascending
// (list_key(order, job), id). Requires order != kRandom.
[[nodiscard]] std::int64_t list_key(ListOrder order, const Job& job);

// Writes the ids of `jobs` into `ids` (one slot per job) in ascending
// (list_key(order, job), id) order: make_list's list for a deterministic
// order, built in caller-owned storage. Requires order != kRandom.
void fill_list(std::span<JobId> ids, const std::vector<Job>& jobs,
               ListOrder order);

}  // namespace resched
