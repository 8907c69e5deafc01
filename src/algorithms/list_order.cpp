#include "algorithms/list_order.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/prng.hpp"
#include "util/require.hpp"

namespace resched {

std::string to_string(ListOrder order) {
  switch (order) {
    case ListOrder::kSubmission: return "submission";
    case ListOrder::kLpt: return "lpt";
    case ListOrder::kSpt: return "spt";
    case ListOrder::kWidest: return "widest";
    case ListOrder::kNarrowest: return "narrowest";
    case ListOrder::kMaxArea: return "max-area";
    case ListOrder::kMinArea: return "min-area";
    case ListOrder::kRandom: return "random";
  }
  return "?";
}

ListOrder list_order_from_string(const std::string& name) {
  for (const ListOrder order : all_list_orders())
    if (to_string(order) == name) return order;
  throw std::invalid_argument("unknown list order: " + name);
}

std::vector<ListOrder> all_list_orders() {
  return {ListOrder::kSubmission, ListOrder::kLpt,     ListOrder::kSpt,
          ListOrder::kWidest,     ListOrder::kNarrowest,
          ListOrder::kMaxArea,    ListOrder::kMinArea, ListOrder::kRandom};
}

std::int64_t list_key(ListOrder order, const Job& job) {
  switch (order) {
    case ListOrder::kSubmission: return 0;
    case ListOrder::kLpt: return -job.p;
    case ListOrder::kSpt: return job.p;
    case ListOrder::kWidest: return -job.q;
    case ListOrder::kNarrowest: return job.q;
    case ListOrder::kMaxArea: return -job.area();
    case ListOrder::kMinArea: return job.area();
    case ListOrder::kRandom: break;
  }
  throw std::invalid_argument("list order has no sort key: " +
                              to_string(order));
}

bool released_in_order(const std::vector<Job>& jobs) {
  return std::is_sorted(jobs.begin(), jobs.end(),
                        [](const Job& a, const Job& b) {
                          return a.release < b.release;
                        });
}

ScratchVec<JobId> release_order(const std::vector<Job>& jobs,
                                Arena* scratch) {
  ScratchVec<JobId> order(jobs.size(), JobId{0}, ArenaAlloc<JobId>(scratch));
  std::iota(order.begin(), order.end(), JobId{0});
  std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    const Time ra = jobs[static_cast<std::size_t>(a)].release;
    const Time rb = jobs[static_cast<std::size_t>(b)].release;
    return ra != rb ? ra < rb : a < b;
  });
  return order;
}

void fill_list(std::span<JobId> ids, const std::vector<Job>& jobs,
               ListOrder order) {
  RESCHED_REQUIRE(ids.size() == jobs.size());
  std::iota(ids.begin(), ids.end(), JobId{0});
  if (order == ListOrder::kSubmission) return;
  std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    const std::int64_t ka = list_key(order, jobs[static_cast<std::size_t>(a)]);
    const std::int64_t kb = list_key(order, jobs[static_cast<std::size_t>(b)]);
    return ka != kb ? ka < kb : a < b;
  });
}

std::vector<JobId> make_list(const Instance& instance, ListOrder order,
                             std::uint64_t seed) {
  std::vector<JobId> ids(instance.n());
  if (order == ListOrder::kRandom) {
    std::iota(ids.begin(), ids.end(), JobId{0});
    Prng prng(seed);
    prng.shuffle(ids);
  } else {
    fill_list(ids, instance.jobs(), order);
  }
  return ids;
}

}  // namespace resched
