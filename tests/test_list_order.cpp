#include "algorithms/list_order.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "util/prng.hpp"

namespace resched {
namespace {

Instance mixed_instance() {
  // Deliberately non-sorted in every attribute.
  return Instance(10, {
                          Job{0, 3, 5, 0, ""},   // area 15
                          Job{1, 1, 9, 0, ""},   // area 9
                          Job{2, 7, 2, 0, ""},   // area 14
                          Job{3, 2, 9, 0, ""},   // area 18 (p ties with 1)
                          Job{4, 5, 1, 0, ""},   // area 5
                      });
}

TEST(ListOrder, SubmissionIsIdentity) {
  const auto list = make_list(mixed_instance(), ListOrder::kSubmission);
  EXPECT_EQ(list, (std::vector<JobId>{0, 1, 2, 3, 4}));
}

TEST(ListOrder, LptSortsByDecreasingDuration) {
  const auto list = make_list(mixed_instance(), ListOrder::kLpt);
  // p: 9(id1), 9(id3), 5, 2, 1 -- stable tie-break by id.
  EXPECT_EQ(list, (std::vector<JobId>{1, 3, 0, 2, 4}));
}

TEST(ListOrder, SptSortsByIncreasingDuration) {
  const auto list = make_list(mixed_instance(), ListOrder::kSpt);
  EXPECT_EQ(list, (std::vector<JobId>{4, 2, 0, 1, 3}));
}

TEST(ListOrder, WidestSortsByDecreasingWidth) {
  const auto list = make_list(mixed_instance(), ListOrder::kWidest);
  EXPECT_EQ(list, (std::vector<JobId>{2, 4, 0, 3, 1}));
}

TEST(ListOrder, NarrowestSortsByIncreasingWidth) {
  const auto list = make_list(mixed_instance(), ListOrder::kNarrowest);
  EXPECT_EQ(list, (std::vector<JobId>{1, 3, 0, 4, 2}));
}

TEST(ListOrder, AreaOrders) {
  EXPECT_EQ(make_list(mixed_instance(), ListOrder::kMaxArea),
            (std::vector<JobId>{3, 0, 2, 1, 4}));
  EXPECT_EQ(make_list(mixed_instance(), ListOrder::kMinArea),
            (std::vector<JobId>{4, 1, 2, 0, 3}));
}

TEST(ListOrder, RandomIsSeededPermutation) {
  const auto a = make_list(mixed_instance(), ListOrder::kRandom, 7);
  const auto b = make_list(mixed_instance(), ListOrder::kRandom, 7);
  const auto c = make_list(mixed_instance(), ListOrder::kRandom, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // overwhelmingly likely for n = 5
  const auto identity = make_list(mixed_instance(), ListOrder::kSubmission);
  EXPECT_TRUE(std::is_permutation(a.begin(), a.end(), identity.begin()));
}

TEST(ListOrder, EveryOrderIsAPermutation) {
  const auto identity = make_list(mixed_instance(), ListOrder::kSubmission);
  for (const ListOrder order : all_list_orders()) {
    const auto list = make_list(mixed_instance(), order, 3);
    EXPECT_TRUE(std::is_permutation(list.begin(), list.end(),
                                    identity.begin()))
        << to_string(order);
  }
}

TEST(ListOrder, StringRoundTrip) {
  for (const ListOrder order : all_list_orders())
    EXPECT_EQ(list_order_from_string(to_string(order)), order);
  EXPECT_THROW((void)list_order_from_string("bogus"), std::invalid_argument);
}

TEST(ListOrder, EmptyInstance) {
  const Instance empty(4, {});
  EXPECT_TRUE(make_list(empty, ListOrder::kLpt).empty());
}

TEST(ReleaseOrder, MatchesTheSortOnSortedTiedAndShuffledFeeds) {
  // Oracle: the job indices sorted by (release, index).
  const auto oracle = [](const std::vector<Job>& jobs) {
    std::vector<JobId> ids(jobs.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      ids[i] = static_cast<JobId>(i);
    std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
      const Time ra = jobs[static_cast<std::size_t>(a)].release;
      const Time rb = jobs[static_cast<std::size_t>(b)].release;
      return ra != rb ? ra < rb : a < b;
    });
    return ids;
  };
  const auto feed = [](std::initializer_list<Time> releases) {
    std::vector<Job> jobs;
    for (const Time release : releases)
      jobs.push_back(Job{static_cast<JobId>(jobs.size()), 1, 1, release, ""});
    return jobs;
  };
  std::vector<Job> shuffled = feed({0, 0, 1, 1, 1, 2, 3, 5, 5, 8, 13, 13});
  Prng prng(17);
  prng.shuffle(std::span<Job>(shuffled));
  const std::vector<std::pair<std::vector<Job>, bool>> cases = {
      {feed({}), true},
      {feed({7}), true},
      {feed({0, 1, 2, 3, 4, 9}), true},         // sorted
      {feed({0, 0, 4, 4, 4, 6, 6}), true},      // sorted with ties
      {feed({3, 3, 3, 3}), true},               // one tie class
      {feed({5, 4, 3, 2, 1}), false},           // reversed
      {feed({0, 2, 2, 1, 3, 3}), false},        // one descent among ties
      {shuffled, false},
  };
  for (const auto& [jobs, in_order] : cases) {
    EXPECT_EQ(released_in_order(jobs), in_order);
    const std::vector<JobId> expected = oracle(jobs);
    const ScratchVec<JobId> order = release_order(jobs, nullptr);
    EXPECT_TRUE(std::equal(order.begin(), order.end(), expected.begin(),
                           expected.end()));
    std::vector<JobId> visited;
    for_each_by_release(jobs, nullptr,
                        [&](JobId id) { visited.push_back(id); });
    EXPECT_EQ(visited, expected);
    const ReleaseFeed by_position(jobs, nullptr);
    for (std::size_t i = 0; i < jobs.size(); ++i)
      EXPECT_EQ(by_position[i], expected[i]) << "position " << i;
  }
}

}  // namespace
}  // namespace resched
