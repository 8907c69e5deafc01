#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace resched {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_THROW((void)queue.pop(), std::invalid_argument);
  EXPECT_THROW((void)queue.next_time(), std::invalid_argument);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue<std::string> queue;
  queue.push(5, "b");
  queue.push(2, "a");
  queue.push(9, "c");
  EXPECT_EQ(queue.next_time(), 2);
  EXPECT_EQ(queue.pop().second, "a");
  EXPECT_EQ(queue.pop().second, "b");
  EXPECT_EQ(queue.pop().second, "c");
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue<int> queue;
  for (int i = 0; i < 10; ++i) queue.push(7, i);
  for (int i = 0; i < 10; ++i) {
    const auto [time, payload] = queue.pop();
    EXPECT_EQ(time, 7);
    EXPECT_EQ(payload, i);
  }
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue<int> queue;
  queue.push(3, 30);
  queue.push(1, 10);
  EXPECT_EQ(queue.pop().second, 10);
  queue.push(2, 20);
  EXPECT_EQ(queue.pop().second, 20);
  EXPECT_EQ(queue.pop().second, 30);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RejectsNegativeTime) {
  EventQueue<int> queue;
  EXPECT_THROW(queue.push(-1, 0), std::invalid_argument);
}

TEST(EventQueue, BoundedDrainStopsAtHorizon) {
  // A bounded drain, popping while next_time() fits: everything at or
  // before the horizon drains in (time, FIFO) order, later events stay
  // queued untouched.
  EventQueue<int> queue;
  queue.push(5, 50);
  queue.push(30, 300);
  queue.push(10, 100);
  queue.push(10, 101);
  queue.push(20, 200);
  constexpr Time kHorizon = 10;
  std::vector<int> drained;
  while (!queue.empty() && queue.next_time() <= kHorizon)
    drained.push_back(queue.pop().second);
  EXPECT_EQ(drained, (std::vector<int>{50, 100, 101}));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.next_time(), 20);
}

TEST(EventQueue, TakenSequenceNumbersInterleaveWithPushes) {
  // An event kept outside the queue under (time, take_seq()) sorts against
  // queued events exactly where a push at that moment would have put it.
  EventQueue<int> queue;
  queue.push(4, 0);                                // seq 0
  const std::uint64_t outside = queue.take_seq();  // seq 1, also at 4
  queue.push(4, 2);                                // seq 2
  EXPECT_EQ(outside, 1u);
  EXPECT_EQ(queue.next_time(), 4);
  EXPECT_EQ(queue.next_seq(), 0u);
  EXPECT_LT(queue.next_seq(), outside);
  EXPECT_EQ(queue.pop().second, 0);
  EXPECT_GT(queue.next_seq(), outside);
  EXPECT_EQ(queue.pop().second, 2);
  EXPECT_THROW((void)queue.next_seq(), std::invalid_argument);
}

TEST(EventQueue, MovesPayloads) {
  EventQueue<std::unique_ptr<int>> queue;
  queue.push(1, std::make_unique<int>(42));
  auto [time, payload] = queue.pop();
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(*payload, 42);
}

}  // namespace
}  // namespace resched
