// Stable time-ordered event queue for the resident service's event loop.
//
// Events at equal times fire in insertion order (a monotone sequence number
// breaks ties), which makes simulations deterministic regardless of heap
// internals.
#pragma once

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/require.hpp"

namespace resched {

template <typename Payload>
class EventQueue {
 public:
  void push(Time time, Payload payload) {
    RESCHED_REQUIRE(time >= 0);
    heap_.push(Entry{time, next_seq_++, std::move(payload)});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] Time next_time() const {
    RESCHED_REQUIRE(!heap_.empty());
    return heap_.top().time;
  }

  // Sequence number of the earliest event: with next_time(), the key a
  // caller merging this queue with events it keeps elsewhere compares.
  [[nodiscard]] std::uint64_t next_seq() const {
    RESCHED_REQUIRE(!heap_.empty());
    return heap_.top().seq;
  }

  // Draws the next sequence number without queueing anything. An event the
  // caller keeps in its own structure under (time, take_seq()) then orders
  // against this queue's events exactly as if it had been pushed here.
  [[nodiscard]] std::uint64_t take_seq() noexcept { return next_seq_++; }

  // Removes and returns the earliest event (FIFO among equal times).
  [[nodiscard]] std::pair<Time, Payload> pop() {
    RESCHED_REQUIRE(!heap_.empty());
    // Moving out of the top element before pop() is safe: the heap property
    // is not consulted again before the element is removed. This keeps
    // move-only payloads (e.g. std::function, unique_ptr) supported.
    Entry top = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    return {top.time, std::move(top.payload)};
  }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    Payload payload;
    // std::priority_queue is a max-heap; invert for earliest-first.
    bool operator<(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  std::priority_queue<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace resched
