// Minimal discrete-event simulation kernel.
//
// A thin deterministic clock + handler queue. The schedulers that need
// event-driven execution (EASY, the online batch wrapper) have their own
// specialised loops for clarity; this kernel backs the cluster simulator and
// is the extension point for users who want to script their own scenarios
// (see examples/online_cluster.cpp). The resident service (sim/service_sim)
// does not use it: its events are plain {kind, job} records on its own
// EventQueue, since a std::function handler capturing more than 16 bytes
// heap-allocates on every push.
#pragma once

#include <functional>

#include "sim/event_queue.hpp"

namespace resched {

class Simulation {
 public:
  using Handler = std::function<void(Simulation&)>;

  // Schedules a handler at an absolute time >= now().
  void at(Time time, Handler handler);
  // Schedules a handler `delay` ticks from now.
  void after(Time delay, Handler handler);

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  // Runs every event with time <= horizon (all events when unbounded).
  // Handlers may schedule further events. Returns the final clock value:
  // after a bounded run (horizon < kTimeInfinity) the clock rests exactly at
  // the bound even if no event fired there, so stepped callers can resume
  // phase-by-phase; an unbounded drain leaves it at the last fired event.
  Time run(Time horizon = kTimeInfinity);

 private:
  Time now_ = 0;
  EventQueue<Handler> queue_;
};

}  // namespace resched
