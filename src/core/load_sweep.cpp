#include "core/load_sweep.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>

#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

namespace {

// Ticks lie in [0, INT64_MAX], so every key fits in 64 bits.
void push_window(std::vector<LoadEvent>& events, Time start, Time p,
                 std::uint32_t occupant) {
  const auto from = static_cast<std::uint64_t>(start);
  const auto to = static_cast<std::uint64_t>(checked_add(start, p));
  events.push_back({2 * from + 1, occupant});
  events.push_back({2 * to, occupant});
}

// Stable LSD radix sort over 8-bit digits, one pass per digit of max_key.
// One read of the events counts the digits of every pass.
void radix_sort(std::vector<LoadEvent>& events, std::uint64_t max_key) {
  const std::size_t n = events.size();
  const int passes = (static_cast<int>(std::bit_width(max_key)) + 7) / 8;
  std::array<std::array<std::size_t, 256>, 8> offset{};
  for (const LoadEvent& e : events)
    for (int d = 0; d < passes; ++d) ++offset[d][(e.key >> (8 * d)) & 0xff];
  // Every pass writes all n slots, so the buffer starts uninitialised.
  const auto buffer = std::make_unique_for_overwrite<LoadEvent[]>(n);
  LoadEvent* from = events.data();
  LoadEvent* to = buffer.get();
  for (int d = 0; d < passes; ++d) {
    std::size_t sum = 0;
    for (std::size_t& slot : offset[d]) {
      const std::size_t count = slot;
      slot = sum;
      sum += count;
    }
    for (std::size_t k = 0; k < n; ++k)
      to[offset[d][(from[k].key >> (8 * d)) & 0xff]++] = from[k];
    std::swap(from, to);
  }
  if (from != events.data()) std::copy(from, from + n, events.data());
}

}  // namespace

std::vector<LoadEvent> sweep_events(const Instance& instance,
                                    const Schedule& schedule) {
  RESCHED_REQUIRE_MSG(schedule.size() == instance.n(),
                      "schedule size does not match instance");
  RESCHED_REQUIRE(instance.n() < LoadEvent::kReservationBit &&
                  instance.n_reservations() < LoadEvent::kReservationBit);
  std::vector<LoadEvent> events;
  events.reserve(2 * (instance.n() + instance.n_reservations()));
  std::uint32_t id = 0;
  for (const Reservation& r : instance.reservations())
    push_window(events, r.start, r.p, LoadEvent::kReservationBit | id++);
  id = 0;
  for (const Job& job : instance.jobs())
    push_window(events, schedule.start(job.id), job.p, id++);
  std::uint64_t max_key = 0;
  for (const LoadEvent& e : events) max_key = std::max(max_key, e.key);
  radix_sort(events, max_key);
  return events;
}

ProcCount demand(const Instance& instance, const LoadEvent& event) {
  const auto index = static_cast<std::size_t>(event.id());
  return event.is_reservation() ? instance.reservations()[index].q
                                : instance.jobs()[index].q;
}

std::vector<LoadStep> load_steps(const Instance& instance,
                                 std::span<const LoadEvent> events) {
  // Branch-free: every event writes a candidate step into slot `kept`, and
  // the slot is kept when the event closes its tick's group with a load
  // other than the previous group's.
  std::vector<LoadStep> steps(events.size());
  std::size_t kept = 0;
  std::int64_t load = 0;
  std::int64_t settled = 0;  // the load after the previous tick's group
  for (std::size_t k = 0; k < events.size(); ++k) {
    const LoadEvent& e = events[k];
    const ProcCount q = demand(instance, e);
    load = checked_add(load, e.is_start() ? q : -q);
    const bool closes =
        k + 1 == events.size() || events[k + 1].tick() != e.tick();
    steps[kept] = {e.tick(), load};
    kept += static_cast<std::size_t>(closes & (load != settled));
    settled = closes ? load : settled;
  }
  steps.resize(kept);
  return steps;
}

}  // namespace resched
