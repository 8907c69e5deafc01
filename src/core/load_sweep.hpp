// The load sweep: a schedule as one time-ordered list of window events.
//
// Every job window [sigma_i, sigma_i + p_i) and every reservation window
// becomes a start event and an end event. The events are pushed
// reservations first, then jobs, each in id order, and a stable LSD radix
// sort over 8-bit digits of the key 2 * tick + is_start orders them by
//   (tick, ends before starts, reservations before jobs, id)
// -- the half-open windows free their processors before anything acquires
// them at the same tick. Its cost is O((n + n') * passes), where
// passes = ceil(bits(2 * latest end) / 8): two while every window ends
// before tick 32768, three below 2^23.
//
// The sweep is what every independent checker of a schedule walks, built
// once per check: Schedule::checked_sweep sums its load steps against m and
// hands the sweep to assign_machines and validate_assignment, which acquire
// and release machines in its order, and to simulate_cluster and
// check_lemma1, which read its load steps. It shares no code with
// StepProfile, the structure the schedulers plan on (defence in depth).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace resched {

// One start or end of a job or reservation window (16 bytes).
struct LoadEvent {
  static constexpr std::uint32_t kReservationBit = 0x8000'0000u;

  std::uint64_t key;       // 2 * tick, plus 1 for a start
  std::uint32_t occupant;  // job id, or kReservationBit | reservation id

  [[nodiscard]] Time tick() const noexcept {
    return static_cast<Time>(key >> 1);
  }
  [[nodiscard]] bool is_start() const noexcept { return (key & 1u) != 0; }
  [[nodiscard]] bool is_reservation() const noexcept {
    return (occupant & kReservationBit) != 0;
  }
  [[nodiscard]] std::int32_t id() const noexcept {
    return static_cast<std::int32_t>(occupant & ~kReservationBit);
  }
};
static_assert(sizeof(LoadEvent) == 16);

// The events of every reservation and job window, in sweep order. Requires
// a fully scheduled schedule of the instance; throws std::overflow_error
// when a window's end overflows int64.
[[nodiscard]] std::vector<LoadEvent> sweep_events(const Instance& instance,
                                                  const Schedule& schedule);

// q of the event's job or reservation.
[[nodiscard]] ProcCount demand(const Instance& instance,
                               const LoadEvent& event);

// The load r(t) + U(t) holds `load` from `tick` until the next step.
struct LoadStep {
  Time tick;
  std::int64_t load;

  bool operator==(const LoadStep&) const = default;
};

// The load as maximal constant steps: one step per tick at which the load
// changes, in tick order. The load is 0 before the first step and after the
// last, which every window has ended by. Throws std::overflow_error when a
// running sum overflows int64.
[[nodiscard]] std::vector<LoadStep> load_steps(
    const Instance& instance, std::span<const LoadEvent> events);

// A schedule's sweep after Schedule::checked_sweep: its feasibility verdict
// and, when the verdict is ok, the events and load steps the check walked
// (a rejection is the verdict alone).
struct CheckedSweep {
  ValidationResult verdict;
  std::vector<LoadEvent> events = {};
  std::vector<LoadStep> steps = {};
};

}  // namespace resched
