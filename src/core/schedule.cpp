#include "core/schedule.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/availability.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

Schedule::Schedule(std::size_t n_jobs, Arena* scratch)
    : starts_(n_jobs, ArenaAlloc<std::optional<Time>>(scratch)) {}

void Schedule::set_start(JobId job, Time start) {
  RESCHED_REQUIRE(job >= 0 && static_cast<std::size_t>(job) < starts_.size());
  RESCHED_REQUIRE_MSG(start >= 0, "job start must be >= 0");
  starts_[static_cast<std::size_t>(job)] = start;
}

bool Schedule::is_scheduled(JobId job) const {
  RESCHED_REQUIRE(job >= 0 && static_cast<std::size_t>(job) < starts_.size());
  return starts_[static_cast<std::size_t>(job)].has_value();
}

Time Schedule::start(JobId job) const {
  RESCHED_REQUIRE(is_scheduled(job));
  return *starts_[static_cast<std::size_t>(job)];
}

Time Schedule::completion(const Instance& instance, JobId job) const {
  return checked_add(start(job), instance.job(job).p);
}

bool Schedule::all_scheduled() const noexcept {
  return std::all_of(starts_.begin(), starts_.end(),
                     [](const auto& s) { return s.has_value(); });
}

Time Schedule::makespan(const Instance& instance) const {
  RESCHED_REQUIRE_MSG(starts_.size() == instance.n(),
                      "schedule size does not match instance");
  Time result = 0;
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    if (!starts_[i].has_value()) continue;
    result = std::max(
        result, checked_add(*starts_[i], instance.jobs()[i].p));
  }
  return result;
}

StepProfile Schedule::usage_profile(const Instance& instance) const {
  RESCHED_REQUIRE(starts_.size() == instance.n());
  StepProfile usage(0);
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    if (!starts_[i].has_value()) continue;
    const Job& job = instance.jobs()[i];
    usage.add(*starts_[i], checked_add(*starts_[i], job.p), job.q);
  }
  return usage;
}

namespace {

// A step of the load r(t) + U(t). key is 2 * end for an end and
// 2 * start + 1 for a start: ticks lie in [0, INT64_MAX], so every key fits
// in 64 bits, and at equal ticks ends sort before starts, as the half-open
// [start, end) windows require.
struct LoadEvent {
  std::uint64_t key;
  std::int64_t delta;
};

void push_window(std::vector<LoadEvent>& events, Time start, Time p,
                 std::int64_t q) {
  const auto from = static_cast<std::uint64_t>(start);
  const auto to = static_cast<std::uint64_t>(checked_add(start, p));
  events.push_back({2 * from + 1, q});
  events.push_back({2 * to, -q});
}

// Stable LSD radix sort over 8-bit digits, one pass per digit of max_key.
void radix_sort(std::vector<LoadEvent>& events, std::uint64_t max_key) {
  std::vector<LoadEvent> sorted(events.size());
  const int bits = static_cast<int>(std::bit_width(max_key));
  for (int shift = 0; shift < bits; shift += 8) {
    std::array<std::size_t, 256> offset{};
    for (const LoadEvent& e : events) ++offset[(e.key >> shift) & 0xff];
    std::size_t sum = 0;
    for (std::size_t& slot : offset) {
      const std::size_t count = slot;
      slot = sum;
      sum += count;
    }
    for (const LoadEvent& e : events)
      sorted[offset[(e.key >> shift) & 0xff]++] = e;
    events.swap(sorted);
  }
}

}  // namespace

ValidationResult Schedule::validate(const Instance& instance) const {
  if (starts_.size() != instance.n())
    return {false, "schedule covers " + std::to_string(starts_.size()) +
                       " jobs but instance has " + std::to_string(instance.n())};
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    if (!starts_[i].has_value())
      return {false, "job " + std::to_string(i) + " is not scheduled"};
    const Job& job = instance.jobs()[i];
    if (*starts_[i] < job.release)
      return {false, "job " + std::to_string(i) + " starts at " +
                         std::to_string(*starts_[i]) + " before its release " +
                         std::to_string(job.release)};
  }
  // Capacity: usage + unavailability must never exceed m. Sweep the sorted
  // window events; the load after a tick's whole group holds until the
  // next group's tick.
  std::vector<LoadEvent> events;
  events.reserve(2 * (starts_.size() + instance.n_reservations()));
  for (std::size_t i = 0; i < starts_.size(); ++i)
    push_window(events, *starts_[i], instance.jobs()[i].p,
                instance.jobs()[i].q);
  for (const Reservation& r : instance.reservations())
    push_window(events, r.start, r.p, r.q);
  std::uint64_t max_key = 0;
  for (const LoadEvent& e : events) max_key = std::max(max_key, e.key);
  radix_sort(events, max_key);

  std::int64_t load = 0;
  std::optional<Time> overload_start;
  for (std::size_t k = 0; k < events.size();) {
    const std::uint64_t tick = events[k].key / 2;
    std::int64_t next = load;
    for (; k < events.size() && events[k].key / 2 == tick; ++k)
      next = checked_add(next, events[k].delta);
    // An overloaded run ends at the first tick that changes its load.
    if (overload_start.has_value() && next != load)
      return {false, "capacity exceeded: " + std::to_string(load) +
                         " > m = " + std::to_string(instance.m()) +
                         " during [" + std::to_string(*overload_start) +
                         ", " + std::to_string(tick) + ")"};
    if (!overload_start.has_value() && next > instance.m())
      overload_start = static_cast<Time>(tick);
    load = next;
  }
  // The last group closes every window, so an overload always ends above.
  return {true, ""};
}

std::int64_t Schedule::idle_area(const Instance& instance) const {
  const Time horizon = makespan(instance);
  if (horizon == 0) return 0;
  const std::int64_t available = available_area(instance, horizon);
  std::int64_t placed = 0;
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    if (!starts_[i].has_value()) continue;
    placed = checked_add(placed, instance.jobs()[i].area());
  }
  return checked_sub(available, placed);
}

double Schedule::utilization(const Instance& instance) const {
  const Time horizon = makespan(instance);
  if (horizon == 0) return 1.0;
  const std::int64_t available = available_area(instance, horizon);
  if (available == 0) return 1.0;
  return static_cast<double>(instance.total_work()) /
         static_cast<double>(available);
}

}  // namespace resched
